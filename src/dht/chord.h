// Chord-style ring DHT with finger-table routing.
//
// Stands in for the Bamboo deployment of the paper's testbed (both are
// ring-geometry DHTs; see DESIGN.md substitutions). Peers and keys are
// hashed with xxHash64 onto a 2^64 identifier ring; a key is owned by its
// successor peer. Lookups route iteratively through finger tables in
// O(log N) hops, every hop accounted on the SimNetwork. Joins and leaves
// hand keys off to the new owner, so the stored state stays consistent
// under churn.
//
// Storage, replication, churn handling and locking are SimDht's. Chord
// adds crash mode (a dark peer stays in the ring until repair excises it)
// and replica reads, and reaches the shared routed ops through SimDht's
// crash-mode hooks.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/hash.h"
#include "dht/sim_dht.h"

namespace lht::dht {

class ChordDht final : public SimDht {
 public:
  struct Options {
    size_t initialPeers = 32;   ///< ring size at construction
    common::u64 seed = 1;       ///< peer naming / entry-point randomness
    bool randomEntry = true;    ///< route from a random peer per lookup
    /// Copies of every key (1 = no replication). With r >= 2 the ring
    /// keeps each key on its owner plus the r-1 following successors, so
    /// data survives an *ungraceful* peer failure (see fail()). Replica
    /// pushes cost messages but no extra DHT-lookups.
    size_t replication = 1;
    /// Ring points per physical peer. Consistent hashing with a single
    /// point per peer leaves O(log N)-factor arc-length imbalance; v
    /// virtual nodes shrink it toward uniform (classic Chord/Dynamo
    /// technique). Each peer owns v independent ring ids.
    size_t virtualNodes = 1;
  };

  ChordDht(net::SimNetwork& network, Options options);

  // Membership -------------------------------------------------------------
  /// Adds a peer named `name` (with Options::virtualNodes ring points);
  /// keys it now owns move from their previous successors, one message
  /// per key. Returns the peer's first ring identifier.
  common::u64 join(const std::string& name);

  // leave(nodeId) and fail(nodeId) (SimDht) remove the *peer* owning ring
  // id `nodeId`: all of its virtual nodes go together. Both require at
  // least two peers and no pending crash. fail()'s recovery is INSTANT —
  // it models a ring whose stabilization outruns the observer. Use
  // crash() to model the window in between.

  // Crash mode (availability under churn) -----------------------------------
  /// Crash-mode failure of the peer owning ring id `nodeId`: the peer goes
  /// dark but its ring nodes STAY in the topology until repairStep()
  /// excises them, so routed operations whose owner is down fail loudly
  /// with DhtPeerDownError instead of silently reporting the key absent
  /// (a silent miss would mis-steer the index's binary search). Replica
  /// reads (getReplica) against surviving holders keep working — that is
  /// the failover window the availability layer exploits. Intermediate
  /// routing hops ignore down peers (fast-stabilizing fingers); only the
  /// terminal owner matters. Crashes accumulate until repaired; graceful
  /// join/leave/fail are rejected while crashes are pending.
  void crash(common::u64 nodeId);

  /// One bounded anti-entropy repair slice. The first call after crashes
  /// excises the dead ring nodes and promotes surviving replicas onto the
  /// new owners in the same step (promotion is local inheritance on the
  /// successor — splitting it from excision would open a silent-miss
  /// window). Every call then applies up to `maxKeys` replica fix-ups
  /// (re-pushing missing copies, dropping misplaced ones), recomputed
  /// from a fresh placement scan so concurrent client writes are never
  /// double-repaired. Returns fix-ups applied; 0 means converged.
  size_t repairStep(size_t maxKeys);

  /// Replica placements still missing or misplaced (0 when the ring is
  /// whole). Before excision this counts the promotions repair owes —
  /// the gauge may legitimately rise once excision exposes the full
  /// re-push backlog.
  [[nodiscard]] size_t replicaDeficit() const;

  /// True when no crashes are pending and every replica sits where the
  /// placement rule wants it (checkReplication() would pass).
  [[nodiscard]] bool repairConverged() const;

  /// Keys destroyed by crashes that no surviving replica could resurrect
  /// (only possible with replication == 1 or correlated crashes).
  [[nodiscard]] common::u64 lostKeys() const { return lostKeys_; }

  /// Whether crashing `nodeId`'s peer — on top of any crashes already
  /// pending — would destroy the last live copy of some key. Storm drivers
  /// use it to space wave victims across replica sets (the paper's
  /// fluctuation model assumes independent, not targeted, failures).
  [[nodiscard]] bool crashWouldLoseData(common::u64 nodeId) const;

  /// Peers currently dark (crashed, not yet excised by repairStep).
  [[nodiscard]] size_t crashedPeerCount() const;

  /// Physical peers that are up (peerCount() minus crashed).
  [[nodiscard]] size_t livePeerCount() const;

  /// Ring ids of nodes on live (non-crashed) peers, sorted.
  [[nodiscard]] std::vector<common::u64> liveNodeIds() const;

  // Replica reads ------------------------------------------------------------
  [[nodiscard]] size_t replicaFanout() const override {
    return opts_.replication > 0 ? opts_.replication - 1 : 0;
  }

  /// Routes to the key's `replicaIndex`-th distinct-peer successor and
  /// reads the copy it holds (its replica table, or its primary store once
  /// repair promoted the key). Throws DhtPeerDownError when that holder is
  /// down too.
  std::optional<Value> getReplica(const Key& key, size_t replicaIndex) override;

  /// Reads served per physical peer (primary gets plus replica reads,
  /// multiGet entries included), in ring order of each peer's first
  /// node. The skew campaign's load-balance measure: with hot leaves the
  /// max/mean of this vector is the read bottleneck.
  [[nodiscard]] std::vector<common::u64> readLoadByPeer() const;

  /// Zeroes the per-node served-read counters (e.g. after preload, so a
  /// measurement window sees only its own traffic).
  void resetReadLoad();

  /// Number of physical peers currently in the ring (crashed peers still
  /// count until repairStep() excises them).
  [[nodiscard]] size_t peerCount() const;

  /// Copies kept of every key (Options::replication as configured).
  [[nodiscard]] size_t replicationFactor() const { return opts_.replication; }

  /// Number of keys stored on the peer with ring id `nodeId`.
  [[nodiscard]] size_t keysOn(common::u64 nodeId) const;

  /// Validates ring invariants (finger correctness, full key ownership).
  /// Returns true when consistent; used by tests.
  [[nodiscard]] bool checkRing() const;

  /// Validates replica placement: every primary key is copied on exactly
  /// the min(replication, peers) - 1 successors of its owner, and every
  /// replica backs a live primary.
  [[nodiscard]] bool checkReplication() const;

 private:
  struct Node : Tables {
    std::vector<common::u64> fingers;  // finger[k] = successor(id + 2^k)
    /// Reads this node served (primary or as replica holder). Guarded by
    /// the node's store stripe, like the tables it measures.
    common::u64 servedReads = 0;
  };

  // SimDht hooks.
  common::u64 route(const Key& key, u64 requestBytes) override {
    return routeTo(common::hash::xxhash64(key, 0), requestBytes);
  }
  [[nodiscard]] common::u64 ownerOfUnlocked(const Key& key) const override {
    return ownerOfId(common::hash::xxhash64(key, 0));
  }
  /// The replication-1 distinct-peer successors of `ownerId`.
  [[nodiscard]] std::vector<common::u64> replicaHoldersOf(
      common::u64 ownerId) const override {
    return successorsOf(ownerId, opts_.replication - 1);
  }
  [[nodiscard]] std::vector<common::u64> nodeIdsUnlocked() const override {
    return keysOf(nodes_);
  }
  Tables& tablesOf(common::u64 id) override { return nodeById(id); }
  [[nodiscard]] const Tables& tablesOf(common::u64 id) const override {
    return nodeById(id);
  }
  /// Removes all ring nodes of the peer owning `nodeId`.
  Departure detach(common::u64 nodeId, bool graceful) override;
  /// Throws DhtPeerDownError when the routed-to owner is dark.
  void checkOwnerUp(common::u64 ownerId, const char* op) const override;
  [[nodiscard]] bool holderDark(common::u64 holderId) const override {
    return nodeDown(nodeById(holderId));
  }
  void noteServedRead(common::u64 id) override {
    nodeById(id).servedReads += 1;
  }

  // Every private helper below assumes topoMutex_ is held (shared suffices
  // unless noted); helpers that read/write node stores additionally expect
  // the caller to hold the relevant store stripes — or the exclusive
  // topology lock, which subsumes them.
  Node& nodeById(common::u64 id) { return nodeIn(nodes_, id); }
  const Node& nodeById(common::u64 id) const { return nodeIn(nodes_, id); }
  [[nodiscard]] common::u64 successorOf(common::u64 id) const;  // first id > given (wrap)
  [[nodiscard]] common::u64 ownerOfId(common::u64 keyId) const;
  [[nodiscard]] size_t peerCountUnlocked() const;
  void rebuildFingers();
  /// The `count` ring nodes following `id` clockwise that belong to a
  /// *different peer* than `id` (replicas on one's own virtual nodes would
  /// not survive that peer's failure).
  [[nodiscard]] std::vector<common::u64> successorsOf(common::u64 id,
                                                      size_t count) const;
  /// Whether the node's peer is crashed (caller holds topoMutex_).
  [[nodiscard]] bool nodeDown(const Node& node) const {
    return crashedPeers_.count(node.peer) != 0;
  }
  /// Distinct live peers (caller holds topoMutex_).
  [[nodiscard]] size_t livePeerCountUnlocked() const;
  /// Removes crashed peers' ring nodes and promotes surviving replicas
  /// onto the new owners (exclusive topology lock required).
  void exciseCrashedLocked();
  /// One replica fix-up: push a missing/stale copy owner -> holder, or
  /// drop a copy no placement accounts for.
  struct RepairAction {
    enum class Kind { Push, Drop };
    Kind kind = Kind::Push;
    common::u64 ownerId = 0;
    common::u64 holderId = 0;
    Key key;
  };
  /// Scans placement vs the rule and emits the fix-ups that would make
  /// checkReplication() pass. Assumes no crashes pending (post-excision);
  /// caller holds topoMutex_ plus the store stripes (or the exclusive
  /// lock).
  void collectRepairActions(std::vector<RepairAction>& out) const;
  /// Routes from a (random or fixed) entry peer to the node owning ring
  /// id `keyId`, accounting hops and messages. Returns the owner node id.
  common::u64 routeTo(common::u64 keyId, u64 requestBytes);

  Options opts_;
  std::map<common::u64, Node> nodes_;  // ordered by ring id
  /// Peers that crashed and await excision by repairStep(). Guarded by
  /// topoMutex_ like the node map it shadows.
  std::set<net::PeerId> crashedPeers_;
  common::u64 lostKeys_ = 0;  ///< keys destroyed with no surviving replica
};

}  // namespace lht::dht
