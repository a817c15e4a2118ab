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
// Thread safety (DESIGN.md §10): topology (the node map, fingers) is
// guarded by a shared mutex — routed ops hold it shared for their whole
// duration, membership changes hold it exclusive. Per-node key stores are
// guarded by a striped mutex keyed by OWNER NODE ID (not raw key: one
// node's unordered_map is a single object, so the stripe must cover the
// whole node). Ops touching several nodes (replica pushes) take their
// stripes via deadlock-free MultiGuard; membership changes need no stripe
// locks because the exclusive topology lock already excludes every routed
// op.
#pragma once

#include <map>
#include <set>
#include <shared_mutex>
#include <vector>

#include "common/random.h"
#include "common/striped_mutex.h"
#include "dht/dht.h"
#include "net/sim_network.h"
#include "store/mem_table.h"

namespace lht::dht {

class ChordDht final : public Dht {
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

  // Dht interface ----------------------------------------------------------
  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;
  void storeDirect(const Key& key, Value value) override;
  [[nodiscard]] size_t size() const override;

  // Membership -------------------------------------------------------------
  /// Adds a peer named `name` (with Options::virtualNodes ring points);
  /// keys it now owns move from their previous successors. Returns the
  /// peer's first ring identifier.
  common::u64 join(const std::string& name);

  /// Gracefully removes the *peer* owning ring id `nodeId` — all of its
  /// virtual nodes leave together and its keys move to their new owners.
  /// Requires at least two peers.
  void leave(common::u64 nodeId);

  /// Ungraceful failure of the peer owning ring id `nodeId`: it vanishes
  /// without handing anything off. Surviving replicas
  /// (Options::replication >= 2) are promoted on the new owners; without
  /// replication the failed peer's keys are lost. Requires >= two peers.
  /// Recovery is INSTANT — fail() models a ring whose stabilization
  /// outruns the observer. Use crash() to model the window in between.
  void fail(common::u64 nodeId);

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

  /// Ring ids of all current peers (sorted).
  [[nodiscard]] std::vector<common::u64> nodeIds() const;

  /// Ring id of the peer that owns `key` (no routing, no accounting).
  [[nodiscard]] common::u64 ownerOf(const Key& key) const;

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
  struct Node {
    common::u64 id = 0;
    net::PeerId peer = net::kInvalidPeer;
    std::vector<common::u64> fingers;  // finger[k] = successor(id + 2^k)
    store::MemTable store;     // keys this node owns
    store::MemTable replicas;  // copies held for predecessors
    /// Reads this node served (primary or as replica holder). Guarded by
    /// the node's store stripe, like the tables it measures.
    common::u64 servedReads = 0;
  };

  // Every private helper below assumes topoMutex_ is held (shared suffices
  // unless noted); helpers that read/write node stores additionally expect
  // the caller to hold the relevant store stripes — or the exclusive
  // topology lock, which subsumes them.
  Node& nodeById(common::u64 id);
  const Node& nodeById(common::u64 id) const;
  [[nodiscard]] common::u64 successorOf(common::u64 id) const;  // first id > given (wrap)
  [[nodiscard]] common::u64 ownerOfId(common::u64 keyId) const;
  [[nodiscard]] size_t peerCountUnlocked() const;
  void rebuildFingers();
  /// Removes all ring nodes of the peer owning `nodeId`. Gracefully
  /// re-homes their primaries (leave) or drops them and recovers from
  /// replicas (fail). Requires the exclusive topology lock.
  void removePeerLocked(common::u64 nodeId, bool graceful);
  /// The `count` ring nodes following `id` clockwise that belong to a
  /// *different peer* than `id` (replicas on one's own virtual nodes would
  /// not survive that peer's failure).
  [[nodiscard]] std::vector<common::u64> successorsOf(common::u64 id,
                                                      size_t count) const;
  /// The stripe set a write to `key`'s owner must hold: the owner node
  /// plus its replica holders.
  [[nodiscard]] std::vector<common::u64> writeSetOf(common::u64 ownerId) const;
  /// Pushes fresh copies of (key, value) from its owner to the replica set.
  void pushReplicas(const Node& owner, const Key& key, const Value& value);
  /// Drops `key`'s replicas from its owner's replica holders (the only
  /// nodes that can hold them between membership changes).
  void dropReplicas(common::u64 ownerId, const Key& key);
  /// Recomputes every replica placement from the primaries (after churn).
  /// Requires the exclusive topology lock.
  void rebuildReplicas();
  /// Whether the node's peer is crashed (caller holds topoMutex_).
  [[nodiscard]] bool nodeDown(const Node& node) const {
    return crashedPeers_.count(node.peer) != 0;
  }
  /// Throws DhtPeerDownError when the routed-to owner is dark.
  void throwIfDown(common::u64 ownerId, const char* op) const;
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
  /// Routes from a (random or fixed) entry peer to the owner of keyId,
  /// accounting hops and messages. Returns the owner node id.
  common::u64 route(common::u64 keyId, u64 requestBytes);
  void accountValueBytes(u64 n) { stats_.valueBytesMoved += n; }

  net::SimNetwork& net_;
  Options opts_;
  common::Pcg32 rng_;
  std::map<common::u64, Node> nodes_;  // ordered by ring id
  /// Peers that crashed and await excision by repairStep(). Guarded by
  /// topoMutex_ like the node map it shadows.
  std::set<net::PeerId> crashedPeers_;
  common::u64 lostKeys_ = 0;  ///< keys destroyed with no surviving replica

  /// Routed ops shared, membership exclusive.
  mutable std::shared_mutex topoMutex_;
  /// Per-node store/replica maps, striped by owner node id.
  mutable common::StripedMutex storeLocks_{64};
  /// Entry-point randomness; Pcg32 is not concurrency-safe.
  mutable std::mutex rngMutex_;
};

}  // namespace lht::dht
