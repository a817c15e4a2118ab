// CAN — Content-Addressable Network substrate (Ratnasamy et al. [17]).
//
// Fourth substrate, completing the paper's list of DHT families (ring,
// XOR, prefix, coordinate space). Keys hash to points in a 2-d unit torus;
// each peer owns a rectangular zone of a binary space partition. Routing
// is greedy geographic forwarding through zone neighbors (O(sqrt N) hops
// for 2 dimensions — CAN's signature trade-off, visibly costlier than the
// logarithmic substrates in examples/substrate_comparison).
//
// Zones are managed with CAN's real protocol shapes: a join splits the
// zone containing the joiner's point along its longer side; a leave uses
// CAN's takeover rule — merge with the sibling zone if it is undivided,
// otherwise the deepest sibling *pair* donates one peer to adopt the
// vacated zone, so zones always remain rectangles of the partition tree.
// Thread safety (DESIGN.md §10): shared mutex on the zone tree + peer map
// (routed ops shared, join/leave exclusive), striped store locks keyed by
// peer id, a small mutex around the entry-point rng.
#pragma once

#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/striped_mutex.h"
#include "dht/dht.h"
#include "net/sim_network.h"
#include "store/mem_table.h"

namespace lht::dht {

class CanDht final : public Dht {
 public:
  struct Options {
    size_t initialPeers = 32;
    common::u64 seed = 1;
    bool randomEntry = true;
    /// Copies of every key (1 = none). With r >= 2 each key is also held
    /// by r-1 of its owner's zone neighbors (lowest peer ids, padded from
    /// the global peer list when the zone has too few neighbors), so data
    /// survives an ungraceful failure (see fail()).
    size_t replication = 1;
  };

  CanDht(net::SimNetwork& network, Options options);

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;
  void storeDirect(const Key& key, Value value) override;
  [[nodiscard]] size_t size() const override;

  /// Adds a peer: splits the zone containing its random point.
  common::u64 join(const std::string& name);
  /// Removes a peer via CAN's takeover rule. Requires >= 2 peers.
  void leave(common::u64 peerId);
  /// Ungraceful failure: the zone is taken over but the peer's data is
  /// gone. Surviving replicas (Options::replication >= 2) are promoted on
  /// the new owners; without replication its keys are lost.
  void fail(common::u64 peerId);

  [[nodiscard]] size_t peerCount() const;
  [[nodiscard]] std::vector<common::u64> peerIds() const;
  [[nodiscard]] common::u64 ownerOf(const Key& key) const;

  /// Validates the partition (zones tile the torus exactly, one zone per
  /// peer, every key in the right zone, neighbor lists symmetric).
  [[nodiscard]] bool checkZones() const;

 private:
  /// Axis-aligned zone rectangle, half-open.
  struct ZRect {
    double xlo = 0, xhi = 1, ylo = 0, yhi = 1;
    [[nodiscard]] bool contains(double x, double y) const {
      return x >= xlo && x < xhi && y >= ylo && y < yhi;
    }
  };

  /// Node of the zone partition tree; leaves are live zones.
  struct ZNode {
    ZRect rect;
    int splitDim = -1;  // -1: leaf
    std::unique_ptr<ZNode> left, right;
    ZNode* parent = nullptr;
    common::u64 owner = 0;  // leaves only
  };

  struct PeerState {
    net::PeerId netId = net::kInvalidPeer;
    ZNode* zone = nullptr;
    store::MemTable store;
    store::MemTable replicas;  ///< copies held for other owners
    std::vector<common::u64> neighbors;  // owners of edge-adjacent zones
  };

  // Private helpers assume topoMutex_ held; store accesses additionally
  // need the owner's stripe (or the exclusive topology lock).
  static void keyPoint(const Key& key, double& x, double& y);
  [[nodiscard]] common::u64 ownerOfUnlocked(const Key& key) const;
  [[nodiscard]] ZNode* zoneAt(double x, double y) const;
  [[nodiscard]] common::u64 ownerAt(double x, double y) const;
  void splitZone(ZNode* leaf, common::u64 newOwner, double px, double py);
  [[nodiscard]] ZNode* deepestLeafPair() const;
  void collectLeaves(ZNode* node, std::vector<ZNode*>& out) const;
  void rebuildNeighbors();
  void rehomeAllKeys();
  /// Zone takeover shared by leave (graceful) and fail: re-homes the
  /// departing peer's primaries when graceful, otherwise drops them and
  /// promotes surviving replicas. Requires the exclusive topology lock.
  void removePeerLocked(common::u64 peerId, bool graceful);
  /// The replication-1 peers holding copies of `ownerId`'s keys: its
  /// lowest-id zone neighbors, padded from the sorted peer list.
  [[nodiscard]] std::vector<common::u64> replicaHoldersOf(
      common::u64 ownerId) const;
  /// The stripe set a write to `ownerId` must hold: owner plus holders.
  [[nodiscard]] std::vector<common::u64> writeSetOf(common::u64 ownerId) const;
  void pushReplicas(const PeerState& owner, common::u64 ownerId,
                    const Key& key, const Value& value);
  void dropReplicas(common::u64 ownerId, const Key& key);
  /// Recomputes every replica placement from the primaries (after churn).
  /// Requires the exclusive topology lock.
  void rebuildReplicas();
  /// Torus distance from point to rectangle (0 when inside).
  [[nodiscard]] static double torusDistToRect(double x, double y, const ZRect& r);
  common::u64 route(double x, double y, u64 requestBytes);
  PeerState& peer(common::u64 id);
  const PeerState& peer(common::u64 id) const;

  net::SimNetwork& net_;
  Options opts_;
  common::Pcg32 rng_;
  std::unique_ptr<ZNode> root_;
  std::unordered_map<common::u64, PeerState> owners_;
  common::u64 nextPeerId_ = 1;

  mutable std::shared_mutex topoMutex_;
  mutable common::StripedMutex storeLocks_{64};
  mutable std::mutex rngMutex_;
};

}  // namespace lht::dht
