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
// Storage, replication, churn handling and locking are SimDht's; a node
// is a peer, and its id the peer id.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "dht/sim_dht.h"

namespace lht::dht {

class CanDht final : public SimDht {
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

  /// Adds a peer: splits the zone containing its random point.
  common::u64 join(const std::string& name);

  [[nodiscard]] size_t peerCount() const;
  /// Peer ids, sorted (nodeIds() by CAN's name).
  [[nodiscard]] std::vector<common::u64> peerIds() const { return nodeIds(); }

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

  struct PeerState : Tables {
    ZNode* zone = nullptr;
    std::vector<common::u64> neighbors;  // owners of edge-adjacent zones
  };

  common::u64 route(const Key& key, u64 requestBytes) override;
  [[nodiscard]] common::u64 ownerOfUnlocked(const Key& key) const override;
  /// The replication-1 peers holding copies of `ownerId`'s keys: its
  /// lowest-id zone neighbors, padded from the sorted peer list.
  [[nodiscard]] std::vector<common::u64> replicaHoldersOf(
      common::u64 ownerId) const override;
  [[nodiscard]] std::vector<common::u64> nodeIdsUnlocked() const override {
    return keysOf(owners_);
  }
  Tables& tablesOf(common::u64 id) override { return peer(id); }
  [[nodiscard]] const Tables& tablesOf(common::u64 id) const override {
    return peer(id);
  }
  /// Zone takeover: merge with the sibling zone if it is undivided, else
  /// the deepest sibling pair donates a peer. Keys the takeover displaces
  /// re-home in SimDht's resettle().
  Departure detach(common::u64 peerId, bool graceful) override;

  static void keyPoint(const Key& key, double& x, double& y);
  [[nodiscard]] ZNode* zoneAt(double x, double y) const;
  [[nodiscard]] common::u64 ownerAt(double x, double y) const;
  void splitZone(ZNode* leaf, common::u64 newOwner, double px, double py);
  [[nodiscard]] ZNode* deepestLeafPair() const;
  void collectLeaves(ZNode* node, std::vector<ZNode*>& out) const;
  void rebuildNeighbors();
  /// Torus distance from point to rectangle (0 when inside).
  [[nodiscard]] static double torusDistToRect(double x, double y, const ZRect& r);
  PeerState& peer(common::u64 id) { return nodeIn(owners_, id); }
  const PeerState& peer(common::u64 id) const { return nodeIn(owners_, id); }

  Options opts_;
  std::unique_ptr<ZNode> root_;
  /// Its iteration order picks the random entry peer.
  std::unordered_map<common::u64, PeerState> owners_;
  common::u64 nextPeerId_ = 1;
};

}  // namespace lht::dht
