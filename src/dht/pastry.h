// Pastry-style prefix-routing DHT (Rowstron & Druschel, [20] in the paper).
//
// Third substrate, completing the paper's list of deployment targets
// (Chord-like ring, Kademlia XOR space, Pastry prefix routing). Peer ids
// are 64-bit, read as 16 hexadecimal digits. A key belongs to the peer
// whose id is numerically closest on the circular id space. Each node
// keeps Pastry's two structures, built omnisciently by the simulator:
//
//  * a routing table: entry (row l, column d) is some node sharing the
//    first l digits with this node and having digit d at position l;
//  * a leaf set: the L/2 circularly nearest node ids on each side.
//
// Routing: if the key falls inside the leaf-set span, one hop to the
// numerically closest member finishes (the owner is provably inside the
// span). Otherwise forward via the routing-table entry matching one more
// digit of the key — the shared-prefix length grows every hop, so routing
// takes O(log_16 N) hops. When the required table entry's subtree is empty
// (Pastry's "rare case"), the simulator hands the message directly to the
// owner in one hop, standing in for Pastry's closest-known-node scan.
// Storage, replication, churn handling and locking are SimDht's.
#pragma once

#include <map>
#include <vector>

#include "dht/sim_dht.h"

namespace lht::dht {

class PastryDht final : public SimDht {
 public:
  struct Options {
    size_t initialPeers = 32;
    common::u64 seed = 1;
    size_t leafSetHalf = 4;  ///< L/2: leaf-set members per side
    bool randomEntry = true;
    /// Copies of every key (1 = none). With r >= 2 each key is also held
    /// by the r-1 nodes numerically closest to its owner (its nearest
    /// leaf-set members), so data survives an ungraceful failure.
    size_t replication = 1;
  };

  PastryDht(net::SimNetwork& network, Options options);

  /// Adds a peer; keys it now owns move over. Returns its id.
  common::u64 join(const std::string& name);

  /// Validates routing-table and leaf-set invariants plus key placement.
  [[nodiscard]] bool checkTables() const;

 private:
  struct Node : Tables {
    common::u64 id = 0;
    // routing[l][d]: a node sharing l leading hex digits, digit d at l.
    // 0 is used as "empty" (node ids of 0 are excluded at join).
    common::u64 routing[16][16] = {};
    std::vector<common::u64> leafSet;  // sorted circular neighbors, both sides
  };

  common::u64 route(const Key& key, u64 requestBytes) override;
  [[nodiscard]] common::u64 ownerOfUnlocked(const Key& key) const override;
  /// The replication-1 nodes numerically closest to `ownerId` (its
  /// nearest leaf-set members).
  [[nodiscard]] std::vector<common::u64> replicaHoldersOf(
      common::u64 ownerId) const override;
  [[nodiscard]] std::vector<common::u64> nodeIdsUnlocked() const override {
    return keysOf(nodes_);
  }
  Tables& tablesOf(common::u64 id) override { return nodeById(id); }
  [[nodiscard]] const Tables& tablesOf(common::u64 id) const override {
    return nodeById(id);
  }
  /// Removing a node cannot change the numerically closest node of keys
  /// stored on the survivors, so only its own keys move.
  Departure detach(common::u64 nodeId, bool graceful) override;

  Node& nodeById(common::u64 id) { return nodeIn(nodes_, id); }
  const Node& nodeById(common::u64 id) const { return nodeIn(nodes_, id); }
  [[nodiscard]] common::u64 ownerOfId(common::u64 keyId) const;
  void rebuildTables();

  Options opts_;
  std::map<common::u64, Node> nodes_;
};

}  // namespace lht::dht
