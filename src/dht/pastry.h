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
// Thread safety (DESIGN.md §10): shared mutex on topology (routed ops
// shared, join/leave exclusive), striped store locks keyed by owner node
// id, a small mutex around the entry-point rng.
#pragma once

#include <map>
#include <shared_mutex>
#include <vector>

#include "common/random.h"
#include "common/striped_mutex.h"
#include "dht/dht.h"
#include "net/sim_network.h"
#include "store/mem_table.h"

namespace lht::dht {

class PastryDht final : public Dht {
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

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;
  void storeDirect(const Key& key, Value value) override;
  [[nodiscard]] size_t size() const override;

  /// Adds a peer; keys it now owns move over. Returns its id.
  common::u64 join(const std::string& name);
  /// Gracefully removes a peer; its keys move to their new owners.
  void leave(common::u64 nodeId);
  /// Ungraceful failure: the peer vanishes without handing anything off.
  /// Surviving replicas (Options::replication >= 2) are promoted on the
  /// new owners; without replication its keys are lost.
  void fail(common::u64 nodeId);

  [[nodiscard]] std::vector<common::u64> nodeIds() const;
  [[nodiscard]] common::u64 ownerOf(const Key& key) const;

  /// Validates routing-table and leaf-set invariants plus key placement.
  [[nodiscard]] bool checkTables() const;

 private:
  struct Node {
    common::u64 id = 0;
    net::PeerId peer = net::kInvalidPeer;
    // routing[l][d]: a node sharing l leading hex digits, digit d at l.
    // 0 is used as "empty" (node ids of 0 are excluded at join).
    common::u64 routing[16][16] = {};
    std::vector<common::u64> leafSet;  // sorted circular neighbors, both sides
    store::MemTable store;
    store::MemTable replicas;  ///< copies held for other owners
  };

  // Private helpers assume topoMutex_ held; store accesses additionally
  // need the owner's stripe (or the exclusive topology lock).
  Node& nodeById(common::u64 id);
  const Node& nodeById(common::u64 id) const;
  [[nodiscard]] common::u64 ownerOfId(common::u64 keyId) const;
  [[nodiscard]] std::vector<common::u64> nodeIdsUnlocked() const;
  void rebuildTables();
  void rehomeAllKeys();
  /// The replication-1 nodes numerically closest to `ownerId` (excluding
  /// it) — the holders of its keys' replica copies.
  [[nodiscard]] std::vector<common::u64> replicaHoldersOf(
      common::u64 ownerId) const;
  /// The stripe set a write to `ownerId` must hold: owner plus holders.
  [[nodiscard]] std::vector<common::u64> writeSetOf(common::u64 ownerId) const;
  void pushReplicas(const Node& owner, const Key& key, const Value& value);
  void dropReplicas(common::u64 ownerId, const Key& key);
  /// Recomputes every replica placement from the primaries (after churn).
  /// Requires the exclusive topology lock.
  void rebuildReplicas();
  common::u64 route(common::u64 keyId, u64 requestBytes);

  net::SimNetwork& net_;
  Options opts_;
  common::Pcg32 rng_;
  std::map<common::u64, Node> nodes_;

  mutable std::shared_mutex topoMutex_;
  mutable common::StripedMutex storeLocks_{64};
  mutable std::mutex rngMutex_;
};

}  // namespace lht::dht
