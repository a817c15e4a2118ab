// Kademlia-style XOR-metric DHT.
//
// Second substrate, included to demonstrate the paper's claim that LHT "is
// adaptable to any DHT substrate": the index layers run unchanged on either
// geometry. Keys live on the peer whose identifier minimizes XOR distance;
// routing greedily fixes the highest differing bit via k-buckets, giving
// O(log N) hops. Buckets are rebuilt from global membership after every
// join/leave (the simulator plays omniscient bootstrap server), which keeps
// routing exact: greedy descent provably terminates at the XOR-closest peer
// because a bucket is empty only when its whole subtree is empty.
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

class KademliaDht final : public Dht {
 public:
  struct Options {
    size_t initialPeers = 32;
    common::u64 seed = 1;
    size_t bucketSize = 8;  ///< k: max contacts kept per bucket
    bool randomEntry = true;
    /// Copies of every key (1 = none). With r >= 2 each key is also held
    /// by the r-1 nodes XOR-closest to its owner, so data survives an
    /// ungraceful failure (see fail()).
    size_t replication = 1;
  };

  KademliaDht(net::SimNetwork& network, Options options);

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;
  void storeDirect(const Key& key, Value value) override;
  [[nodiscard]] size_t size() const override;

  /// Adds a peer; keys now XOR-closest to it move over. Returns its id.
  common::u64 join(const std::string& name);
  /// Removes a peer; its keys re-home to their new closest owners.
  void leave(common::u64 nodeId);
  /// Ungraceful failure: the peer vanishes without handing anything off.
  /// Surviving replicas (Options::replication >= 2) are promoted on the
  /// new owners; without replication its keys are lost.
  void fail(common::u64 nodeId);

  [[nodiscard]] std::vector<common::u64> nodeIds() const;
  [[nodiscard]] common::u64 ownerOf(const Key& key) const;

  /// Validates bucket invariants and key placement; used by tests.
  [[nodiscard]] bool checkTables() const;

 private:
  struct Node {
    common::u64 id = 0;
    net::PeerId peer = net::kInvalidPeer;
    // buckets[b] = up to k contacts whose id differs from ours first at
    // bit b (bit 63 = most significant), ordered by XOR-closeness to us.
    std::vector<std::vector<common::u64>> buckets;
    store::MemTable store;
    store::MemTable replicas;  ///< copies held for other owners
  };

  // Private helpers assume topoMutex_ held; store accesses additionally
  // need the owner's stripe (or the exclusive topology lock).
  Node& nodeById(common::u64 id);
  const Node& nodeById(common::u64 id) const;
  [[nodiscard]] common::u64 ownerOfId(common::u64 keyId) const;
  void rebuildBuckets();
  void rehomeAllKeys();
  /// The replication-1 nodes XOR-closest to `ownerId` (excluding it) —
  /// the holders of its keys' replica copies.
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
