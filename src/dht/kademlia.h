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
// Storage, replication, churn handling and locking are SimDht's.
#pragma once

#include <map>
#include <vector>

#include "dht/sim_dht.h"

namespace lht::dht {

class KademliaDht final : public SimDht {
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

  /// Adds a peer; keys now XOR-closest to it move over. Returns its id.
  common::u64 join(const std::string& name);

  /// Validates bucket invariants and key placement; used by tests.
  [[nodiscard]] bool checkTables() const;

 private:
  struct Node : Tables {
    // buckets[b] = up to k contacts whose id differs from ours first at
    // bit b (bit 63 = most significant), ordered by XOR-closeness to us.
    std::vector<std::vector<common::u64>> buckets;
  };

  common::u64 route(const Key& key, u64 requestBytes) override;
  [[nodiscard]] common::u64 ownerOfUnlocked(const Key& key) const override;
  /// The replication-1 nodes XOR-closest to `ownerId`.
  [[nodiscard]] std::vector<common::u64> replicaHoldersOf(
      common::u64 ownerId) const override;
  [[nodiscard]] std::vector<common::u64> nodeIdsUnlocked() const override {
    return keysOf(nodes_);
  }
  Tables& tablesOf(common::u64 id) override { return nodeById(id); }
  [[nodiscard]] const Tables& tablesOf(common::u64 id) const override {
    return nodeById(id);
  }
  /// Removing a node cannot change the XOR-closest node of keys stored
  /// on the survivors, so only its own keys move.
  Departure detach(common::u64 nodeId, bool graceful) override;

  Node& nodeById(common::u64 id) { return nodeIn(nodes_, id); }
  const Node& nodeById(common::u64 id) const { return nodeIn(nodes_, id); }
  [[nodiscard]] common::u64 ownerOfId(common::u64 keyId) const;
  void rebuildBuckets();

  Options opts_;
  std::map<common::u64, Node> nodes_;
};

}  // namespace lht::dht
