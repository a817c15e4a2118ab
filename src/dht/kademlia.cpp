#include "dht/kademlia.h"


#include <algorithm>
#include <bit>

#include "common/hash.h"

namespace lht::dht {

using common::u64;

namespace {
/// Index of the highest bit where a and b differ; requires a != b.
int topDifferingBit(u64 a, u64 b) { return 63 - std::countl_zero(a ^ b); }
}  // namespace

KademliaDht::KademliaDht(net::SimNetwork& network, Options options)
    : SimDht(network, options.replication, options.randomEntry, options.seed,
             /*rngStream=*/0x6b6164u),
      opts_(options) {
  common::checkInvariant(opts_.initialPeers >= 1, "KademliaDht: need >= 1 peer");
  common::checkInvariant(opts_.bucketSize >= 1, "KademliaDht: k must be >= 1");
  for (size_t i = 0; i < opts_.initialPeers; ++i) {
    join("kad-peer-" + std::to_string(i));
  }
}

u64 KademliaDht::join(const std::string& name) {
  std::unique_lock topo(topoMutex_);
  u64 id = common::hash::xxhash64(name, opts_.seed ^ 0x6b61646cull);
  while (nodes_.count(id) != 0) id = common::hash::splitmix64(id);
  Node node;
  node.peer = net_.addPeer(name);
  nodes_.emplace(id, std::move(node));
  rebuildBuckets();
  resettle(/*ship=*/false);
  return id;
}

SimDht::Departure KademliaDht::detach(u64 nodeId, bool graceful) {
  common::checkInvariant(nodes_.size() >= 2, "KademliaDht: last peer");
  auto it = nodes_.find(nodeId);
  common::checkInvariant(it != nodes_.end(), "KademliaDht: unknown node");
  Departure gone{it->second.peer, {}};
  if (graceful) gone.primaries = it->second.store.drain();
  nodes_.erase(it);
  rebuildBuckets();
  return gone;
}

std::vector<u64> KademliaDht::replicaHoldersOf(u64 ownerId) const {
  return nearestOthers(ownerId, [ownerId](u64 a, u64 b) {
    return (a ^ ownerId) < (b ^ ownerId);
  });
}

u64 KademliaDht::ownerOfUnlocked(const Key& key) const {
  return ownerOfId(common::hash::xxhash64(key, 0));
}

u64 KademliaDht::ownerOfId(u64 keyId) const {
  u64 best = 0;
  u64 bestDist = ~0ull;
  bool first = true;
  for (const auto& [id, n] : nodes_) {
    u64 d = id ^ keyId;
    if (first || d < bestDist) {
      best = id;
      bestDist = d;
      first = false;
    }
  }
  return best;
}

void KademliaDht::rebuildBuckets() {
  for (auto& [id, node] : nodes_) {
    node.buckets.assign(64, {});
    for (const auto& [oid, other] : nodes_) {
      if (oid == id) continue;
      node.buckets[static_cast<size_t>(topDifferingBit(id, oid))].push_back(oid);
    }
    for (auto& bucket : node.buckets) {
      std::sort(bucket.begin(), bucket.end(),
                [id = id](u64 a, u64 b) { return (a ^ id) < (b ^ id); });
      if (bucket.size() > opts_.bucketSize) bucket.resize(opts_.bucketSize);
    }
  }
}

u64 KademliaDht::route(const Key& key, u64 requestBytes) {
  const u64 keyId = common::hash::xxhash64(key, 0);
  u64 cur = enter(nodes_)->first;

  // Greedy descent: each node forwards to the contact in its routing table
  // closest to the target, stopping when no contact is strictly closer.
  // This provably terminates at the XOR-closest peer: if a closer peer o
  // exists, the bucket for topDifferingBit(cur, o) is non-empty and every
  // entry in it matches the key at that bit, hence is strictly closer.
  for (;;) {
    if (cur == keyId) return cur;
    const Node& node = nodeById(cur);
    u64 next = cur;
    u64 nextDist = cur ^ keyId;
    for (const auto& bucket : node.buckets) {
      for (u64 cand : bucket) {
        if ((cand ^ keyId) < nextDist) {
          next = cand;
          nextDist = cand ^ keyId;
        }
      }
    }
    if (next == cur) return cur;  // local minimum == global owner
    hop(node.peer, nodeById(next).peer, requestBytes);
    cur = next;
  }
}

bool KademliaDht::checkTables() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  if (!primariesPlaced()) return false;
  for (const auto& [id, node] : nodes_) {
    if (node.buckets.size() != 64) return false;
    for (size_t b = 0; b < 64; ++b) {
      for (u64 contact : node.buckets[b]) {
        if (nodes_.count(contact) == 0) return false;
        if (static_cast<size_t>(topDifferingBit(id, contact)) != b) return false;
      }
      if (node.buckets[b].size() > opts_.bucketSize) return false;
    }
  }
  return true;
}

}  // namespace lht::dht
