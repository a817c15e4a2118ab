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
    : Dht(network),
      net_(network),
      opts_(options),
      rng_(options.seed, /*stream=*/0x6b6164u) {
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
  node.id = id;
  node.peer = net_.addPeer(name);
  nodes_.emplace(id, std::move(node));
  rebuildBuckets();
  rehomeAllKeys();
  rebuildReplicas();
  return id;
}

void KademliaDht::leave(u64 nodeId) {
  std::unique_lock topo(topoMutex_);
  common::checkInvariant(nodes_.size() >= 2, "KademliaDht::leave: last peer");
  auto it = nodes_.find(nodeId);
  common::checkInvariant(it != nodes_.end(), "KademliaDht::leave: unknown node");
  // Park the departing node's keys, drop it, then re-home.
  auto orphans = it->second.store.drain();
  net::PeerId fromPeer = it->second.peer;
  net_.setOnline(fromPeer, false);
  nodes_.erase(it);
  rebuildBuckets();
  for (auto& [k, v] : orphans) {
    Node& owner = nodeById(ownerOfId(common::hash::xxhash64(k, 0)));
    net_.send(fromPeer, owner.peer, k.size() + v.size());
    owner.store.put(k, std::move(v));
  }
  rehomeAllKeys();
  rebuildReplicas();
}

void KademliaDht::fail(u64 nodeId) {
  std::unique_lock topo(topoMutex_);
  common::checkInvariant(nodes_.size() >= 2, "KademliaDht::fail: last peer");
  auto it = nodes_.find(nodeId);
  common::checkInvariant(it != nodes_.end(), "KademliaDht::fail: unknown node");
  // The peer vanishes with its primaries and replicas; nothing is handed
  // off. (Removal cannot change the XOR-closest node of keys stored on
  // the survivors, so no re-homing is needed.)
  net_.setOnline(it->second.peer, false);
  nodes_.erase(it);
  rebuildBuckets();
  // Promote surviving replicas whose primary died onto the new owners.
  std::vector<std::pair<Key, Value>> recovered;
  for (auto& [id, node] : nodes_) {
    node.replicas.forEach([&](const Key& k, const Value& v) {
      if (!nodeById(ownerOfId(common::hash::xxhash64(k, 0))).store.contains(k)) {
        recovered.emplace_back(k, v);
      }
    });
  }
  for (auto& [k, v] : recovered) {
    Node& owner = nodeById(ownerOfId(common::hash::xxhash64(k, 0)));
    if (!owner.store.contains(k)) owner.store.put(k, std::move(v));
  }
  rebuildReplicas();
}

std::vector<u64> KademliaDht::replicaHoldersOf(u64 ownerId) const {
  std::vector<u64> out;
  if (opts_.replication <= 1) return out;
  const size_t want = std::min(opts_.replication, nodes_.size()) - 1;
  out.reserve(nodes_.size() - 1);
  for (const auto& [id, n] : nodes_) {
    if (id != ownerId) out.push_back(id);
  }
  std::sort(out.begin(), out.end(),
            [ownerId](u64 a, u64 b) { return (a ^ ownerId) < (b ^ ownerId); });
  out.resize(want);
  return out;
}

std::vector<u64> KademliaDht::writeSetOf(u64 ownerId) const {
  std::vector<u64> set{ownerId};
  for (u64 hid : replicaHoldersOf(ownerId)) set.push_back(hid);
  return set;
}

void KademliaDht::pushReplicas(const Node& owner, const Key& key,
                               const Value& value) {
  for (u64 hid : replicaHoldersOf(owner.id)) {
    Node& holder = nodeById(hid);
    net_.send(owner.peer, holder.peer, key.size() + value.size());
    holder.replicas.put(key, value);
  }
}

void KademliaDht::dropReplicas(u64 ownerId, const Key& key) {
  for (u64 hid : replicaHoldersOf(ownerId)) {
    nodeById(hid).replicas.erase(key);
  }
}

void KademliaDht::rebuildReplicas() {
  if (opts_.replication <= 1) return;
  for (auto& [id, node] : nodes_) node.replicas.clear();
  for (auto& [id, node] : nodes_) {
    node.store.forEach(
        [&](const Key& k, const Value& v) { pushReplicas(node, k, v); });
  }
}

std::vector<u64> KademliaDht::nodeIds() const {
  std::shared_lock topo(topoMutex_);
  std::vector<u64> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) ids.push_back(id);
  return ids;
}

u64 KademliaDht::ownerOf(const Key& key) const {
  std::shared_lock topo(topoMutex_);
  return ownerOfId(common::hash::xxhash64(key, 0));
}

KademliaDht::Node& KademliaDht::nodeById(u64 id) {
  auto it = nodes_.find(id);
  common::checkInvariant(it != nodes_.end(), "KademliaDht: unknown node id");
  return it->second;
}

const KademliaDht::Node& KademliaDht::nodeById(u64 id) const {
  auto it = nodes_.find(id);
  common::checkInvariant(it != nodes_.end(), "KademliaDht: unknown node id");
  return it->second;
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

void KademliaDht::rehomeAllKeys() {
  // After membership changes, move any key whose closest node changed.
  std::vector<std::pair<Key, Value>> moving;
  for (auto& [id, node] : nodes_) {
    std::vector<Key> out;
    node.store.forEach([&, nodeId = id](const Key& k, const Value&) {
      if (ownerOfId(common::hash::xxhash64(k, 0)) != nodeId) out.push_back(k);
    });
    for (const auto& k : out) {
      moving.emplace_back(k, std::move(*node.store.take(k)));
    }
  }
  for (auto& [k, v] : moving) {
    nodeById(ownerOfId(common::hash::xxhash64(k, 0))).store.put(k, std::move(v));
  }
}

u64 KademliaDht::route(u64 keyId, u64 requestBytes) {
  common::checkInvariant(!nodes_.empty(), "KademliaDht: no peers");
  stats_.lookups += 1;
  auto it = nodes_.begin();
  if (opts_.randomEntry && nodes_.size() > 1) {
    common::u32 skip;
    {
      std::lock_guard rngLock(rngMutex_);
      skip = rng_.below(static_cast<common::u32>(nodes_.size()));
    }
    std::advance(it, skip);
  }
  u64 cur = it->first;
  stats_.hops += 1;  // client -> entry peer

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
    net_.send(node.peer, nodeById(next).peer, requestBytes);
    stats_.hops += 1;
    cur = next;
  }
}

void KademliaDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  stats_.puts += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size() + value.size());
  stats_.valueBytesMoved += value.size();
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Node& node = nodeById(owner);
  pushReplicas(node, key, value);
  node.store.put(key, std::move(value));
}

std::optional<Value> KademliaDht::get(const Key& key) {
  RoutedOpScope scope(*this, "dht.get", key);
  stats_.gets += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size());
  auto lock = storeLocks_.guard(owner);
  const Node& node = nodeById(owner);
  const Value* v = node.store.find(key);
  if (v == nullptr) return std::nullopt;
  stats_.valueBytesMoved += v->size();
  return *v;
}

bool KademliaDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  stats_.removes += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size());
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  const bool existed = nodeById(owner).store.erase(key);
  if (existed) dropReplicas(owner, key);
  return existed;
}

bool KademliaDht::apply(const Key& key, const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  stats_.applies += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size());
  // Mutator runs under the owner's stripe: atomic per key.
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Node& node = nodeById(owner);
  std::optional<Value> v = node.store.take(key);
  const bool existed = v.has_value();
  fn(v);
  if (v.has_value()) {
    stats_.valueBytesMoved += v->size();
    pushReplicas(node, key, *v);
    node.store.put(key, std::move(*v));
  } else if (existed) {
    dropReplicas(owner, key);
  }
  return existed;
}

void KademliaDht::storeDirect(const Key& key, Value value) {
  std::shared_lock topo(topoMutex_);
  const u64 owner = ownerOfId(common::hash::xxhash64(key, 0));
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Node& node = nodeById(owner);
  pushReplicas(node, key, value);
  node.store.put(key, std::move(value));
}

size_t KademliaDht::size() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  size_t n = 0;
  for (const auto& [id, node] : nodes_) n += node.store.size();
  return n;
}

bool KademliaDht::checkTables() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  for (const auto& [id, node] : nodes_) {
    bool placed = true;
    node.store.forEach([&, nodeId = id](const Key& k, const Value&) {
      if (ownerOfId(common::hash::xxhash64(k, 0)) != nodeId) placed = false;
    });
    if (!placed) return false;
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
