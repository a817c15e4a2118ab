#include "dht/pastry.h"


#include <algorithm>
#include <bit>

#include "common/hash.h"

namespace lht::dht {

using common::u32;
using common::u64;

namespace {

/// Hex digit `pos` of `id` (0 = most significant nibble).
u32 hexDigit(u64 id, u32 pos) { return static_cast<u32>((id >> (60 - 4 * pos)) & 0xF); }

/// Number of leading hex digits shared by a and b (16 when equal).
u32 sharedDigits(u64 a, u64 b) {
  if (a == b) return 16;
  return static_cast<u32>(std::countl_zero(a ^ b)) / 4;
}

/// Clockwise distance a -> b on the 2^64 circle.
u64 cwDist(u64 a, u64 b) { return b - a; }

/// Circular (undirected) distance.
u64 circDist(u64 a, u64 b) { return std::min(a - b, b - a); }

/// Ordering used for "numerically closest" with deterministic ties.
bool closerTo(u64 key, u64 a, u64 b) {
  const u64 da = circDist(a, key);
  const u64 db = circDist(b, key);
  if (da != db) return da < db;
  return a < b;
}

}  // namespace

PastryDht::PastryDht(net::SimNetwork& network, Options options)
    : Dht(network),
      net_(network),
      opts_(options),
      rng_(options.seed, /*stream=*/0x9a57u) {
  common::checkInvariant(opts_.initialPeers >= 1, "PastryDht: need >= 1 peer");
  common::checkInvariant(opts_.leafSetHalf >= 1, "PastryDht: leaf set empty");
  for (size_t i = 0; i < opts_.initialPeers; ++i) {
    join("pastry-peer-" + std::to_string(i));
  }
}

u64 PastryDht::join(const std::string& name) {
  std::unique_lock topo(topoMutex_);
  u64 id = common::hash::xxhash64(name, opts_.seed ^ 0x70617374ull);
  while (id == 0 || nodes_.count(id) != 0) id = common::hash::splitmix64(id);
  Node node;
  node.id = id;
  node.peer = net_.addPeer(name);
  nodes_.emplace(id, std::move(node));
  rebuildTables();
  rehomeAllKeys();
  rebuildReplicas();
  return id;
}

void PastryDht::leave(u64 nodeId) {
  std::unique_lock topo(topoMutex_);
  common::checkInvariant(nodes_.size() >= 2, "PastryDht::leave: last peer");
  auto it = nodes_.find(nodeId);
  common::checkInvariant(it != nodes_.end(), "PastryDht::leave: unknown node");
  auto orphans = it->second.store.drain();
  const net::PeerId fromPeer = it->second.peer;
  nodes_.erase(it);
  rebuildTables();
  for (auto& [k, v] : orphans) {
    Node& owner = nodeById(ownerOfId(common::hash::xxhash64(k, 0)));
    net_.send(fromPeer, owner.peer, k.size() + v.size());
    owner.store.put(k, std::move(v));
  }
  net_.setOnline(fromPeer, false);
  rehomeAllKeys();
  rebuildReplicas();
}

void PastryDht::fail(u64 nodeId) {
  std::unique_lock topo(topoMutex_);
  common::checkInvariant(nodes_.size() >= 2, "PastryDht::fail: last peer");
  auto it = nodes_.find(nodeId);
  common::checkInvariant(it != nodes_.end(), "PastryDht::fail: unknown node");
  // The peer vanishes with its primaries and replicas. (Removal cannot
  // change the numerically closest node of keys on the survivors, so no
  // re-homing is needed.)
  net_.setOnline(it->second.peer, false);
  nodes_.erase(it);
  rebuildTables();
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

std::vector<u64> PastryDht::replicaHoldersOf(u64 ownerId) const {
  std::vector<u64> out;
  if (opts_.replication <= 1) return out;
  const size_t want = std::min(opts_.replication, nodes_.size()) - 1;
  out.reserve(nodes_.size() - 1);
  for (const auto& [id, n] : nodes_) {
    if (id != ownerId) out.push_back(id);
  }
  std::sort(out.begin(), out.end(),
            [ownerId](u64 a, u64 b) { return closerTo(ownerId, a, b); });
  out.resize(want);
  return out;
}

std::vector<u64> PastryDht::writeSetOf(u64 ownerId) const {
  std::vector<u64> set{ownerId};
  for (u64 hid : replicaHoldersOf(ownerId)) set.push_back(hid);
  return set;
}

void PastryDht::pushReplicas(const Node& owner, const Key& key,
                             const Value& value) {
  for (u64 hid : replicaHoldersOf(owner.id)) {
    Node& holder = nodeById(hid);
    net_.send(owner.peer, holder.peer, key.size() + value.size());
    holder.replicas.put(key, value);
  }
}

void PastryDht::dropReplicas(u64 ownerId, const Key& key) {
  for (u64 hid : replicaHoldersOf(ownerId)) {
    nodeById(hid).replicas.erase(key);
  }
}

void PastryDht::rebuildReplicas() {
  if (opts_.replication <= 1) return;
  for (auto& [id, node] : nodes_) node.replicas.clear();
  for (auto& [id, node] : nodes_) {
    node.store.forEach(
        [&](const Key& k, const Value& v) { pushReplicas(node, k, v); });
  }
}

std::vector<u64> PastryDht::nodeIdsUnlocked() const {
  std::vector<u64> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) ids.push_back(id);
  return ids;
}

std::vector<u64> PastryDht::nodeIds() const {
  std::shared_lock topo(topoMutex_);
  return nodeIdsUnlocked();
}

u64 PastryDht::ownerOf(const Key& key) const {
  std::shared_lock topo(topoMutex_);
  return ownerOfId(common::hash::xxhash64(key, 0));
}

PastryDht::Node& PastryDht::nodeById(u64 id) {
  auto it = nodes_.find(id);
  common::checkInvariant(it != nodes_.end(), "PastryDht: unknown node id");
  return it->second;
}

const PastryDht::Node& PastryDht::nodeById(u64 id) const {
  auto it = nodes_.find(id);
  common::checkInvariant(it != nodes_.end(), "PastryDht: unknown node id");
  return it->second;
}

u64 PastryDht::ownerOfId(u64 keyId) const {
  // The numerically closest node is one of the two ring-adjacent nodes.
  auto succ = nodes_.lower_bound(keyId);
  if (succ == nodes_.end()) succ = nodes_.begin();
  auto pred = succ == nodes_.begin() ? std::prev(nodes_.end()) : std::prev(succ);
  return closerTo(keyId, pred->first, succ->first) ? pred->first : succ->first;
}

void PastryDht::rebuildTables() {
  // Sorted ids for leaf-set construction.
  std::vector<u64> ids = nodeIdsUnlocked();
  const size_t n = ids.size();
  const size_t half = std::min(opts_.leafSetHalf, n - 1);

  for (size_t i = 0; i < n; ++i) {
    Node& node = nodeById(ids[i]);
    node.leafSet.clear();
    for (size_t k = 1; k <= half; ++k) {
      node.leafSet.push_back(ids[(i + k) % n]);
      node.leafSet.push_back(ids[(i + n - k) % n]);
    }

    // Routing table: entry (l, d) = smallest node id extending this node's
    // l-digit prefix with digit d (0 = empty slot; id 0 never exists).
    for (u32 l = 0; l < 16; ++l) {
      const u64 prefixMask = l == 0 ? 0 : (~0ull << (64 - 4 * l));
      const u64 base = node.id & prefixMask;
      for (u32 d = 0; d < 16; ++d) {
        if (d == hexDigit(node.id, l)) {
          node.routing[l][d] = 0;  // own branch: handled by deeper rows
          continue;
        }
        const u64 lo = base | (static_cast<u64>(d) << (60 - 4 * l));
        auto it = nodes_.lower_bound(lo);
        if (it != nodes_.end() && sharedDigits(it->first, lo) >= l + 1) {
          node.routing[l][d] = it->first;
        } else {
          node.routing[l][d] = 0;
        }
      }
    }
  }
}

void PastryDht::rehomeAllKeys() {
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

u64 PastryDht::route(u64 keyId, u64 requestBytes) {
  common::checkInvariant(!nodes_.empty(), "PastryDht: no peers");
  stats_.lookups += 1;
  auto it = nodes_.begin();
  if (opts_.randomEntry && nodes_.size() > 1) {
    u32 skip;
    {
      std::lock_guard rngLock(rngMutex_);
      skip = rng_.below(static_cast<u32>(nodes_.size()));
    }
    std::advance(it, skip);
  }
  u64 cur = it->first;
  stats_.hops += 1;  // client -> entry peer

  for (;;) {
    const Node& node = nodeById(cur);
    if (node.leafSet.empty()) return cur;  // single node

    // Leaf-set phase: the span [furthest predecessor, furthest successor]
    // contains every node between its bounds, so if the key falls inside,
    // the numerically closest of leafSet ∪ {cur} is the global owner.
    u64 spanLo = cur, spanHi = cur;
    u64 bestLoDist = 0, bestHiDist = 0;
    for (u64 m : node.leafSet) {
      const u64 dPred = cwDist(m, cur);  // m -> cur clockwise: m precedes cur
      const u64 dSucc = cwDist(cur, m);
      if (dPred < dSucc) {
        if (dPred > bestLoDist) {
          bestLoDist = dPred;
          spanLo = m;
        }
      } else if (dSucc > bestHiDist) {
        bestHiDist = dSucc;
        spanHi = m;
      }
    }
    if (cwDist(spanLo, keyId) <= cwDist(spanLo, spanHi)) {
      u64 next = cur;
      for (u64 m : node.leafSet) {
        if (closerTo(keyId, m, next)) next = m;
      }
      if (next == cur) return cur;  // cur is the owner
      net_.send(node.peer, nodeById(next).peer, requestBytes);
      stats_.hops += 1;
      cur = next;
      continue;
    }

    // Prefix phase: extend the shared prefix by one digit.
    const u32 l = sharedDigits(cur, keyId);
    common::checkInvariant(l < 16, "PastryDht::route: key equals node id");
    const u64 next = node.routing[l][hexDigit(keyId, l)];
    if (next != 0) {
      net_.send(node.peer, nodeById(next).peer, requestBytes);
      stats_.hops += 1;
      cur = next;
      continue;
    }

    // Rare case (the digit's subtree is empty): Pastry scans all known
    // nodes for one numerically closer; the simulator stands in with a
    // single hop to the true owner.
    const u64 owner = ownerOfId(keyId);
    if (owner != cur) {
      net_.send(node.peer, nodeById(owner).peer, requestBytes);
      stats_.hops += 1;
    }
    return owner;
  }
}

void PastryDht::put(const Key& key, Value value) {
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

std::optional<Value> PastryDht::get(const Key& key) {
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

bool PastryDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  stats_.removes += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size());
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  const bool existed = nodeById(owner).store.erase(key);
  if (existed) dropReplicas(owner, key);
  return existed;
}

bool PastryDht::apply(const Key& key, const Mutator& fn) {
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

void PastryDht::storeDirect(const Key& key, Value value) {
  std::shared_lock topo(topoMutex_);
  const u64 owner = ownerOfId(common::hash::xxhash64(key, 0));
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Node& node = nodeById(owner);
  pushReplicas(node, key, value);
  node.store.put(key, std::move(value));
}

size_t PastryDht::size() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  size_t n = 0;
  for (const auto& [id, node] : nodes_) n += node.store.size();
  return n;
}

bool PastryDht::checkTables() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  for (const auto& [id, node] : nodes_) {
    bool placed = true;
    node.store.forEach([&, nodeId = id](const Key& k, const Value&) {
      if (ownerOfId(common::hash::xxhash64(k, 0)) != nodeId) placed = false;
    });
    if (!placed) return false;
    for (u64 m : node.leafSet) {
      if (nodes_.count(m) == 0 || m == id) return false;
    }
    for (u32 l = 0; l < 16; ++l) {
      for (u32 d = 0; d < 16; ++d) {
        const u64 e = node.routing[l][d];
        if (e == 0) continue;
        if (nodes_.count(e) == 0) return false;
        if (sharedDigits(e, id) < l) return false;
        if (hexDigit(e, l) != d) return false;
      }
    }
  }
  return true;
}

}  // namespace lht::dht
