#include "dht/sim_dht.h"

#include <algorithm>

namespace lht::dht {

using common::u64;

SimDht::SimDht(net::SimNetwork& network, size_t replication, bool randomEntry,
               u64 seed, u64 rngStream)
    : Dht(network),
      net_(network),
      replication_(replication),
      randomEntry_(randomEntry),
      rng_(seed, rngStream) {}

void SimDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  stats_.puts += 1;
  std::shared_lock topo(topoMutex_);
  const u64 owner = route(key, key.size() + value.size());
  checkOwnerUp(owner, "put");
  stats_.valueBytesMoved += value.size();
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  pushReplicas(owner, key, value);
  tablesOf(owner).store.put(key, std::move(value));
}

std::optional<Value> SimDht::get(const Key& key) {
  RoutedOpScope scope(*this, "dht.get", key);
  stats_.gets += 1;
  std::shared_lock topo(topoMutex_);
  const u64 owner = route(key, key.size());
  checkOwnerUp(owner, "get");
  auto lock = storeLocks_.guard(owner);
  noteServedRead(owner);
  const Value* v = tablesOf(owner).store.find(key);
  if (v == nullptr) return std::nullopt;
  stats_.valueBytesMoved += v->size();
  return *v;
}

bool SimDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  stats_.removes += 1;
  std::shared_lock topo(topoMutex_);
  const u64 owner = route(key, key.size());
  checkOwnerUp(owner, "remove");
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  const bool existed = tablesOf(owner).store.erase(key);
  if (existed) dropReplicas(owner, key);
  return existed;
}

bool SimDht::apply(const Key& key, const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  stats_.applies += 1;
  std::shared_lock topo(topoMutex_);
  const u64 owner = route(key, key.size());
  checkOwnerUp(owner, "apply");
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Tables& node = tablesOf(owner);
  std::optional<Value> v = node.store.take(key);
  const bool existed = v.has_value();
  fn(v);
  if (v.has_value()) {
    stats_.valueBytesMoved += v->size();
    pushReplicas(owner, key, *v);
    node.store.put(key, std::move(*v));
  } else if (existed) {
    dropReplicas(owner, key);
  }
  return existed;
}

void SimDht::storeDirect(const Key& key, Value value) {
  std::shared_lock topo(topoMutex_);
  const u64 owner = ownerOfUnlocked(key);
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  pushReplicas(owner, key, value);
  tablesOf(owner).store.put(key, std::move(value));
}

size_t SimDht::size() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  size_t n = 0;
  for (u64 id : nodeIdsUnlocked()) n += tablesOf(id).store.size();
  return n;
}

void SimDht::leave(u64 id) {
  std::unique_lock topo(topoMutex_);
  Departure gone = detach(id, /*graceful=*/true);
  std::vector<Move> handoff;
  handoff.reserve(gone.primaries.size());
  for (auto& [k, v] : gone.primaries) {
    handoff.push_back({std::move(k), std::move(v), gone.peer});
  }
  place(handoff, /*ship=*/true);
  net_.setOnline(gone.peer, false);
  resettle(/*ship=*/false);
}

void SimDht::fail(u64 id) {
  std::unique_lock topo(topoMutex_);
  const Departure gone = detach(id, /*graceful=*/false);
  promoteReplicas(/*ship=*/false);
  net_.setOnline(gone.peer, false);
  resettle(/*ship=*/false);
}

std::vector<u64> SimDht::nodeIds() const {
  std::shared_lock topo(topoMutex_);
  std::vector<u64> ids = nodeIdsUnlocked();
  std::sort(ids.begin(), ids.end());
  return ids;
}

u64 SimDht::ownerOf(const Key& key) const {
  std::shared_lock topo(topoMutex_);
  return ownerOfUnlocked(key);
}

size_t SimDht::entryIndex(size_t nodes) {
  common::checkInvariant(nodes != 0, "SimDht: no peers");
  stats_.lookups += 1;
  stats_.hops += 1;  // client -> entry peer
  if (!randomEntry_ || nodes == 1) return 0;
  std::lock_guard rngLock(rngMutex_);
  return rng_.below(static_cast<common::u32>(nodes));
}

void SimDht::hop(net::PeerId from, net::PeerId to, u64 bytes) {
  net_.send(from, to, bytes);
  stats_.hops += 1;
}

void SimDht::resettle(bool ship) {
  std::vector<Move> moving;
  for (u64 id : nodeIdsUnlocked()) {
    Tables& node = tablesOf(id);
    std::vector<Key> out;
    node.store.forEach([&](const Key& k, const Value&) {
      if (ownerOfUnlocked(k) != id) out.push_back(k);
    });
    for (Key& k : out) {
      Value v = std::move(*node.store.take(k));
      moving.push_back({std::move(k), std::move(v), node.peer});
    }
  }
  place(moving, ship);
  rebuildReplicas();
}

void SimDht::promoteReplicas(bool ship) {
  std::vector<Move> recovered;
  for (u64 id : nodeIdsUnlocked()) {
    const Tables& node = tablesOf(id);
    node.replicas.forEach([&](const Key& k, const Value& v) {
      if (!tablesOf(ownerOfUnlocked(k)).store.contains(k)) {
        recovered.push_back({k, v, node.peer});
      }
    });
  }
  place(recovered, ship);
}

void SimDht::place(std::vector<Move>& moves, bool ship) {
  for (Move& m : moves) {
    Tables& owner = tablesOf(ownerOfUnlocked(m.key));
    // A node keeps no replica copy of a key it owns: a later remove drops
    // copies only at the owner's holders, and the next promotion would
    // bring a stale one back as a primary.
    owner.replicas.erase(m.key);
    if (owner.store.contains(m.key)) continue;
    if (ship && owner.peer != m.from) {
      net_.send(m.from, owner.peer, m.key.size() + m.value.size());
    }
    owner.store.put(m.key, std::move(m.value));
  }
}

bool SimDht::primariesPlaced() const {
  bool placed = true;
  for (u64 id : nodeIdsUnlocked()) {
    tablesOf(id).store.forEach([&](const Key& k, const Value&) {
      if (ownerOfUnlocked(k) != id) placed = false;
    });
  }
  return placed;
}

std::vector<u64> SimDht::holdersOf(u64 ownerId) const {
  if (replication_ <= 1) return {};
  return replicaHoldersOf(ownerId);
}

std::vector<u64> SimDht::writeSetOf(u64 ownerId) const {
  std::vector<u64> set = holdersOf(ownerId);
  set.insert(set.begin(), ownerId);
  return set;
}

void SimDht::pushReplicas(u64 ownerId, const Key& key, const Value& value) {
  const net::PeerId from = tablesOf(ownerId).peer;
  for (u64 hid : holdersOf(ownerId)) {
    // A dark holder cannot take the copy; Chord's anti-entropy re-pushes
    // it after the crashed peer is excised.
    if (holderDark(hid)) continue;
    Tables& holder = tablesOf(hid);
    net_.send(from, holder.peer, key.size() + value.size());
    holder.replicas.put(key, value);
  }
}

void SimDht::dropReplicas(u64 ownerId, const Key& key) {
  // Between membership changes replicas live only on the owner's holders:
  // rebuildReplicas restores that after a join, leave or fail, and after a
  // crash's excision the copies left behind sit on the new owner's holders
  // or on the new owner, which place() clears. So the targeted erase is
  // complete. A dark holder keeps its stale copy; it dies with the peer at
  // excision.
  for (u64 hid : holdersOf(ownerId)) {
    if (holderDark(hid)) continue;
    tablesOf(hid).replicas.erase(key);
  }
}

void SimDht::rebuildReplicas() {
  if (replication_ <= 1) return;
  const std::vector<u64> ids = nodeIdsUnlocked();
  for (u64 id : ids) tablesOf(id).replicas.clear();
  for (u64 id : ids) {
    tablesOf(id).store.forEach(
        [&](const Key& k, const Value& v) { pushReplicas(id, k, v); });
  }
}

}  // namespace lht::dht
