#include "dht/chord.h"


#include <algorithm>

#include "common/hash.h"

namespace lht::dht {

using common::u64;

namespace {

/// Whether x lies in the half-open ring interval (a, b] (clockwise).
bool inRangeOpenClosed(u64 x, u64 a, u64 b) {
  if (a == b) return true;  // the whole ring (single-node case)
  if (a < b) return x > a && x <= b;
  return x > a || x <= b;
}

/// Whether x lies in the open ring interval (a, b) (clockwise).
bool inRangeOpen(u64 x, u64 a, u64 b) {
  if (a == b) return x != a;
  if (a < b) return x > a && x < b;
  return x > a || x < b;
}

}  // namespace

ChordDht::ChordDht(net::SimNetwork& network, Options options)
    : Dht(network),
      net_(network),
      opts_(options),
      rng_(options.seed, /*stream=*/0x9E37u) {
  common::checkInvariant(opts_.initialPeers >= 1, "ChordDht: need >= 1 peer");
  common::checkInvariant(opts_.virtualNodes >= 1, "ChordDht: need >= 1 vnode");
  for (size_t i = 0; i < opts_.initialPeers; ++i) {
    join("peer-" + std::to_string(i));
  }
}

u64 ChordDht::join(const std::string& name) {
  std::unique_lock topo(topoMutex_);
  common::checkInvariant(crashedPeers_.empty(),
                         "ChordDht::join: crashes pending — run repairStep");
  const net::PeerId peer = net_.addPeer(name);
  u64 firstId = 0;
  for (size_t v = 0; v < opts_.virtualNodes; ++v) {
    u64 id = common::hash::xxhash64(name + "#" + std::to_string(v), opts_.seed);
    // Extremely unlikely collision: perturb deterministically until free.
    while (nodes_.count(id) != 0) id = common::hash::splitmix64(id);
    Node node;
    node.id = id;
    node.peer = peer;
    nodes_.emplace(id, std::move(node));
    if (v == 0) firstId = id;
  }
  rebuildFingers();
  // Pull over every key the new ring points now own.
  for (auto& [id, node] : nodes_) {
    if (node.peer == peer) continue;
    std::vector<Key> moving;
    node.store.forEach([&](const Key& k, const Value&) {
      if (nodeById(ownerOfId(common::hash::xxhash64(k, 0))).peer == peer) {
        moving.push_back(k);
      }
    });
    for (const auto& k : moving) {
      auto v = node.store.take(k);
      Node& owner = nodeById(ownerOfId(common::hash::xxhash64(k, 0)));
      net_.send(node.peer, owner.peer, k.size() + v->size());
      owner.store.put(k, std::move(*v));
    }
  }
  rebuildReplicas();
  return firstId;
}

void ChordDht::leave(u64 nodeId) {
  std::unique_lock topo(topoMutex_);
  removePeerLocked(nodeId, /*graceful=*/true);
}

void ChordDht::fail(u64 nodeId) {
  std::unique_lock topo(topoMutex_);
  removePeerLocked(nodeId, /*graceful=*/false);
}

void ChordDht::removePeerLocked(u64 nodeId, bool graceful) {
  common::checkInvariant(peerCountUnlocked() >= 2,
                         "ChordDht::removePeer: last peer");
  // Graceful departures and instant-recovery failures assume a clean ring:
  // with crashes pending, excision must run first so the handoff targets
  // (new owners, replica holders) are all live.
  common::checkInvariant(crashedPeers_.empty(),
                         "ChordDht::removePeer: crashes pending — run repairStep");
  const net::PeerId peer = nodeById(nodeId).peer;

  std::vector<u64> ids;
  std::vector<std::pair<Key, Value>> orphans;
  for (auto& [id, node] : nodes_) {
    if (node.peer != peer) continue;
    ids.push_back(id);
    if (graceful) {
      for (auto& kv : node.store.drain()) orphans.push_back(std::move(kv));
    }
  }
  for (u64 id : ids) nodes_.erase(id);
  rebuildFingers();

  if (graceful) {
    // The departing peer pushes its primaries to their new owners.
    for (auto& [k, v] : orphans) {
      Node& owner = nodeById(ownerOfId(common::hash::xxhash64(k, 0)));
      net_.send(peer, owner.peer, k.size() + v.size());
      owner.store.put(k, std::move(v));
    }
  } else {
    // Ungraceful: the peer's primaries and replicas are gone. Promote
    // surviving replicas whose primary died onto the new owners.
    std::vector<std::pair<Key, Value>> recovered;
    for (auto& [id, node] : nodes_) {
      node.replicas.forEach([&](const Key& k, const Value& v) {
        const u64 owner = ownerOfId(common::hash::xxhash64(k, 0));
        if (!nodeById(owner).store.contains(k)) recovered.emplace_back(k, v);
      });
    }
    for (auto& [k, v] : recovered) {
      Node& owner = nodeById(ownerOfId(common::hash::xxhash64(k, 0)));
      owner.store.put(k, std::move(v));
    }
  }
  net_.setOnline(peer, false);
  rebuildReplicas();
}

size_t ChordDht::peerCountUnlocked() const {
  std::vector<net::PeerId> peers;
  for (const auto& [id, node] : nodes_) peers.push_back(node.peer);
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  return peers.size();
}

size_t ChordDht::peerCount() const {
  std::shared_lock topo(topoMutex_);
  return peerCountUnlocked();
}

std::vector<u64> ChordDht::nodeIds() const {
  std::shared_lock topo(topoMutex_);
  std::vector<u64> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) ids.push_back(id);
  return ids;
}

u64 ChordDht::ownerOf(const Key& key) const {
  std::shared_lock topo(topoMutex_);
  return ownerOfId(common::hash::xxhash64(key, 0));
}

size_t ChordDht::keysOn(u64 nodeId) const {
  std::shared_lock topo(topoMutex_);
  auto lock = storeLocks_.guard(nodeId);
  return nodeById(nodeId).store.size();
}

ChordDht::Node& ChordDht::nodeById(u64 id) {
  auto it = nodes_.find(id);
  common::checkInvariant(it != nodes_.end(), "ChordDht: unknown node id");
  return it->second;
}

const ChordDht::Node& ChordDht::nodeById(u64 id) const {
  auto it = nodes_.find(id);
  common::checkInvariant(it != nodes_.end(), "ChordDht: unknown node id");
  return it->second;
}

u64 ChordDht::successorOf(u64 id) const {
  auto it = nodes_.upper_bound(id);
  if (it == nodes_.end()) it = nodes_.begin();
  return it->first;
}

u64 ChordDht::ownerOfId(u64 keyId) const {
  auto it = nodes_.lower_bound(keyId);  // first node id >= keyId
  if (it == nodes_.end()) it = nodes_.begin();
  return it->first;
}

std::vector<u64> ChordDht::successorsOf(u64 id, size_t count) const {
  // Collect ring points of `count` *distinct other peers*: replicas on the
  // owner's own virtual nodes would die with it.
  std::vector<u64> out;
  std::vector<net::PeerId> seen{nodeById(id).peer};
  const size_t limit = std::min(count, peerCountUnlocked() - 1);
  u64 cur = id;
  while (out.size() < limit) {
    cur = successorOf(cur);
    const net::PeerId p = nodeById(cur).peer;
    if (std::find(seen.begin(), seen.end(), p) == seen.end()) {
      seen.push_back(p);
      out.push_back(cur);
    }
  }
  return out;
}

std::vector<u64> ChordDht::writeSetOf(u64 ownerId) const {
  std::vector<u64> set{ownerId};
  if (opts_.replication > 1) {
    for (u64 sid : successorsOf(ownerId, opts_.replication - 1))
      set.push_back(sid);
  }
  return set;
}

void ChordDht::pushReplicas(const Node& owner, const Key& key, const Value& value) {
  if (opts_.replication <= 1) return;
  for (u64 sid : successorsOf(owner.id, opts_.replication - 1)) {
    Node& holder = nodeById(sid);
    // A dark holder cannot take the copy; anti-entropy re-pushes it after
    // the crashed peer is excised and placement settles.
    if (nodeDown(holder)) continue;
    net_.send(owner.peer, holder.peer, key.size() + value.size());
    holder.replicas.put(key, value);
  }
}

void ChordDht::dropReplicas(u64 ownerId, const Key& key) {
  if (opts_.replication <= 1) return;
  // Between membership changes replicas live exactly on the owner's
  // replica holders (rebuildReplicas restores that after every churn
  // event), so the targeted erase is complete.
  for (u64 sid : successorsOf(ownerId, opts_.replication - 1)) {
    Node& holder = nodeById(sid);
    // A dark holder keeps its stale copy; it dies with the peer at
    // excision (the copy never rejoins the ring).
    if (nodeDown(holder)) continue;
    holder.replicas.erase(key);
  }
}

void ChordDht::rebuildReplicas() {
  if (opts_.replication <= 1) return;
  for (auto& [id, node] : nodes_) node.replicas.clear();
  for (auto& [id, node] : nodes_) {
    node.store.forEach(
        [&](const Key& k, const Value& v) { pushReplicas(node, k, v); });
  }
}

void ChordDht::rebuildFingers() {
  for (auto& [id, node] : nodes_) {
    node.fingers.clear();
    node.fingers.reserve(64);
    for (int k = 0; k < 64; ++k) {
      u64 target = id + (1ull << k);  // wraps naturally mod 2^64
      u64 f = ownerOfId(target);
      if (node.fingers.empty() || node.fingers.back() != f)
        node.fingers.push_back(f);
    }
  }
}

u64 ChordDht::route(u64 keyId, u64 requestBytes) {
  common::checkInvariant(!nodes_.empty(), "ChordDht: empty ring");
  stats_.lookups += 1;

  // Pick the entry peer (the querying client's gateway into the ring).
  auto it = nodes_.begin();
  if (opts_.randomEntry && nodes_.size() > 1) {
    common::u32 skip;
    {
      std::lock_guard rngLock(rngMutex_);
      skip = rng_.below(static_cast<common::u32>(nodes_.size()));
    }
    std::advance(it, skip);
  }
  // Clients never enter through a dark peer (a gateway that does not
  // answer is re-picked immediately; the fast path costs nothing).
  if (!crashedPeers_.empty()) {
    auto start = it;
    while (nodeDown(it->second)) {
      ++it;
      if (it == nodes_.end()) it = nodes_.begin();
      common::checkInvariant(it != start, "ChordDht::route: no live peer");
    }
  }
  u64 cur = it->first;
  stats_.hops += 1;  // client -> entry peer

  for (;;) {
    u64 succ = successorOf(cur);
    if (inRangeOpenClosed(keyId, cur, succ)) {
      if (succ != cur) {
        net_.send(nodeById(cur).peer, nodeById(succ).peer, requestBytes);
        stats_.hops += 1;
      }
      return succ;
    }
    // Forward to the closest preceding finger of keyId.
    const Node& node = nodeById(cur);
    u64 next = succ;
    for (auto fit = node.fingers.rbegin(); fit != node.fingers.rend(); ++fit) {
      if (inRangeOpen(*fit, cur, keyId)) {
        next = *fit;
        break;
      }
    }
    if (next == cur) next = succ;  // guarantee progress
    net_.send(node.peer, nodeById(next).peer, requestBytes);
    stats_.hops += 1;
    cur = next;
  }
}

void ChordDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  stats_.puts += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size() + value.size());
  throwIfDown(owner, "put");
  accountValueBytes(value.size());
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Node& node = nodeById(owner);
  pushReplicas(node, key, value);
  node.store.put(key, std::move(value));
}

std::optional<Value> ChordDht::get(const Key& key) {
  RoutedOpScope scope(*this, "dht.get", key);
  stats_.gets += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size());
  throwIfDown(owner, "get");
  auto lock = storeLocks_.guard(owner);
  Node& node = nodeById(owner);
  node.servedReads += 1;
  const Value* v = node.store.find(key);
  if (v == nullptr) return std::nullopt;
  accountValueBytes(v->size());
  return *v;
}

bool ChordDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  stats_.removes += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size());
  throwIfDown(owner, "remove");
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  const bool existed = nodeById(owner).store.erase(key);
  if (existed) dropReplicas(owner, key);
  return existed;
}

bool ChordDht::apply(const Key& key, const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  stats_.applies += 1;
  std::shared_lock topo(topoMutex_);
  u64 owner = route(common::hash::xxhash64(key, 0), key.size());
  throwIfDown(owner, "apply");
  // The mutator runs under the owner's stripe: apply() is atomic per key
  // against every other routed op touching that node.
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Node& node = nodeById(owner);
  std::optional<Value> v = node.store.take(key);
  const bool existed = v.has_value();
  fn(v);
  if (v.has_value()) {
    accountValueBytes(v->size());
    pushReplicas(node, key, *v);
    node.store.put(key, std::move(*v));
  } else if (existed) {
    dropReplicas(owner, key);
  }
  return existed;
}

void ChordDht::storeDirect(const Key& key, Value value) {
  std::shared_lock topo(topoMutex_);
  u64 owner = ownerOfId(common::hash::xxhash64(key, 0));
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  Node& node = nodeById(owner);
  pushReplicas(node, key, value);
  node.store.put(key, std::move(value));
}

size_t ChordDht::size() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  size_t n = 0;
  for (const auto& [id, node] : nodes_) n += node.store.size();
  return n;
}

bool ChordDht::checkRing() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  // Every stored key must sit on its owner.
  for (const auto& [id, node] : nodes_) {
    bool placed = true;
    node.store.forEach([&, nodeId = id](const Key& k, const Value&) {
      if (ownerOfId(common::hash::xxhash64(k, 0)) != nodeId) placed = false;
    });
    if (!placed) return false;
  }
  // Finger entries must be the true successors of their targets.
  for (const auto& [id, node] : nodes_) {
    size_t fi = 0;
    u64 prev = ~0ull;
    for (int k = 0; k < 64; ++k) {
      u64 expect = ownerOfId(id + (1ull << k));
      if (expect != prev) {
        if (fi >= node.fingers.size() || node.fingers[fi] != expect) return false;
        prev = expect;
        ++fi;
      }
    }
    if (fi != node.fingers.size()) return false;
  }
  return true;
}

bool ChordDht::checkReplication() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  if (opts_.replication <= 1) return true;
  const size_t copies = std::min(opts_.replication, peerCountUnlocked()) - 1;
  size_t expectedReplicas = 0;
  size_t actualReplicas = 0;
  for (const auto& [id, node] : nodes_) {
    expectedReplicas += node.store.size() * copies;
    actualReplicas += node.replicas.size();
    // Every primary must be present on each of its owner's successors.
    auto succ = successorsOf(id, copies);
    bool consistent = true;
    node.store.forEach([&](const Key& k, const Value& v) {
      for (u64 sid : succ) {
        const Value* hit = nodeById(sid).replicas.find(k);
        if (hit == nullptr || *hit != v) consistent = false;
      }
    });
    // Every replica must back a live primary somewhere.
    node.replicas.forEach([&](const Key& k, const Value&) {
      const u64 owner = ownerOfId(common::hash::xxhash64(k, 0));
      if (!nodeById(owner).store.contains(k)) consistent = false;
    });
    if (!consistent) return false;
  }
  return expectedReplicas == actualReplicas;
}

// Crash mode ----------------------------------------------------------------

void ChordDht::crash(u64 nodeId) {
  std::unique_lock topo(topoMutex_);
  common::checkInvariant(livePeerCountUnlocked() >= 2,
                         "ChordDht::crash: would take down the last live peer");
  const net::PeerId peer = nodeById(nodeId).peer;
  common::checkInvariant(crashedPeers_.count(peer) == 0,
                         "ChordDht::crash: peer already down");
  crashedPeers_.insert(peer);
  net_.setOnline(peer, false);
}

void ChordDht::throwIfDown(u64 ownerId, const char* op) const {
  const Node& owner = nodeById(ownerId);
  if (nodeDown(owner)) {
    throw DhtPeerDownError(std::string("ChordDht::") + op + ": peer '" +
                           net_.peerName(owner.peer) + "' is down");
  }
}

size_t ChordDht::livePeerCountUnlocked() const {
  return peerCountUnlocked() - crashedPeers_.size();
}

size_t ChordDht::livePeerCount() const {
  std::shared_lock topo(topoMutex_);
  return livePeerCountUnlocked();
}

size_t ChordDht::crashedPeerCount() const {
  std::shared_lock topo(topoMutex_);
  return crashedPeers_.size();
}

std::vector<u64> ChordDht::liveNodeIds() const {
  std::shared_lock topo(topoMutex_);
  std::vector<u64> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    if (!nodeDown(node)) ids.push_back(id);
  }
  return ids;
}

bool ChordDht::crashWouldLoseData(u64 nodeId) const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  std::set<net::PeerId> dead = crashedPeers_;
  dead.insert(nodeById(nodeId).peer);
  const size_t copies =
      opts_.replication > 0
          ? std::min(opts_.replication, peerCountUnlocked()) - 1
          : 0;
  for (const auto& [id, node] : nodes_) {
    if (dead.count(node.peer) == 0) continue;
    const auto holders = successorsOf(id, copies);
    bool unsafe = false;
    node.store.forEach([&](const Key& k, const Value&) {
      if (unsafe) return;
      for (u64 hid : holders) {
        const Node& h = nodeById(hid);
        if (dead.count(h.peer) == 0 && h.replicas.contains(k)) return;
      }
      unsafe = true;
    });
    if (unsafe) return true;
  }
  return false;
}

void ChordDht::exciseCrashedLocked() {
  if (crashedPeers_.empty()) return;
  // Keys whose primary copy dies with the crashed peers — checked against
  // the post-excision ring below to count what no replica resurrected.
  std::vector<Key> atRisk;
  std::vector<u64> deadIds;
  for (auto& [id, node] : nodes_) {
    if (crashedPeers_.count(node.peer) == 0) continue;
    deadIds.push_back(id);
    node.store.forEach(
        [&](const Key& k, const Value&) { atRisk.push_back(k); });
  }
  for (u64 id : deadIds) nodes_.erase(id);
  crashedPeers_.clear();
  rebuildFingers();

  // Promote surviving replicas whose primary died onto the new owners, in
  // the same exclusive section as the excision: between the two, a routed
  // get would report the key absent (a silent miss) instead of failing.
  struct Recovered {
    Key key;
    Value value;
    net::PeerId from;
  };
  std::vector<Recovered> recovered;
  for (auto& [id, node] : nodes_) {
    node.replicas.forEach([&, holder = node.peer](const Key& k, const Value& v) {
      const u64 owner = ownerOfId(common::hash::xxhash64(k, 0));
      if (!nodeById(owner).store.contains(k)) recovered.push_back({k, v, holder});
    });
  }
  for (auto& r : recovered) {
    Node& owner = nodeById(ownerOfId(common::hash::xxhash64(r.key, 0)));
    if (owner.store.contains(r.key)) continue;  // an earlier copy won
    if (owner.peer != r.from) {
      net_.send(r.from, owner.peer, r.key.size() + r.value.size());
    }
    owner.store.put(r.key, std::move(r.value));
  }
  for (const Key& k : atRisk) {
    if (!nodeById(ownerOfId(common::hash::xxhash64(k, 0))).store.contains(k)) {
      lostKeys_ += 1;
    }
  }
}

void ChordDht::collectRepairActions(std::vector<RepairAction>& out) const {
  if (opts_.replication <= 1) return;
  const size_t copies = std::min(opts_.replication, peerCountUnlocked()) - 1;
  for (const auto& [id, node] : nodes_) {
    // Pass 1: primaries missing or stale on a required holder.
    const auto holders = successorsOf(id, copies);
    node.store.forEach([&, ownerId = id](const Key& k, const Value& v) {
      for (u64 hid : holders) {
        const Value* hit = nodeById(hid).replicas.find(k);
        if (hit == nullptr || *hit != v) {
          out.push_back({RepairAction::Kind::Push, ownerId, hid, k});
        }
      }
    });
    // Pass 2: held replicas that back no primary, or sit off-placement
    // (promotion leaves both behind; checkReplication rejects either).
    node.replicas.forEach([&, holderId = id](const Key& k, const Value&) {
      const u64 ownerId = ownerOfId(common::hash::xxhash64(k, 0));
      const auto want = successorsOf(ownerId, copies);
      const bool placed =
          std::find(want.begin(), want.end(), holderId) != want.end();
      if (!placed || !nodeById(ownerId).store.contains(k)) {
        out.push_back({RepairAction::Kind::Drop, ownerId, holderId, k});
      }
    });
  }
}

size_t ChordDht::repairStep(size_t maxKeys) {
  // The exclusive topology lock subsumes every store stripe.
  std::unique_lock topo(topoMutex_);
  exciseCrashedLocked();
  if (opts_.replication <= 1) return 0;
  std::vector<RepairAction> actions;
  collectRepairActions(actions);
  size_t applied = 0;
  for (const RepairAction& a : actions) {
    if (applied >= maxKeys) break;
    if (a.kind == RepairAction::Kind::Push) {
      Node& owner = nodeById(a.ownerId);
      const Value* v = owner.store.find(a.key);
      if (v == nullptr) continue;  // removed since the scan
      Node& holder = nodeById(a.holderId);
      net_.send(owner.peer, holder.peer, a.key.size() + v->size());
      holder.replicas.put(a.key, *v);
    } else {
      nodeById(a.holderId).replicas.erase(a.key);
    }
    ++applied;
  }
  return applied;
}

size_t ChordDht::replicaDeficit() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  if (!crashedPeers_.empty()) {
    // Pre-excision the gauge counts the promotions repair owes: every
    // primary stranded on a dark peer. (Post-excision it switches to the
    // re-push backlog, so the value can legitimately rise across the
    // first repairStep as anti-entropy discovers the full fix-up set.)
    size_t owed = 0;
    for (const auto& [id, node] : nodes_) {
      if (crashedPeers_.count(node.peer) != 0) owed += node.store.size();
    }
    return owed;
  }
  if (opts_.replication <= 1) return 0;
  std::vector<RepairAction> actions;
  collectRepairActions(actions);
  return actions.size();
}

bool ChordDht::repairConverged() const {
  {
    std::shared_lock topo(topoMutex_);
    if (!crashedPeers_.empty()) return false;
  }
  return replicaDeficit() == 0;
}

std::optional<Value> ChordDht::getReplica(const Key& key, size_t replicaIndex) {
  RoutedOpScope scope(*this, "dht.get_replica", key);
  stats_.gets += 1;
  std::shared_lock topo(topoMutex_);
  if (opts_.replication <= 1) {
    throw DhtError("ChordDht::getReplica: replication disabled");
  }
  const u64 ownerId = ownerOfId(common::hash::xxhash64(key, 0));
  const auto holders = successorsOf(ownerId, opts_.replication - 1);
  if (replicaIndex >= holders.size()) {
    throw DhtError("ChordDht::getReplica: no replica " +
                   std::to_string(replicaIndex) + " (ring too small)");
  }
  // Route to the holder's own ring id — it is the successor of itself, so
  // the normal lookup machinery (and its accounting) reaches the holder.
  const u64 holderId = holders[replicaIndex];
  route(holderId, key.size());
  throwIfDown(holderId, "getReplica");
  auto lock = storeLocks_.guard(holderId);
  Node& holder = nodeById(holderId);
  holder.servedReads += 1;
  const Value* v = holder.replicas.find(key);
  if (v == nullptr) v = holder.store.find(key);  // promoted home post-repair
  if (v == nullptr) return std::nullopt;
  accountValueBytes(v->size());
  return *v;
}

std::vector<common::u64> ChordDht::readLoadByPeer() const {
  std::shared_lock topo(topoMutex_);
  std::vector<common::u64> out;
  std::map<net::PeerId, size_t> slot;  // peer -> index, ring order of first node
  for (const auto& [id, node] : nodes_) {
    auto [it, fresh] = slot.emplace(node.peer, out.size());
    if (fresh) out.push_back(0);
    auto lock = storeLocks_.guard(id);
    out[it->second] += node.servedReads;
  }
  return out;
}

void ChordDht::resetReadLoad() {
  std::shared_lock topo(topoMutex_);
  for (auto& [id, node] : nodes_) {
    auto lock = storeLocks_.guard(id);
    node.servedReads = 0;
  }
}

}  // namespace lht::dht
