#include "dht/can.h"


#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace lht::dht {

using common::u32;
using common::u64;

namespace {

double unitCoord(u64 h) { return std::ldexp(static_cast<double>(h >> 11), -53); }

/// 1-d torus distance between two coordinates in [0, 1).
double torus1d(double a, double b) {
  const double d = std::fabs(a - b);
  return std::min(d, 1.0 - d);
}

/// 1-d torus distance from coordinate c to the interval [lo, hi).
double torus1dToInterval(double c, double lo, double hi) {
  if (c >= lo && c < hi) return 0.0;
  return std::min(torus1d(c, lo), torus1d(c, hi));
}

/// Whether [alo, ahi) and [blo, bhi) overlap in the open sense.
bool overlaps1d(double alo, double ahi, double blo, double bhi) {
  return alo < bhi && blo < ahi;
}

/// Whether two intervals touch across a border (torus-wrapped).
bool touches1d(double ahi, double blo) {
  return ahi == blo || (ahi == 1.0 && blo == 0.0);
}

}  // namespace

CanDht::CanDht(net::SimNetwork& network, Options options)
    : Dht(network),
      net_(network),
      opts_(options),
      rng_(options.seed, /*stream=*/0xCA17u) {
  common::checkInvariant(opts_.initialPeers >= 1, "CanDht: need >= 1 peer");
  for (size_t i = 0; i < opts_.initialPeers; ++i) {
    join("can-peer-" + std::to_string(i));
  }
}

void CanDht::keyPoint(const Key& key, double& x, double& y) {
  x = unitCoord(common::hash::xxhash64(key, 0xCA40Aull));
  y = unitCoord(common::hash::xxhash64(key, 0xCA40Bull));
}

CanDht::ZNode* CanDht::zoneAt(double x, double y) const {
  ZNode* node = root_.get();
  common::checkInvariant(node != nullptr, "CanDht: empty partition");
  while (node->splitDim != -1) {
    if (node->splitDim == 0) {
      node = (x < node->left->rect.xhi) ? node->left.get() : node->right.get();
    } else {
      node = (y < node->left->rect.yhi) ? node->left.get() : node->right.get();
    }
  }
  return node;
}

u64 CanDht::ownerAt(double x, double y) const { return zoneAt(x, y)->owner; }

u64 CanDht::ownerOfUnlocked(const Key& key) const {
  double x, y;
  keyPoint(key, x, y);
  return ownerAt(x, y);
}

u64 CanDht::ownerOf(const Key& key) const {
  std::shared_lock topo(topoMutex_);
  return ownerOfUnlocked(key);
}

void CanDht::splitZone(ZNode* leaf, u64 newOwner, double px, double py) {
  const ZRect r = leaf->rect;
  const int dim = (r.xhi - r.xlo) >= (r.yhi - r.ylo) ? 0 : 1;
  leaf->splitDim = dim;
  leaf->left = std::make_unique<ZNode>();
  leaf->right = std::make_unique<ZNode>();
  leaf->left->parent = leaf;
  leaf->right->parent = leaf;
  if (dim == 0) {
    const double mid = 0.5 * (r.xlo + r.xhi);
    leaf->left->rect = {r.xlo, mid, r.ylo, r.yhi};
    leaf->right->rect = {mid, r.xhi, r.ylo, r.yhi};
  } else {
    const double mid = 0.5 * (r.ylo + r.yhi);
    leaf->left->rect = {r.xlo, r.xhi, r.ylo, mid};
    leaf->right->rect = {r.xlo, r.xhi, mid, r.yhi};
  }
  // The joiner takes the half containing its point; the old owner keeps
  // the other half.
  ZNode* joinerHalf = leaf->left->rect.contains(px, py) ? leaf->left.get()
                                                        : leaf->right.get();
  ZNode* keeperHalf = joinerHalf == leaf->left.get() ? leaf->right.get()
                                                     : leaf->left.get();
  joinerHalf->owner = newOwner;
  keeperHalf->owner = leaf->owner;
  peer(newOwner).zone = joinerHalf;
  peer(keeperHalf->owner).zone = keeperHalf;
  leaf->owner = 0;
}

u64 CanDht::join(const std::string& name) {
  std::unique_lock topo(topoMutex_);
  const u64 id = nextPeerId_++;
  PeerState st;
  st.netId = net_.addPeer(name);
  owners_.emplace(id, std::move(st));

  if (!root_) {
    root_ = std::make_unique<ZNode>();
    root_->rect = ZRect{};
    root_->owner = id;
    owners_.at(id).zone = root_.get();
  } else {
    const double px = unitCoord(common::hash::xxhash64(name, opts_.seed ^ 0xCAull));
    const double py =
        unitCoord(common::hash::xxhash64(name, opts_.seed ^ 0xCBull));
    splitZone(zoneAt(px, py), id, px, py);
  }
  rebuildNeighbors();
  rehomeAllKeys();
  rebuildReplicas();
  return id;
}

void CanDht::collectLeaves(ZNode* node, std::vector<ZNode*>& out) const {
  if (node->splitDim == -1) {
    out.push_back(node);
    return;
  }
  collectLeaves(node->left.get(), out);
  collectLeaves(node->right.get(), out);
}

CanDht::ZNode* CanDht::deepestLeafPair() const {
  // Returns the parent of the deepest sibling pair of leaves.
  ZNode* best = nullptr;
  int bestDepth = -1;
  std::vector<std::pair<ZNode*, int>> stack{{root_.get(), 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    if (node->splitDim == -1) continue;
    if (node->left->splitDim == -1 && node->right->splitDim == -1) {
      if (depth > bestDepth) {
        bestDepth = depth;
        best = node;
      }
      continue;
    }
    stack.emplace_back(node->left.get(), depth + 1);
    stack.emplace_back(node->right.get(), depth + 1);
  }
  return best;
}

void CanDht::leave(u64 peerId) {
  std::unique_lock topo(topoMutex_);
  removePeerLocked(peerId, /*graceful=*/true);
}

void CanDht::fail(u64 peerId) {
  std::unique_lock topo(topoMutex_);
  removePeerLocked(peerId, /*graceful=*/false);
}

void CanDht::removePeerLocked(u64 peerId, bool graceful) {
  common::checkInvariant(owners_.size() >= 2, "CanDht::removePeer: last peer");
  auto it = owners_.find(peerId);
  common::checkInvariant(it != owners_.end(), "CanDht::removePeer: unknown peer");
  ZNode* zone = it->second.zone;
  ZNode* parent = zone->parent;
  common::checkInvariant(parent != nullptr,
                         "CanDht::removePeer: root with peers left");

  ZNode* sibling =
      parent->left.get() == zone ? parent->right.get() : parent->left.get();
  // Park the departing peer's data for re-homing below (a failed peer's
  // data is simply gone).
  auto orphans =
      graceful ? it->second.store.drain() : std::vector<std::pair<Key, Value>>{};
  const net::PeerId fromNet = it->second.netId;

  if (sibling->splitDim == -1) {
    // Simple takeover: the sibling's owner absorbs the merged parent zone.
    const u64 keeper = sibling->owner;
    parent->splitDim = -1;
    parent->owner = keeper;
    parent->left.reset();
    parent->right.reset();
    peer(keeper).zone = parent;
  } else {
    // CAN's defragmenting takeover: the deepest sibling leaf pair donates
    // one peer — its pair merges, and the donated peer adopts this zone.
    ZNode* pairParent = deepestLeafPair();
    common::checkInvariant(pairParent != nullptr,
                           "CanDht::removePeer: no leaf pair");
    const u64 donated = pairParent->left->owner;
    const u64 keeper = pairParent->right->owner;
    pairParent->splitDim = -1;
    pairParent->owner = keeper;
    pairParent->left.reset();
    pairParent->right.reset();
    peer(keeper).zone = pairParent;
    zone->owner = donated;
    peer(donated).zone = zone;
  }

  owners_.erase(it);
  rebuildNeighbors();
  if (graceful) {
    // Ship the departing peer's keys to their (new) owners, then fix any
    // keys displaced by the takeover merge.
    for (auto& [k, v] : orphans) {
      double x, y;
      keyPoint(k, x, y);
      PeerState& owner = peer(ownerAt(x, y));
      net_.send(fromNet, owner.netId, k.size() + v.size());
      owner.store.put(k, std::move(v));
    }
  } else {
    // Promote surviving replicas whose primary died onto the new owners.
    std::vector<std::pair<Key, Value>> recovered;
    for (auto& [id, st] : owners_) {
      st.replicas.forEach([&](const Key& k, const Value& v) {
        if (!peer(ownerOfUnlocked(k)).store.contains(k)) {
          recovered.emplace_back(k, v);
        }
      });
    }
    for (auto& [k, v] : recovered) {
      PeerState& owner = peer(ownerOfUnlocked(k));
      if (!owner.store.contains(k)) owner.store.put(k, std::move(v));
    }
  }
  net_.setOnline(fromNet, false);
  rehomeAllKeys();
  rebuildReplicas();
}

std::vector<u64> CanDht::replicaHoldersOf(u64 ownerId) const {
  std::vector<u64> out;
  if (opts_.replication <= 1) return out;
  const size_t want = std::min(opts_.replication, owners_.size()) - 1;
  out = peer(ownerId).neighbors;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.size() > want) {
    out.resize(want);
  } else if (out.size() < want) {
    // Tiny network or few-neighbor corner zone: pad deterministically
    // from the sorted peer list.
    std::vector<u64> all;
    all.reserve(owners_.size());
    for (const auto& [id, st] : owners_) all.push_back(id);
    std::sort(all.begin(), all.end());
    for (u64 id : all) {
      if (out.size() >= want) break;
      if (id == ownerId) continue;
      if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
    }
  }
  return out;
}

std::vector<u64> CanDht::writeSetOf(u64 ownerId) const {
  std::vector<u64> set{ownerId};
  for (u64 hid : replicaHoldersOf(ownerId)) set.push_back(hid);
  return set;
}

void CanDht::pushReplicas(const PeerState& owner, u64 ownerId, const Key& key,
                          const Value& value) {
  for (u64 hid : replicaHoldersOf(ownerId)) {
    PeerState& holder = peer(hid);
    net_.send(owner.netId, holder.netId, key.size() + value.size());
    holder.replicas.put(key, value);
  }
}

void CanDht::dropReplicas(u64 ownerId, const Key& key) {
  for (u64 hid : replicaHoldersOf(ownerId)) {
    peer(hid).replicas.erase(key);
  }
}

void CanDht::rebuildReplicas() {
  if (opts_.replication <= 1) return;
  for (auto& [id, st] : owners_) st.replicas.clear();
  for (auto& [id, st] : owners_) {
    st.store.forEach([&, ownerId = id](const Key& k, const Value& v) {
      pushReplicas(st, ownerId, k, v);
    });
  }
}

size_t CanDht::peerCount() const {
  std::shared_lock topo(topoMutex_);
  return owners_.size();
}

std::vector<u64> CanDht::peerIds() const {
  std::shared_lock topo(topoMutex_);
  std::vector<u64> ids;
  ids.reserve(owners_.size());
  for (const auto& [id, st] : owners_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void CanDht::rebuildNeighbors() {
  std::vector<ZNode*> leaves;
  collectLeaves(root_.get(), leaves);
  for (auto& [id, st] : owners_) st.neighbors.clear();
  for (size_t i = 0; i < leaves.size(); ++i) {
    for (size_t j = i + 1; j < leaves.size(); ++j) {
      const ZRect& a = leaves[i]->rect;
      const ZRect& b = leaves[j]->rect;
      const bool xTouch = touches1d(a.xhi, b.xlo) || touches1d(b.xhi, a.xlo);
      const bool yTouch = touches1d(a.yhi, b.ylo) || touches1d(b.yhi, a.ylo);
      const bool adjacent =
          (xTouch && overlaps1d(a.ylo, a.yhi, b.ylo, b.yhi)) ||
          (yTouch && overlaps1d(a.xlo, a.xhi, b.xlo, b.xhi));
      if (adjacent && leaves[i]->owner != leaves[j]->owner) {
        peer(leaves[i]->owner).neighbors.push_back(leaves[j]->owner);
        peer(leaves[j]->owner).neighbors.push_back(leaves[i]->owner);
      }
    }
  }
}

void CanDht::rehomeAllKeys() {
  std::vector<std::pair<Key, Value>> moving;
  for (auto& [id, st] : owners_) {
    std::vector<Key> out;
    st.store.forEach([&, peerId = id](const Key& k, const Value&) {
      if (ownerOfUnlocked(k) != peerId) out.push_back(k);
    });
    for (const auto& k : out) {
      moving.emplace_back(k, std::move(*st.store.take(k)));
    }
  }
  for (auto& [k, v] : moving) {
    peer(ownerOfUnlocked(k)).store.put(k, std::move(v));
  }
}

double CanDht::torusDistToRect(double x, double y, const ZRect& r) {
  return torus1dToInterval(x, r.xlo, r.xhi) + torus1dToInterval(y, r.ylo, r.yhi);
}

CanDht::PeerState& CanDht::peer(u64 id) {
  auto it = owners_.find(id);
  common::checkInvariant(it != owners_.end(), "CanDht: unknown peer id");
  return it->second;
}

const CanDht::PeerState& CanDht::peer(u64 id) const {
  auto it = owners_.find(id);
  common::checkInvariant(it != owners_.end(), "CanDht: unknown peer id");
  return it->second;
}

u64 CanDht::route(double x, double y, u64 requestBytes) {
  stats_.lookups += 1;
  auto it = owners_.begin();
  if (opts_.randomEntry && owners_.size() > 1) {
    u32 skip;
    {
      std::lock_guard rngLock(rngMutex_);
      skip = rng_.below(static_cast<u32>(owners_.size()));
    }
    std::advance(it, skip);
  }
  u64 cur = it->first;
  stats_.hops += 1;  // client -> entry peer

  for (;;) {
    const PeerState& st = peer(cur);
    if (st.zone->rect.contains(x, y)) return cur;
    const double curDist = torusDistToRect(x, y, st.zone->rect);
    u64 next = cur;
    double nextDist = curDist;
    for (u64 nb : st.neighbors) {
      const double d = torusDistToRect(x, y, peer(nb).zone->rect);
      if (d < nextDist) {
        next = nb;
        nextDist = d;
      }
    }
    if (next == cur) {
      // Greedy dead end (possible only at exact corner geometries): hand
      // the request straight to the owner, like Pastry's rare-case scan.
      const u64 owner = ownerAt(x, y);
      net_.send(st.netId, peer(owner).netId, requestBytes);
      stats_.hops += 1;
      return owner;
    }
    net_.send(st.netId, peer(next).netId, requestBytes);
    stats_.hops += 1;
    cur = next;
  }
}

void CanDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  stats_.puts += 1;
  std::shared_lock topo(topoMutex_);
  double x, y;
  keyPoint(key, x, y);
  u64 owner = route(x, y, key.size() + value.size());
  stats_.valueBytesMoved += value.size();
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  PeerState& st = peer(owner);
  pushReplicas(st, owner, key, value);
  st.store.put(key, std::move(value));
}

std::optional<Value> CanDht::get(const Key& key) {
  RoutedOpScope scope(*this, "dht.get", key);
  stats_.gets += 1;
  std::shared_lock topo(topoMutex_);
  double x, y;
  keyPoint(key, x, y);
  u64 owner = route(x, y, key.size());
  auto lock = storeLocks_.guard(owner);
  const PeerState& st = peer(owner);
  const Value* v = st.store.find(key);
  if (v == nullptr) return std::nullopt;
  stats_.valueBytesMoved += v->size();
  return *v;
}

bool CanDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  stats_.removes += 1;
  std::shared_lock topo(topoMutex_);
  double x, y;
  keyPoint(key, x, y);
  u64 owner = route(x, y, key.size());
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  dropReplicas(owner, key);
  return peer(owner).store.erase(key);
}

bool CanDht::apply(const Key& key, const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  stats_.applies += 1;
  std::shared_lock topo(topoMutex_);
  double x, y;
  keyPoint(key, x, y);
  u64 owner = route(x, y, key.size());
  // Mutator runs under the write set's stripes: atomic per key.
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  PeerState& st = peer(owner);
  std::optional<Value> v = st.store.take(key);
  const bool existed = v.has_value();
  fn(v);
  if (v.has_value()) {
    stats_.valueBytesMoved += v->size();
    pushReplicas(st, owner, key, *v);
    st.store.put(key, std::move(*v));
  } else if (existed) {
    dropReplicas(owner, key);
  }
  return existed;
}

void CanDht::storeDirect(const Key& key, Value value) {
  std::shared_lock topo(topoMutex_);
  const u64 owner = ownerOfUnlocked(key);
  common::StripedMutex::MultiGuard guard(storeLocks_, writeSetOf(owner));
  PeerState& st = peer(owner);
  pushReplicas(st, owner, key, value);
  st.store.put(key, std::move(value));
}

size_t CanDht::size() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  size_t n = 0;
  for (const auto& [id, st] : owners_) n += st.store.size();
  return n;
}

bool CanDht::checkZones() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  std::vector<ZNode*> leaves;
  collectLeaves(root_.get(), leaves);
  if (leaves.size() != owners_.size()) return false;
  // Zones tile the torus: areas sum to 1, and tree children partition
  // their parent by construction (verified via the recursion producing
  // exactly the leaves).
  double area = 0.0;
  for (ZNode* leaf : leaves) {
    const ZRect& r = leaf->rect;
    if (r.xhi <= r.xlo || r.yhi <= r.ylo) return false;
    area += (r.xhi - r.xlo) * (r.yhi - r.ylo);
    auto it = owners_.find(leaf->owner);
    if (it == owners_.end() || it->second.zone != leaf) return false;
  }
  if (std::fabs(area - 1.0) > 1e-12) return false;
  // Keys sit with the owner of the zone containing their point.
  for (const auto& [id, st] : owners_) {
    bool placed = true;
    st.store.forEach([&, peerId = id](const Key& k, const Value&) {
      if (ownerOfUnlocked(k) != peerId) placed = false;
    });
    if (!placed) return false;
    // Neighbor symmetry.
    for (u64 nb : st.neighbors) {
      const auto& back = peer(nb).neighbors;
      if (std::find(back.begin(), back.end(), id) == back.end()) return false;
    }
  }
  return true;
}

}  // namespace lht::dht
