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
    : SimDht(network, options.replication, options.randomEntry, options.seed,
             /*rngStream=*/0xCA17u),
      opts_(options) {
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
  st.peer = net_.addPeer(name);
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
  resettle(/*ship=*/false);
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

SimDht::Departure CanDht::detach(u64 peerId, bool graceful) {
  common::checkInvariant(owners_.size() >= 2, "CanDht::detach: last peer");
  auto it = owners_.find(peerId);
  common::checkInvariant(it != owners_.end(), "CanDht::detach: unknown peer");
  ZNode* zone = it->second.zone;
  ZNode* parent = zone->parent;
  common::checkInvariant(parent != nullptr,
                         "CanDht::detach: root with peers left");

  ZNode* sibling =
      parent->left.get() == zone ? parent->right.get() : parent->left.get();
  // A failed peer's data is simply gone.
  Departure gone{it->second.peer, {}};
  if (graceful) gone.primaries = it->second.store.drain();

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
                           "CanDht::detach: no leaf pair");
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
  return gone;
}

std::vector<u64> CanDht::replicaHoldersOf(u64 ownerId) const {
  const size_t want = std::min(replication_, owners_.size()) - 1;
  std::vector<u64> out = peer(ownerId).neighbors;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.size() > want) {
    out.resize(want);
  } else if (out.size() < want) {
    // Tiny network or few-neighbor corner zone: pad deterministically
    // from the sorted peer list.
    std::vector<u64> all = nodeIdsUnlocked();
    std::sort(all.begin(), all.end());
    for (u64 id : all) {
      if (out.size() >= want) break;
      if (id == ownerId) continue;
      if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
    }
  }
  return out;
}

size_t CanDht::peerCount() const {
  std::shared_lock topo(topoMutex_);
  return owners_.size();
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

double CanDht::torusDistToRect(double x, double y, const ZRect& r) {
  return torus1dToInterval(x, r.xlo, r.xhi) + torus1dToInterval(y, r.ylo, r.yhi);
}

u64 CanDht::route(const Key& key, u64 requestBytes) {
  double x, y;
  keyPoint(key, x, y);
  u64 cur = enter(owners_)->first;

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
      hop(st.peer, peer(owner).peer, requestBytes);
      return owner;
    }
    hop(st.peer, peer(next).peer, requestBytes);
    cur = next;
  }
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
  if (!primariesPlaced()) return false;
  // Neighbor symmetry.
  for (const auto& [id, st] : owners_) {
    for (u64 nb : st.neighbors) {
      const auto& back = peer(nb).neighbors;
      if (std::find(back.begin(), back.end(), id) == back.end()) return false;
    }
  }
  return true;
}

}  // namespace lht::dht
