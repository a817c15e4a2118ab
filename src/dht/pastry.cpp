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
    : SimDht(network, options.replication, options.randomEntry, options.seed,
             /*rngStream=*/0x9a57u),
      opts_(options) {
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
  resettle(/*ship=*/false);
  return id;
}

SimDht::Departure PastryDht::detach(u64 nodeId, bool graceful) {
  common::checkInvariant(nodes_.size() >= 2, "PastryDht: last peer");
  auto it = nodes_.find(nodeId);
  common::checkInvariant(it != nodes_.end(), "PastryDht: unknown node");
  Departure gone{it->second.peer, {}};
  if (graceful) gone.primaries = it->second.store.drain();
  nodes_.erase(it);
  rebuildTables();
  return gone;
}

std::vector<u64> PastryDht::replicaHoldersOf(u64 ownerId) const {
  return nearestOthers(ownerId, [ownerId](u64 a, u64 b) {
    return closerTo(ownerId, a, b);
  });
}

u64 PastryDht::ownerOfUnlocked(const Key& key) const {
  return ownerOfId(common::hash::xxhash64(key, 0));
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

u64 PastryDht::route(const Key& key, u64 requestBytes) {
  const u64 keyId = common::hash::xxhash64(key, 0);
  u64 cur = enter(nodes_)->first;

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
      hop(node.peer, nodeById(next).peer, requestBytes);
      cur = next;
      continue;
    }

    // Prefix phase: extend the shared prefix by one digit.
    const u32 l = sharedDigits(cur, keyId);
    common::checkInvariant(l < 16, "PastryDht::route: key equals node id");
    const u64 next = node.routing[l][hexDigit(keyId, l)];
    if (next != 0) {
      hop(node.peer, nodeById(next).peer, requestBytes);
      cur = next;
      continue;
    }

    // Rare case (the digit's subtree is empty): Pastry scans all known
    // nodes for one numerically closer; the simulator stands in with a
    // single hop to the true owner.
    const u64 owner = ownerOfId(keyId);
    if (owner != cur) hop(node.peer, nodeById(owner).peer, requestBytes);
    return owner;
  }
}

bool PastryDht::checkTables() const {
  std::shared_lock topo(topoMutex_);
  common::StripedMutex::AllGuard guard(storeLocks_);
  if (!primariesPlaced()) return false;
  for (const auto& [id, node] : nodes_) {
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
