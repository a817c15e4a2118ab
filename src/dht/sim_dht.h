// SimDht: the one core under the simulated substrates (Chord, Kademlia,
// Pastry, CAN), as ForwardingDht is the one base for wrappers.
//
// A simulated substrate is a geometry — where a key lives, how a lookup
// hops there, which nodes hold an owner's replica copies — over storage
// and churn handling that are the same for all of them. That part lives
// here, once:
//  * every node's primary and replica MemTable (Tables, which each
//    substrate's node record derives from);
//  * the routed ops put/get/remove/apply, storeDirect and size;
//  * replication: a write's stripe set (owner plus holders), the replica
//    push and drop, and the rebuild of every placement after churn;
//  * churn: leave() and fail(), re-homing primaries whose owner changed,
//    and the promotion of surviving replicas after a failure.
//
// A substrate supplies the hooks below (route, owner, replica holders,
// node tables, detach) and keeps its routing tables, its membership
// protocol, its Options and its public API. Chord's crash mode reaches
// into the routed ops through three more hooks with no-op defaults: an
// owner that is down, a holder that is dark, and a served read.
//
// Thread safety (DESIGN.md §10): topology (the substrate's node map and
// routing tables) is guarded by topoMutex_ — routed ops hold it shared
// for their whole duration, membership changes hold it exclusive. Node
// tables are guarded by a striped mutex keyed by NODE ID (not raw key: a
// node's MemTable is one object, so its stripe covers the whole node). A
// write takes the stripes of its owner and replica holders through the
// deadlock-free MultiGuard; membership changes take none, because the
// exclusive topology lock already excludes every routed op. A small mutex
// guards the entry-point rng.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/striped_mutex.h"
#include "dht/dht.h"
#include "net/sim_network.h"
#include "store/mem_table.h"

namespace lht::dht {

class SimDht : public Dht {
 public:
  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  /// The mutator runs under the write set's stripes: atomic per key
  /// against every other routed op touching the owner.
  bool apply(const Key& key, const Mutator& fn) override;
  void storeDirect(const Key& key, Value value) override;
  [[nodiscard]] size_t size() const override;

  /// Gracefully removes the peer behind node `id` (detach() says which
  /// nodes go): its primaries move to their new owners, one message each.
  void leave(common::u64 id);
  /// Ungraceful failure of the peer behind node `id`: it vanishes without
  /// handing anything off. Surviving replicas (replication >= 2) are
  /// promoted on the new owners; without replication its keys are lost.
  void fail(common::u64 id);

  /// Ids of every node, sorted.
  [[nodiscard]] std::vector<common::u64> nodeIds() const;
  /// Id of the node that owns `key` (no routing, no accounting).
  [[nodiscard]] common::u64 ownerOf(const Key& key) const;

 protected:
  /// What every simulated node keeps.
  struct Tables {
    net::PeerId peer = net::kInvalidPeer;
    store::MemTable store;     ///< keys this node owns
    store::MemTable replicas;  ///< copies held for other owners
  };

  /// What detach() leaves behind: the departed peer, and its primaries
  /// when it leaves gracefully.
  struct Departure {
    net::PeerId peer = net::kInvalidPeer;
    std::vector<std::pair<Key, Value>> primaries;
  };

  /// `replication` copies of every key (1 = none); `randomEntry` routes
  /// each lookup from a seeded random entry node, else from the first.
  SimDht(net::SimNetwork& network, size_t replication, bool randomEntry,
         common::u64 seed, common::u64 rngStream);

  // Hooks. Each runs with topoMutex_ held (shared suffices, except
  // detach); table accesses also need the node's stripe, or the exclusive
  // topology lock.

  /// Routes a lookup for `key` to its owner with hop and message
  /// accounting (enter() and hop()); returns the owner's id.
  virtual common::u64 route(const Key& key, u64 requestBytes) = 0;
  /// The owner of `key`, found without accounting.
  [[nodiscard]] virtual common::u64 ownerOfUnlocked(const Key& key) const = 0;
  /// The min(replication, nodes) - 1 nodes that hold `ownerId`'s replica
  /// copies. Called only when replication >= 2.
  [[nodiscard]] virtual std::vector<common::u64> replicaHoldersOf(
      common::u64 ownerId) const = 0;
  /// Every node's id, in the substrate's own order.
  [[nodiscard]] virtual std::vector<common::u64> nodeIdsUnlocked() const = 0;
  virtual Tables& tablesOf(common::u64 id) = 0;
  [[nodiscard]] virtual const Tables& tablesOf(common::u64 id) const = 0;
  /// Removes the peer behind node `id` from the geometry and rebuilds the
  /// routing tables; drains its primaries first when `graceful`. Runs
  /// under the exclusive topology lock.
  virtual Departure detach(common::u64 id, bool graceful) = 0;

  // Crash-mode hooks (Chord).
  /// Throws DhtPeerDownError when the routed-to owner is down; `op` names
  /// the call.
  virtual void checkOwnerUp(common::u64 /*ownerId*/,
                            const char* /*op*/) const {}
  /// A dark holder neither takes a replica push nor drops its copy.
  [[nodiscard]] virtual bool holderDark(common::u64 /*holderId*/) const {
    return false;
  }
  /// Node `id` served a read (called under its stripe).
  virtual void noteServedRead(common::u64 /*id*/) {}

  // Routing helpers for route().
  /// Starts a lookup: counts it and the client -> entry hop, and returns
  /// the entry node of a substrate's node map (a seeded draw under random
  /// entry, else the first).
  template <typename NodeMap>
  auto enter(const NodeMap& nodes) {
    const size_t at = entryIndex(nodes.size());
    return std::next(nodes.begin(), static_cast<std::ptrdiff_t>(at));
  }
  /// One overlay hop: a message of `bytes` from `from` to `to`.
  void hop(net::PeerId from, net::PeerId to, u64 bytes);

  /// Node `id` of a substrate's node map (const or not); a missing id
  /// breaks an invariant.
  template <typename NodeMap>
  [[nodiscard]] static auto& nodeIn(NodeMap& nodes, common::u64 id) {
    auto it = nodes.find(id);
    common::checkInvariant(it != nodes.end(), "SimDht: unknown node id");
    return it->second;
  }
  /// The ids of a substrate's node map, in its order (nodeIdsUnlocked()).
  template <typename NodeMap>
  [[nodiscard]] static std::vector<common::u64> keysOf(const NodeMap& nodes) {
    std::vector<common::u64> ids;
    ids.reserve(nodes.size());
    for (const auto& entry : nodes) ids.push_back(entry.first);
    return ids;
  }

  /// The min(replication, nodes) - 1 nodes other than `ownerId` that sort
  /// first under `closer` (Kademlia's and Pastry's holders).
  template <typename Closer>
  [[nodiscard]] std::vector<common::u64> nearestOthers(common::u64 ownerId,
                                                       Closer closer) const {
    std::vector<common::u64> out = nodeIdsUnlocked();
    out.erase(std::find(out.begin(), out.end(), ownerId));
    const size_t want = std::min(replication_ - 1, out.size());
    const auto mid = out.begin() + static_cast<std::ptrdiff_t>(want);
    std::partial_sort(out.begin(), mid, out.end(), closer);
    out.resize(want);
    return out;
  }

  // Churn helpers (exclusive topology lock).
  /// After a membership change: moves every primary whose owner changed
  /// to it (one message per key when `ship`), then rebuilds every replica
  /// placement from the primaries.
  void resettle(bool ship);
  /// Copies each surviving replica whose primary is gone onto its owner;
  /// with `ship`, one message per copy that changes peer.
  void promoteReplicas(bool ship);
  /// Whether every primary sits on its owner (the substrates' checkers).
  [[nodiscard]] bool primariesPlaced() const;

  net::SimNetwork& net_;
  const size_t replication_;
  /// Routed ops shared, membership exclusive.
  mutable std::shared_mutex topoMutex_;
  /// Node tables, striped by node id.
  mutable common::StripedMutex storeLocks_{64};

 private:
  /// A primary on its way to its owner from peer `from`.
  struct Move {
    Key key;
    Value value;
    net::PeerId from;
  };

  /// Puts each move on its owner, unless the owner already holds the key
  /// (the first promoted copy wins), and drops the owner's replica copy
  /// of it; with `ship`, one message per move that changes peer.
  void place(std::vector<Move>& moves, bool ship);
  /// enter()'s accounting and draw: the entry's position among `nodes`.
  size_t entryIndex(size_t nodes);
  /// The replica holders of `ownerId` (none without replication).
  [[nodiscard]] std::vector<common::u64> holdersOf(common::u64 ownerId) const;
  /// The stripe set a write to `ownerId` must hold: owner plus holders.
  [[nodiscard]] std::vector<common::u64> writeSetOf(common::u64 ownerId) const;
  void pushReplicas(common::u64 ownerId, const Key& key, const Value& value);
  void dropReplicas(common::u64 ownerId, const Key& key);
  void rebuildReplicas();

  const bool randomEntry_;
  common::Pcg32 rng_;  ///< entry-point draws; Pcg32 is not thread-safe
  mutable std::mutex rngMutex_;
};

}  // namespace lht::dht
