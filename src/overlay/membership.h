// Versioned gossip membership: who is in the cluster, and the ring that
// follows from it (DESIGN.md §15).
//
// Every overlay node keeps a MembershipTable — one NodeEntry per known
// node (id, endpoint, incarnation, state, ring seed) plus a local version
// counter bumped on every structural change. Tables converge by pairwise
// merge (anti-entropy gossip, SWIM-style): for the same node id, the
// higher incarnation wins outright; at equal incarnations the "worse"
// state wins (Alive < Suspect < Dead < Left), so a suspicion spreads
// until the accused node refutes it by re-announcing itself with a higher
// incarnation. Merge is commutative/associative/idempotent, which is what
// lets deltas piggyback on any reply in any order.
//
// The ring is a pure function of the table: every member whose state is
// at most Suspect contributes `virtualNodes` points derived from its
// ringBase seed, so any two nodes (or clients) with equal tables compute
// the identical key→owner map — no coordination beyond gossip.
#pragma once

#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "rpc/transport.h"
#include "rpc/wire.h"

namespace lht::overlay {

using common::u32;
using common::u64;
using common::u8;
using rpc::NetAddr;
using rpc::u16;

/// Lifecycle of a member as this node believes it. Values are the wire
/// encoding (wire::NodeEntry::state).
enum class NodeState : u8 {
  Alive = 0,
  Suspect = 1,  ///< unresponsive; still owns its keys until Dead
  Dead = 2,     ///< failure detector gave up; ring excludes it
  Left = 3,     ///< graceful departure (terminal: never refuted)
};
[[nodiscard]] const char* nodeStateName(NodeState s);

[[nodiscard]] inline NetAddr addrOf(const rpc::wire::NodeEntry& e) {
  return NetAddr{e.host, e.port};
}

/// Stable node id derived from the listen endpoint — every participant
/// computes the same id for the same address, so the launch script never
/// has to hand out identities. Never returns 0 (0 = "no node": clients
/// gossip-pull with senderId 0, MemberRing uses 0 for "nobody").
[[nodiscard]] u64 nodeIdFor(const NetAddr& addr);

/// The table entry of a launch-time member at `addr`: Alive at
/// incarnation 1, ring seeded by its id. A node's own first entry, and
/// the static launch set every daemon of an `lht_noded --peers` launch
/// seeds and a client given the same members starts from — so both
/// compute the identical ring with no exchange at all.
[[nodiscard]] rpc::wire::NodeEntry launchEntry(const NetAddr& addr);
[[nodiscard]] std::vector<rpc::wire::NodeEntry> launchTable(
    const std::vector<NetAddr>& members);

/// Consistent-hash ring over a membership snapshot. Members with state
/// Alive or Suspect own keys; Dead/Left contribute nothing.
class MemberRing {
 public:
  MemberRing() = default;
  MemberRing(const std::vector<rpc::wire::NodeEntry>& table,
             size_t virtualNodes);

  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] size_t memberCount() const { return memberCount_; }

  /// Node id owning `key`; 0 when the ring is empty.
  [[nodiscard]] u64 owner(std::string_view key) const;

  /// Owner as if `excludeId` were not a member — the previous owner of a
  /// key this node just acquired (warm-miss forwarding). 0 when nobody
  /// else is on the ring.
  [[nodiscard]] u64 ownerExcluding(std::string_view key, u64 excludeId) const;

  /// Owner + up to `replicas` distinct successors, ring order.
  [[nodiscard]] std::vector<u64> holders(std::string_view key,
                                         size_t replicas) const;

 private:
  struct Point {
    u64 hash;
    u64 node;
  };
  [[nodiscard]] size_t pointAtOrAfter(u64 h) const;

  size_t memberCount_ = 0;
  std::vector<Point> points_;  // sorted by hash
};

/// The table itself. Thread-safe: the overlay's serve loop mutates it
/// while a metrics dump or test observer reads it.
class MembershipTable {
 public:
  /// `self` is installed as Alive at `incarnation` and can never be
  /// removed — merge() refutes any claim that this node is gone.
  MembershipTable(const rpc::wire::NodeEntry& self, u64 incarnation = 1);

  /// Merges one remote entry (gossip receive). Returns true when the
  /// table changed (and bumps the version). A remote claim that SELF is
  /// Suspect/Dead — or carries a newer incarnation than ours — triggers
  /// refutation: own incarnation jumps past the claim, state back to
  /// Alive, so the next gossip round overrides the rumor.
  bool merge(const rpc::wire::NodeEntry& remote);

  /// Merges a whole snapshot; returns the number of entries that changed
  /// the table.
  size_t mergeAll(const std::vector<rpc::wire::NodeEntry>& entries);

  /// Local failure-detector transitions. Each returns true (and bumps the
  /// version) when the state actually changed. Self transitions are
  /// refused. Suspect/Dead keep the entry's incarnation — the accused can
  /// refute with a bump.
  bool markSuspect(u64 id);
  bool markDead(u64 id);
  /// Graceful departure: terminal at `incarnation`.
  bool markLeft(u64 id, u64 incarnation);

  /// Announces this node's own departure (leave path): self goes Left at
  /// a bumped incarnation so the rumor wins against any Alive entry.
  void leaveSelf();

  [[nodiscard]] u64 version() const;
  [[nodiscard]] u64 selfId() const { return selfId_; }
  [[nodiscard]] u64 selfIncarnation() const;
  [[nodiscard]] u64 refutations() const;

  [[nodiscard]] std::vector<rpc::wire::NodeEntry> snapshot() const;
  [[nodiscard]] std::optional<rpc::wire::NodeEntry> find(u64 id) const;
  /// Members (any state) / members with state <= Suspect (ring members).
  [[nodiscard]] size_t knownCount() const;
  [[nodiscard]] size_t ringMemberCount() const;
  /// Ids of ring members excluding self (gossip / join targets).
  [[nodiscard]] std::vector<u64> peerIds() const;

 private:
  [[nodiscard]] rpc::wire::NodeEntry* findLocked(u64 id);
  void refuteLocked(u64 claimedIncarnation);

  mutable std::mutex mutex_;
  u64 selfId_;
  u64 version_ = 1;
  u64 refutations_ = 0;
  std::vector<rpc::wire::NodeEntry> entries_;  // unsorted, small
};

}  // namespace lht::overlay
