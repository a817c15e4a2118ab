#include "overlay/membership.h"

#include <algorithm>

#include "common/hash.h"

namespace lht::overlay {

using rpc::wire::NodeEntry;

const char* nodeStateName(NodeState s) {
  switch (s) {
    case NodeState::Alive: return "alive";
    case NodeState::Suspect: return "suspect";
    case NodeState::Dead: return "dead";
    case NodeState::Left: return "left";
  }
  return "?";
}

u64 nodeIdFor(const NetAddr& addr) {
  const u64 packed = (u64{addr.host} << 16) | addr.port;
  const u64 id = common::hash::xxhash64(packed, /*seed=*/0x1d7);
  return id == 0 ? 1 : id;
}

NodeEntry launchEntry(const NetAddr& addr) {
  NodeEntry e;
  e.id = nodeIdFor(addr);
  e.host = addr.host;
  e.port = addr.port;
  e.incarnation = 1;
  e.state = static_cast<u8>(NodeState::Alive);
  e.ringBase = e.id;
  return e;
}

std::vector<NodeEntry> launchTable(const std::vector<NetAddr>& members) {
  std::vector<NodeEntry> table;
  table.reserve(members.size());
  for (const NetAddr& addr : members) table.push_back(launchEntry(addr));
  return table;
}

// --- MemberRing -------------------------------------------------------------

MemberRing::MemberRing(const std::vector<NodeEntry>& table,
                       size_t virtualNodes) {
  for (const NodeEntry& e : table) {
    if (e.state > static_cast<u8>(NodeState::Suspect)) continue;
    memberCount_ += 1;
    for (size_t v = 0; v < virtualNodes; ++v) {
      // Points derive from the entry's ringBase seed alone, so every
      // holder of an equal table computes the identical ring.
      const u64 h = common::hash::xxhash64(
          e.ringBase ^ (0x9E3779B97F4A7C15ull * (v + 1)), /*seed=*/0x1b8);
      points_.push_back(Point{h, e.id});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
            });
}

size_t MemberRing::pointAtOrAfter(u64 h) const {
  auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, u64 target) { return p.hash < target; });
  if (it == points_.end()) it = points_.begin();  // wrap
  return static_cast<size_t>(it - points_.begin());
}

u64 MemberRing::owner(std::string_view key) const {
  if (points_.empty()) return 0;
  return points_[pointAtOrAfter(common::hash::xxhash64(key))].node;
}

u64 MemberRing::ownerExcluding(std::string_view key, u64 excludeId) const {
  if (points_.empty()) return 0;
  const size_t start = pointAtOrAfter(common::hash::xxhash64(key));
  for (size_t seen = 0; seen < points_.size(); ++seen) {
    const u64 node = points_[(start + seen) % points_.size()].node;
    if (node != excludeId) return node;
  }
  return 0;
}

std::vector<u64> MemberRing::holders(std::string_view key,
                                     size_t replicas) const {
  std::vector<u64> out;
  if (points_.empty()) return out;
  const size_t want = std::min(1 + replicas, memberCount_);
  out.reserve(want);
  const size_t start = pointAtOrAfter(common::hash::xxhash64(key));
  for (size_t seen = 0; seen < points_.size() && out.size() < want; ++seen) {
    const u64 node = points_[(start + seen) % points_.size()].node;
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
  }
  return out;
}

// --- MembershipTable --------------------------------------------------------

namespace {

// Precedence at equal incarnations: the "worse" state wins, so rumors
// spread until refuted with a fresher incarnation.
int stateRank(u8 s) { return static_cast<int>(s); }

bool remoteWins(const NodeEntry& local, const NodeEntry& remote) {
  if (remote.incarnation != local.incarnation) {
    return remote.incarnation > local.incarnation;
  }
  return stateRank(remote.state) > stateRank(local.state);
}

}  // namespace

MembershipTable::MembershipTable(const NodeEntry& self, u64 incarnation)
    : selfId_(self.id) {
  common::checkInvariant(self.id != 0, "MembershipTable: self id must be nonzero");
  NodeEntry e = self;
  e.incarnation = incarnation;
  e.state = static_cast<u8>(NodeState::Alive);
  entries_.push_back(e);
}

NodeEntry* MembershipTable::findLocked(u64 id) {
  for (NodeEntry& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

void MembershipTable::refuteLocked(u64 claimedIncarnation) {
  NodeEntry* self = findLocked(selfId_);
  self->incarnation = std::max(self->incarnation, claimedIncarnation) + 1;
  self->state = static_cast<u8>(NodeState::Alive);
  version_ += 1;
  refutations_ += 1;
}

bool MembershipTable::merge(const NodeEntry& remote) {
  if (remote.id == 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (remote.id == selfId_) {
    NodeEntry* self = findLocked(selfId_);
    if (self->state == static_cast<u8>(NodeState::Left)) return false;
    // A rumor that we are gone — or an entry fresher than our own — must
    // be overridden, not adopted: jump past it and re-announce Alive.
    if (remote.incarnation > self->incarnation ||
        (remote.incarnation == self->incarnation &&
         remote.state != static_cast<u8>(NodeState::Alive))) {
      refuteLocked(remote.incarnation);
      return true;
    }
    return false;
  }
  NodeEntry* local = findLocked(remote.id);
  if (local == nullptr) {
    entries_.push_back(remote);
    version_ += 1;
    return true;
  }
  if (!remoteWins(*local, remote)) return false;
  *local = remote;
  version_ += 1;
  return true;
}

size_t MembershipTable::mergeAll(const std::vector<NodeEntry>& entries) {
  size_t changed = 0;
  for (const NodeEntry& e : entries) {
    if (merge(e)) changed += 1;
  }
  return changed;
}

bool MembershipTable::markSuspect(u64 id) {
  std::lock_guard<std::mutex> lock(mutex_);
  NodeEntry* e = findLocked(id);
  if (e == nullptr || id == selfId_) return false;
  if (e->state != static_cast<u8>(NodeState::Alive)) return false;
  e->state = static_cast<u8>(NodeState::Suspect);
  version_ += 1;
  return true;
}

bool MembershipTable::markDead(u64 id) {
  std::lock_guard<std::mutex> lock(mutex_);
  NodeEntry* e = findLocked(id);
  if (e == nullptr || id == selfId_) return false;
  if (e->state >= static_cast<u8>(NodeState::Dead)) return false;
  e->state = static_cast<u8>(NodeState::Dead);
  version_ += 1;
  return true;
}

bool MembershipTable::markLeft(u64 id, u64 incarnation) {
  std::lock_guard<std::mutex> lock(mutex_);
  NodeEntry* e = findLocked(id);
  if (e == nullptr || id == selfId_) return false;
  if (e->state == static_cast<u8>(NodeState::Left) &&
      e->incarnation >= incarnation) {
    return false;
  }
  e->state = static_cast<u8>(NodeState::Left);
  e->incarnation = std::max(e->incarnation, incarnation);
  version_ += 1;
  return true;
}

void MembershipTable::leaveSelf() {
  std::lock_guard<std::mutex> lock(mutex_);
  NodeEntry* self = findLocked(selfId_);
  self->incarnation += 1;  // the Left rumor must beat any Alive entry
  self->state = static_cast<u8>(NodeState::Left);
  version_ += 1;
}

u64 MembershipTable::version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

u64 MembershipTable::selfIncarnation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const NodeEntry& e : entries_) {
    if (e.id == selfId_) return e.incarnation;
  }
  return 0;
}

u64 MembershipTable::refutations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return refutations_;
}

std::vector<NodeEntry> MembershipTable::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::optional<NodeEntry> MembershipTable::find(u64 id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const NodeEntry& e : entries_) {
    if (e.id == id) return e;
  }
  return std::nullopt;
}

size_t MembershipTable::knownCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

size_t MembershipTable::ringMemberCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const NodeEntry& e : entries_) {
    if (e.state <= static_cast<u8>(NodeState::Suspect)) n += 1;
  }
  return n;
}

std::vector<u64> MembershipTable::peerIds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<u64> out;
  for (const NodeEntry& e : entries_) {
    if (e.id == selfId_) continue;
    if (e.state <= static_cast<u8>(NodeState::Suspect)) out.push_back(e.id);
  }
  return out;
}

}  // namespace lht::overlay
