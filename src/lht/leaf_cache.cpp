#include "lht/leaf_cache.h"

#include <utility>

#include "common/hash.h"
#include "common/types.h"

namespace lht::core {

// ---------------------------------------------------------------------------
// LeafCache
// ---------------------------------------------------------------------------

LeafCache::LeafCache(size_t capacity) : capacity_(capacity) {
  common::checkInvariant(capacity >= 1, "LeafCache: capacity must be >= 1");
}

std::optional<LeafCache::Entry> LeafCache::find(double key) {
  auto it = byLo_.upper_bound(key);
  if (it == byLo_.begin()) {
    misses_ += 1;
    return std::nullopt;
  }
  --it;
  if (!it->second.label.covers(key)) {
    misses_ += 1;
    return std::nullopt;
  }
  hits_ += 1;
  return it->second;
}

std::vector<LeafCache::Entry> LeafCache::tiling(const common::Interval& iv) {
  std::vector<Entry> tiles;
  double reach = iv.lo;  // [iv.lo, reach) is tiled so far
  auto it = byLo_.upper_bound(iv.lo);
  if (it != byLo_.begin()) {
    for (--it; it != byLo_.end() && reach < iv.hi; ++it) {
      const common::Interval cell = it->second.label.interval();
      if (cell.lo > reach || cell.hi <= reach) break;  // a gap at `reach`
      tiles.push_back(it->second);
      reach = cell.hi;
    }
  }
  if (reach < iv.hi) tiles.clear();
  (tiles.empty() ? misses_ : hits_) += 1;
  return tiles;
}

void LeafCache::note(const common::Label& label, common::u64 epoch,
                     common::u64 leaseExpiresAtMs) {
  // Re-noting a cached leaf (every find, insert and planned tile does)
  // refreshes it in place. Entries never overlap, so nothing else can need
  // evicting, and the full-cache valve below has nothing to make room for.
  // The replica cursor stays: a reset would pin the next lease reads back
  // onto slot 0, exactly the holder that may have just timed out.
  auto it = byLo_.find(label.interval().lo);
  if (it != byLo_.end() && it->second.label == label) {
    it->second.epoch = epoch;
    it->second.leaseExpiresAtMs = leaseExpiresAtMs;
    return;
  }
  invalidate(label.interval());
  if (byLo_.size() >= capacity_) {
    // Cheap overflow policy: flush. Leaf counts in our workloads sit far
    // below any reasonable capacity, so this is a correctness valve, not a
    // steady-state path.
    byLo_.clear();
    flushes_ += 1;
  }
  byLo_.emplace(label.interval().lo, Entry{label, epoch, leaseExpiresAtMs});
}

void LeafCache::invalidate(const common::Interval& iv) {
  auto it = byLo_.lower_bound(iv.lo);
  // The entry starting left of iv.lo may still reach into iv.
  if (it != byLo_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.label.interval().hi > iv.lo) it = prev;
  }
  while (it != byLo_.end() && it->first < iv.hi) {
    if (!it->second.label.interval().overlaps(iv)) {
      ++it;
      continue;
    }
    it = byLo_.erase(it);
    invalidations_ += 1;
  }
}

void LeafCache::dropLease(const common::Interval& iv) {
  auto it = byLo_.lower_bound(iv.lo);
  if (it != byLo_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.label.interval().hi > iv.lo) it = prev;
  }
  for (; it != byLo_.end() && it->first < iv.hi; ++it) {
    if (!it->second.label.interval().overlaps(iv)) continue;
    if (it->second.leaseExpiresAtMs != 0) {
      it->second.leaseExpiresAtMs = 0;
      leaseDrops_ += 1;
    }
  }
}

common::u32 LeafCache::bumpReplicaCursor(const common::Label& label) {
  auto it = byLo_.find(label.interval().lo);
  if (it == byLo_.end() || !(it->second.label == label)) return 0;
  return it->second.replicaCursor++;
}

void LeafCache::clear() { byLo_.clear(); }

// ---------------------------------------------------------------------------
// BucketStore
// ---------------------------------------------------------------------------

BucketStore::BucketStore(bool enabled, size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  common::checkInvariant(capacity >= 1, "BucketStore: capacity must be >= 1");
}

BucketStore::Ref BucketStore::decode(const std::string& dhtKey,
                                     const std::string& raw) {
  const common::u64 digest = enabled_ ? common::hash::valueDigest(raw) : 0;
  if (enabled_) {
    auto it = entries_.find(dhtKey);
    if (it != entries_.end() && it->second.digest == digest) {
      hits_ += 1;
      return it->second.bucket;
    }
  }
  misses_ += 1;
  auto parsed = LeafBucket::deserialize(raw);
  common::checkInvariant(parsed.has_value(),
                         "BucketStore: stored bucket failed to decode");
  auto ref = std::make_shared<const LeafBucket>(std::move(*parsed));
  if (enabled_) keep(dhtKey, Held{digest, ref});
  return ref;
}

BucketStore::Held BucketStore::held(const std::string& dhtKey) const {
  auto it = entries_.find(dhtKey);
  return it == entries_.end() ? Held{} : it->second;
}

BucketStore::Ref BucketStore::revalidated(const Held& copy) {
  hits_ += 1;
  return copy.bucket;
}

void BucketStore::note(const std::string& dhtKey, const std::string& raw,
                       LeafBucket bucket) {
  if (!enabled_) return;
  keep(dhtKey, Held{common::hash::valueDigest(raw),
                    std::make_shared<const LeafBucket>(std::move(bucket))});
}

void BucketStore::keep(const std::string& dhtKey, Held copy) {
  if (entries_.size() >= capacity_ && entries_.find(dhtKey) == entries_.end()) {
    entries_.clear();
  }
  entries_[dhtKey] = std::move(copy);
}

void BucketStore::forget(const std::string& dhtKey) { entries_.erase(dhtKey); }

}  // namespace lht::core
