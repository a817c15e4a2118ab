// Client-side read-path caches for the LHT index (both default-off).
//
// LeafCache — leaf *location* cache: maps a key interval to the label of
// the leaf last observed covering it. Because every leaf is stored under
// name(label), a cached entry turns Algorithm 2's binary search (~log D
// DHT-lookups) into a single get. It plans range queries the same way:
// when the cached leaves tile the range, one round fetches them all in
// place of Algorithm 4's jump and Algorithm 3's forwarding rounds.
// Correctness never depends on freshness: a hit is validated by the
// fetched bucket itself (does it still cover the key? is it clean?), and
// a stale entry is simply invalidated and the lookup falls back to the
// full binary search (a range re-resolves only the tiles that moved).
// This is the PHT-style location cache subsuming the single-slot depth
// hint. A split the client completes notes both children it holds, so
// the next write into either needs no search. Epochs (bucket wire format v2) are remembered so callers can
// observe how stale an entry was.
//
// Leases (DESIGN.md §13): an entry can additionally carry a time-bounded
// *read lease* over the epoch-stamped bucket snapshot. While the lease is
// unexpired, the index may serve lookups for the interval from the leaf's
// replica holders, accepting a replica bucket only when its epoch equals
// the leased epoch — any split/merge/insert bumps the epoch, so a stale
// replica can never satisfy a lease. The cache stores and rotates the
// lease state; the index drives the protocol and reports outcomes back
// through the note*() counters below, so hit accounting separates
// lease-served (replica) reads from primary reads.
//
// BucketStore — decoded-bucket cache: LHT stores buckets as opaque bytes,
// so every read pays a full deserialize even when the bytes have not
// changed. The store keeps, per DHT key, the digest of the bytes a bucket
// was decoded from (common::hash::valueDigest) and the decoded bucket.
// Fetched bytes with the held digest return the shared decoded value;
// changed bytes decode once and replace it. The digest is also what a
// conditional read sends (DESIGN.md §8): an `unchanged` answer means the
// held bucket is current, and no bytes travel at all. And the held bucket
// is where a write starts: serialized again, it is the start of an
// applyFrom whose CAS is guarded by that digest (DESIGN.md §15), so a
// write into a leaf this cache names and the store holds sends no read.
// Mutators copy-on-write, so shared values are never modified in place.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/label.h"
#include "common/types.h"
#include "lht/bucket.h"

namespace lht::core {

class LeafCache {
 public:
  struct Entry {
    common::Label label;
    common::u64 epoch = 0;
    /// Lease expiry on the granting client's clock; 0 = no lease (the
    /// entry is a plain location, replica reads are not authorized).
    common::u64 leaseExpiresAtMs = 0;
    /// Rotation cursor over the leaf's read servers (replica holders plus
    /// the primary), advanced by bumpReplicaCursor.
    common::u32 replicaCursor = 0;
    [[nodiscard]] bool leased() const { return leaseExpiresAtMs != 0; }
  };

  explicit LeafCache(size_t capacity = 4096);

  /// Greatest cached leaf whose interval covers `key`, if any.
  [[nodiscard]] std::optional<Entry> find(double key);

  /// The cached leaves tiling `iv` left to right, each starting where the
  /// previous one ends; empty when the cache leaves part of `iv`
  /// uncovered. Counts as one hit or one miss, like a find.
  [[nodiscard]] std::vector<Entry> tiling(const common::Interval& iv);

  /// Records an observed clean leaf. A leaf already cached under the same
  /// label is refreshed in place: its epoch and lease are updated, its
  /// replica cursor kept, and nothing is evicted or flushed. A new label
  /// first drops the entries overlapping its interval (sibling leaves that
  /// no longer exist after a merge, or the parent of a split).
  /// leaseExpiresAtMs != 0 grants (or renews) a read lease on the entry.
  void note(const common::Label& label, common::u64 epoch,
            common::u64 leaseExpiresAtMs = 0);

  /// Drops every entry overlapping `iv` (after an observed or performed
  /// split/merge whose old leaves covered `iv`).
  void invalidate(const common::Interval& iv);

  /// Revokes leases overlapping `iv` without dropping the locations: a
  /// dead or stale replica holder says nothing about where the leaf
  /// lives, only that replica reads must stop until a primary read
  /// re-grants. Counted under leaseDrops().
  void dropLease(const common::Interval& iv);

  /// Post-increments the rotation cursor of the entry for `label`
  /// (0 when the entry is gone — the caller's read then revalidates).
  common::u32 bumpReplicaCursor(const common::Label& label);

  void clear();

  [[nodiscard]] size_t size() const { return byLo_.size(); }
  [[nodiscard]] common::u64 hits() const { return hits_; }
  [[nodiscard]] common::u64 misses() const { return misses_; }
  /// Entries evicted because they overlapped a newly noted leaf or an
  /// invalidated interval; an in-place refresh is not one.
  [[nodiscard]] common::u64 invalidations() const { return invalidations_; }
  [[nodiscard]] common::u64 flushes() const { return flushes_; }

  // Served-read accounting, reported by the index so load-balancing can be
  // observed: a location hit (hits() above) resolves to either a
  // lease-served replica read or a primary read — the split the single
  // hit counter used to hide.
  void notePrimaryServed() { primaryHits_ += 1; }
  void noteLeaseServed() { leaseHits_ += 1; }
  void noteLeaseStale() { leaseStale_ += 1; }
  void noteLeaseExpired() { leaseExpired_ += 1; }
  /// A replica read hit a transport-level timeout (an RPC deadline, as
  /// opposed to a substrate that *knows* the peer is down and throws
  /// DhtPeerDownError). Counted apart from generic drops so a networked
  /// run can tell silent holders from stale ones.
  void noteLeaseTimeout() { leaseTimeouts_ += 1; }
  [[nodiscard]] common::u64 primaryHits() const { return primaryHits_; }
  [[nodiscard]] common::u64 leaseHits() const { return leaseHits_; }
  [[nodiscard]] common::u64 leaseStale() const { return leaseStale_; }
  [[nodiscard]] common::u64 leaseExpired() const { return leaseExpired_; }
  [[nodiscard]] common::u64 leaseDrops() const { return leaseDrops_; }
  [[nodiscard]] common::u64 leaseTimeouts() const { return leaseTimeouts_; }

 private:
  size_t capacity_;
  /// Leaf intervals partition [0, 1), so entries are ordered and
  /// non-overlapping: the covering candidate for a key is the greatest
  /// entry with lo <= key.
  std::map<double, Entry> byLo_;
  common::u64 hits_ = 0;
  common::u64 misses_ = 0;
  common::u64 invalidations_ = 0;
  common::u64 flushes_ = 0;
  common::u64 primaryHits_ = 0;
  common::u64 leaseHits_ = 0;
  common::u64 leaseStale_ = 0;
  common::u64 leaseExpired_ = 0;
  common::u64 leaseDrops_ = 0;
  common::u64 leaseTimeouts_ = 0;
};

class BucketStore {
 public:
  BucketStore(bool enabled, size_t capacity);

  using Ref = std::shared_ptr<const LeafBucket>;

  /// The copy held for one DHT key: the digest of the bytes it was decoded
  /// from (0: nothing held, or the store is off) and the decoded bucket.
  struct Held {
    common::u64 digest = 0;
    Ref bucket;
  };

  /// Decoded view of `raw` as stored under `dhtKey`. Hit: `raw` has the
  /// held digest and the shared decoded value is returned without parsing.
  /// Miss: decodes (throwing InvariantError on corrupt bytes, like the
  /// index's decode path always has) and caches.
  Ref decode(const std::string& dhtKey, const std::string& raw);

  /// What a conditional read of `dhtKey` carries.
  [[nodiscard]] Held held(const std::string& dhtKey) const;

  /// A conditional read sent `copy` (from held()) and was answered
  /// `unchanged`: the copy is current. Counts as a hit.
  Ref revalidated(const Held& copy);

  /// Records the post-image of a write: `raw` is what was stored under
  /// `dhtKey`, `bucket` its already-decoded form. Hashes `raw` once.
  void note(const std::string& dhtKey, const std::string& raw, LeafBucket bucket);

  /// Drops `dhtKey` (the stored value was erased).
  void forget(const std::string& dhtKey);

  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] common::u64 hits() const { return hits_; }
  [[nodiscard]] common::u64 misses() const { return misses_; }

 private:
  /// Caches `copy` under `dhtKey`, first emptying a full store.
  void keep(const std::string& dhtKey, Held copy);

  bool enabled_;
  size_t capacity_;
  std::unordered_map<std::string, Held> entries_;
  common::u64 hits_ = 0;
  common::u64 misses_ = 0;
};

}  // namespace lht::core
