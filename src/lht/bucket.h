// Leaf buckets (paper Sec. 3.3): the only materialized objects of LHT.
//
// A bucket stores its leaf label plus the data records whose keys fall in
// the leaf's interval. The label field is what makes the scheme work: it
// summarizes the peer's local view of the partition tree ("local tree"),
// so no structural links ever need maintaining.
//
// Beyond the paper, each bucket carries the crash-consistency state of the
// resilience layer:
//
//  * `epoch` counts every rewrite of the bucket (debugging / ordering aid).
//  * `appliedOps` is a bounded window of recently applied client operation
//    tokens. A client stamps each non-idempotent mutation (record insert)
//    with a fresh token; when a lost reply makes the client retry, the
//    re-executed mutator sees its token already recorded and becomes a
//    no-op — exactly-once effects over an at-least-once channel.
//  * `splitIntent` / `mergeIntent` are the write-ahead markers of the
//    crash-consistent split/merge state machines (lht_index.cpp). While an
//    intent is set, the records being moved live *inside the intent* (never
//    only in a client's memory), so any reader that stumbles on a
//    half-finished structural change has everything needed to complete it.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/label.h"
#include "index/record.h"

namespace lht::core {

using common::Label;

/// Write-ahead marker for a split in flight: the staying child records
/// which sibling must still be written, with the sibling's records kept
/// durable here until the write is known to have landed.
struct SplitIntent {
  Label movedLabel;                    ///< label of the child being shipped
  std::vector<index::Record> moving;   ///< its records, retained until done
  common::u64 token = 0;               ///< idempotence token of the completion

  friend bool operator==(const SplitIntent&, const SplitIntent&) = default;
};

/// Write-ahead marker for a merge in flight. The donor carries it first,
/// with its own label as donorLabel and no records: the donor is frozen,
/// so its records stay exactly as they are until it is deleted. Then the
/// absorbing child (the one already stored under the parent's name)
/// carries it with the same token and a durable copy of the donor's
/// records, staged until the donor is deleted and the absorber is
/// committed as the parent leaf.
struct MergeIntent {
  Label donorLabel;                    ///< the sibling being drained
  std::vector<index::Record> moving;   ///< copy of the donor's records
  common::u64 token = 0;

  friend bool operator==(const MergeIntent&, const MergeIntent&) = default;
};

/// Why a bucket decode was rejected. Stored bucket bytes now survive
/// restarts (DESIGN.md §11), so a decode failure is a durability event that
/// callers may log or alert on — "which way were the bytes bad" matters,
/// not just that they were.
enum class BucketDecodeError : common::u8 {
  None = 0,            ///< decode succeeded
  Truncated,           ///< bytes ran out in the middle of a field
  BadVersion,          ///< unknown wire-format version byte
  BadLabel,            ///< label length/bits pair is not a valid label
  TokenWindowOverflow, ///< applied-op count exceeds the bounded window
  BadRecordCount,      ///< record count larger than the bytes could hold
  BadIntentFlags,      ///< unknown bits set in the intent presence byte
  TrailingBytes,       ///< a complete bucket followed by extra bytes
};

/// Stable diagnostic name ("truncated", "bad_version", ...).
[[nodiscard]] const char* toString(BucketDecodeError e);

struct BucketDecodeResult;

struct LeafBucket {
  Label label;
  std::vector<index::Record> records;
  common::u64 epoch = 0;
  std::vector<common::u64> appliedOps{};  ///< newest last, bounded window
  std::optional<SplitIntent> splitIntent{};
  std::optional<MergeIntent> mergeIntent{};

  /// How many op tokens a bucket remembers. Wide enough that a client's
  /// retry horizon (one in-flight op at a time, bounded retry counts)
  /// can never outrun it.
  static constexpr size_t kAppliedOpsWindow = 32;

  /// Whether `token` is in the applied window (0 is never recorded).
  [[nodiscard]] bool hasApplied(common::u64 token) const;
  /// Records `token`, evicting the oldest entry beyond the window.
  void markApplied(common::u64 token);

  /// No structural change in flight.
  [[nodiscard]] bool clean() const { return !splitIntent && !mergeIntent; }

  /// A merge donor frozen by the merge's first step: no insert or erase
  /// may land in it.
  [[nodiscard]] bool frozenDonor() const {
    return mergeIntent && mergeIntent->donorLabel == label;
  }

  /// Size in "record slots": the stored records plus, when
  /// `countLabelSlot`, one slot for the leaf label itself (the paper's
  /// Sec. 9.2 accounting that yields average alpha = 1/2 + 1/(2 theta)).
  [[nodiscard]] size_t effectiveSize(bool countLabelSlot) const {
    return records.size() + (countLabelSlot ? 1 : 0);
  }

  /// Whether `key` falls inside this leaf's interval.
  [[nodiscard]] bool covers(double key) const { return label.covers(key); }

  /// Exact size of serialize()'s output, computed without encoding.
  /// serialize() pre-sizes its buffer with this, so encoding a bucket
  /// never reallocates.
  [[nodiscard]] size_t serializedSize() const;

  /// Wire format for storage in the DHT (versioned; see bucket.cpp).
  [[nodiscard]] std::string serialize() const;
  static std::optional<LeafBucket> deserialize(std::string_view bytes);
  /// Like deserialize(), but reports *why* a decode was rejected.
  static BucketDecodeResult deserializeEx(std::string_view bytes);
};

struct BucketDecodeResult {
  std::optional<LeafBucket> bucket;  ///< set iff error == None
  BucketDecodeError error = BucketDecodeError::None;

  [[nodiscard]] explicit operator bool() const { return bucket.has_value(); }
};

/// Algorithm 1 (leaf split), the local part: splits `bucket` at its
/// interval's median into the child that keeps the bucket's current DHT key
/// (returned in-place in `bucket`) and the child that must be shipped to
/// the peer responsible for the *old* label (returned). Theorem 2
/// guarantees this assignment: if the old label ends in 1 the local child
/// is label·1, otherwise label·0. Requires a clean bucket (no intent).
LeafBucket splitBucket(LeafBucket& bucket);

/// Split-trigger policy shared by the index and the bulk loader.
struct SplitPolicy {
  common::u32 thetaSplit = 100;
  bool countLabelSlot = true;
  common::u32 maxDepth = 20;

  [[nodiscard]] bool shouldSplit(const LeafBucket& b) const {
    if (b.effectiveSize(countLabelSlot) < thetaSplit) return false;
    return b.label.length() < maxDepth;
  }
};

/// Bulk-loading helper: splits `bucket` repeatedly until no produced bucket
/// is saturated. The surviving local bucket stays in `bucket` (its DHT key
/// is unchanged per Theorem 2); every other produced leaf is appended to
/// `remotes`, each destined for exactly one DHT-put under its own name.
void splitBucketRecursively(LeafBucket& bucket, const SplitPolicy& policy,
                            std::vector<LeafBucket>& remotes);

}  // namespace lht::core
