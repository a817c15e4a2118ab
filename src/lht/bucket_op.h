// Bucket changes as data: every change LhtIndex makes to a stored leaf
// bucket is a value of one closed variant, BucketOp, executed on the
// decoded bucket by one pure function that knows nothing of the DHT or the
// index. An op refers to caller-owned data (a record, a batch slice, an
// intent) while its apply runs, and copies only what the bucket keeps.
#pragma once

#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "lht/bucket.h"

namespace lht::core {

/// How a saturated leaf splits: Alg. 1's moved child comes back for one
/// DHT-put, is staged as a SplitIntent (crash-consistent), or the leaf
/// splits until nothing is saturated (the cascading ablation).
enum class SplitMode : common::u8 { Remote, Intent, Cascade };

/// The split rule an insert carries: θ, countLabelSlot and maxDepth, the
/// effective size that splits (lower on a hot leaf), the mode, and the
/// token of a staged SplitIntent.
struct SplitRule {
  SplitPolicy policy;
  common::u32 threshold = 0;
  SplitMode mode = SplitMode::Remote;
  common::u64 completionToken = 0;
};

// Insert (Sec. 5 + Alg. 1) of one record or a bulk-load group, and erase.
// Token-guarded; stale when the bucket is absent, a frozen merge donor, or
// does not cover the keys.
struct InsertRecords {
  std::span<const index::Record> records;
  common::u64 token;
  SplitRule rule;
};
struct EraseKey { double key; common::u64 token; bool countLabelSlot; };

// The bulk loader's split-off child, written over its key.
struct WriteChild { const LeafBucket* bucket; };

// The split state machine (DESIGN.md §7): step 2 creates the moved child
// unless its key is taken; step 3 clears the staying child's intent; a late
// completer drops the child it recreated beside the merged `parent`.
struct CreateMovedChild { const SplitIntent* intent; };
struct ClearSplitIntent { Label parent; common::u64 token; };
struct DropRecreatedChild { common::u64 token; };

// The durable merge: step 1 freezes the donor; step 2 stages its records
// in the absorber, if still the clean leaf `absorber`; step 3 deletes the
// donor while frozen by the token; ClearMergeIntent with `commit` is step
// 4 (the absorber becomes the parent leaf), without it the merge is off.
struct FreezeDonor { Label donor; common::u64 token; };
struct StageMerge { Label absorber; const MergeIntent* intent; };
struct DeleteFrozenDonor { common::u64 token; };
struct ClearMergeIntent { common::u64 token; const MergeIntent* commit = nullptr; };

// The plain merge: the donor is deleted, handing its records back, and the
// absorber becomes the leaf `parent` with them.
struct TakeDonor { Label donor; };
struct AbsorbDonor { Label parent; const std::vector<index::Record>* moving; };

using BucketOp =
    std::variant<InsertRecords, EraseKey, WriteChild, CreateMovedChild, ClearSplitIntent,
                 DropRecreatedChild, FreezeDonor, StageMerge, DeleteFrozenDonor,
                 ClearMergeIntent, TakeDonor, AbsorbDonor>;

struct BucketOpResult {
  bool changed = false;  ///< the run created, rewrote or erased the bucket

  /// What a run saw of the bucket.
  struct Observed {
    bool stale = false;                      ///< InsertRecords, EraseKey
    std::optional<SplitIntent> splitIntent;  ///< InsertRecords: after the run
    bool mergedBack = false;  ///< ClearSplitIntent: parent, ancestor or nothing there
    std::optional<MergeIntent> frozen;  ///< FreezeDonor: frozen by the token, records
    bool staged = false;                ///< StageMerge: the absorber carries the intent
    bool thawed = false;  ///< DeleteFrozenDonor: no longer frozen by the token
  } observed;

  /// What applying the op produced.
  struct Products {
    std::vector<LeafBucket> remotes;    ///< split-off children, one DHT-put each
    bool earlySplit = false;            ///< InsertRecords: a hot-leaf split below θ
    size_t removed = 0;                 ///< EraseKey: records removed,
    size_t remainingEffective = 0;      ///< the effective size left,
    Label bucketLabel;                  ///< and the leaf
    std::vector<index::Record> moving;  ///< TakeDonor: the donor's records
  } products;
};

/// Executes `op` on `bucket` (disengaged: the key is absent; resetting it
/// erases the key). Pure: the result depends only on the arguments.
BucketOpResult executeBucketOp(std::optional<LeafBucket>& bucket, const BucketOp& op);

/// The rule for one apply, which may run its op several times (a CAS
/// conflict, a re-read, a lost-reply retry) and stores only the last run:
/// `kept` takes every run's observations, and a run's products only when
/// it applied the op. So a replay that finds the op's token keeps the
/// products of the run that applied it.
void keepRun(BucketOpResult& kept, BucketOpResult&& run);

}  // namespace lht::core
