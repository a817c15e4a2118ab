#include "lht/bucket_op.h"

#include <vector>

#include "common/interval.h"
#include "common/types.h"

namespace lht::core {

using common::checkInvariant;

namespace {

/// One run: each call returns whether it changed the bucket, and reports
/// through `out`.
struct Executor {
  std::optional<LeafBucket>& ob;
  BucketOpResult& out;

  /// Whether an op on the sorted keys `first`..`last` may land in the
  /// bucket; reports stale if not.
  bool takes(double first, double last) {
    out.observed.stale = !ob || ob->frozenDonor() ||
                         !ob->covers(common::clampToUnit(first)) ||
                         (last != first && !ob->covers(common::clampToUnit(last)));
    return !out.observed.stale;
  }

  static void stamp(LeafBucket& b, common::u64 token) {
    b.markApplied(token);
    b.epoch += 1;
  }

  bool operator()(const InsertRecords& op) {
    // A replay finds the token and changes nothing. The staleness check
    // only runs on the applying run: once a run has split the bucket, the
    // staying child no longer needs to cover the keys.
    if (ob && ob->hasApplied(op.token)) {
      out.observed.splitIntent = ob->splitIntent;
      return false;
    }
    if (!takes(op.records.front().key, op.records.back().key)) return false;
    LeafBucket& b = *ob;
    b.records.insert(b.records.end(), op.records.begin(), op.records.end());
    stamp(b, op.token);
    // A bucket still carrying an intent defers its split to a later
    // insert, mirroring the paper's one-split-per-insert deferral.
    const SplitRule& rule = op.rule;
    const size_t size = b.effectiveSize(rule.policy.countLabelSlot);
    if (b.clean() && size >= rule.threshold && b.label.length() < rule.policy.maxDepth) {
      out.products.earlySplit = size < rule.policy.thetaSplit;
      if (rule.mode == SplitMode::Cascade) {
        splitBucketRecursively(b, rule.policy, out.products.remotes);
      } else if (rule.mode == SplitMode::Intent) {
        LeafBucket moved = splitBucket(b);
        b.splitIntent =
            SplitIntent{moved.label, std::move(moved.records), rule.completionToken};
      } else {
        out.products.remotes.push_back(splitBucket(b));
      }
    }
    out.observed.splitIntent = b.splitIntent;
    return true;
  }

  bool operator()(const EraseKey& op) {
    if (ob && ob->hasApplied(op.token)) return false;
    if (!takes(op.key, op.key)) return false;
    LeafBucket& b = *ob;
    out.products.removed =
        std::erase_if(b.records, [&](const index::Record& r) { return r.key == op.key; });
    stamp(b, op.token);
    out.products.remainingEffective = b.effectiveSize(op.countLabelSlot);
    out.products.bucketLabel = b.label;
    return true;
  }

  bool operator()(const WriteChild& op) {
    ob = *op.bucket;
    return true;
  }

  bool operator()(const CreateMovedChild& op) {
    if (ob) return false;  // never clobbers: it may hold newer inserts
    ob = LeafBucket{op.intent->movedLabel, op.intent->moving, 1};
    ob->markApplied(op.intent->token);
    return true;
  }

  bool operator()(const ClearSplitIntent& op) {
    out.observed.mergedBack = !ob || ob->label.isPrefixOf(op.parent);
    if (!ob || !ob->splitIntent || ob->splitIntent->token != op.token) return false;
    ob->splitIntent.reset();
    ob->epoch += 1;
    return true;
  }

  bool operator()(const DropRecreatedChild& op) {
    if (!ob || ob->epoch != 1 || !ob->hasApplied(op.token)) return false;
    ob.reset();
    return true;
  }

  bool operator()(const FreezeDonor& op) {
    if (!ob) return false;
    LeafBucket& b = *ob;
    const bool replay = b.mergeIntent && b.mergeIntent->token == op.token;
    if (!replay && (!b.clean() || b.label != op.donor)) return false;
    if (!replay) {
      b.mergeIntent = MergeIntent{b.label, {}, op.token};
      b.epoch += 1;
    }
    out.observed.frozen = MergeIntent{b.label, b.records, op.token};
    return !replay;
  }

  bool operator()(const StageMerge& op) {
    if (!ob) return false;
    LeafBucket& b = *ob;
    // Staged already: a lost reply, or another completer.
    out.observed.staged = b.mergeIntent && b.mergeIntent->token == op.intent->token;
    if (out.observed.staged || !b.clean() || b.label != op.absorber) return false;
    b.mergeIntent = *op.intent;
    b.epoch += 1;
    out.observed.staged = true;
    return true;
  }

  bool operator()(const DeleteFrozenDonor& op) {
    if (!ob) return false;  // deleted by an earlier attempt
    out.observed.thawed = !ob->mergeIntent || ob->mergeIntent->token != op.token;
    if (out.observed.thawed) return false;
    ob.reset();
    return true;
  }

  bool operator()(const ClearMergeIntent& op) {
    if (!ob || !ob->mergeIntent || ob->mergeIntent->token != op.token) return false;
    LeafBucket& b = *ob;
    if (const MergeIntent* staged = op.commit) {
      b.label = staged->donorLabel.parent();
      b.records.insert(b.records.end(), staged->moving.begin(), staged->moving.end());
    }
    b.mergeIntent.reset();
    b.epoch += 1;
    return true;
  }

  bool operator()(const TakeDonor& op) {
    checkInvariant(ob.has_value(), "LhtIndex::tryMerge: donor vanished");
    checkInvariant(ob->label == op.donor, "LhtIndex::tryMerge: donor stale");
    out.products.moving = std::move(ob->records);
    ob.reset();
    return true;
  }

  bool operator()(const AbsorbDonor& op) {
    checkInvariant(ob.has_value(), "LhtIndex::tryMerge: absorber vanished");
    ob->label = op.parent;
    ob->records.insert(ob->records.end(), op.moving->begin(), op.moving->end());
    return true;
  }
};

}  // namespace

BucketOpResult executeBucketOp(std::optional<LeafBucket>& bucket, const BucketOp& op) {
  BucketOpResult out;
  out.changed = std::visit(Executor{bucket, out}, op);
  return out;
}

void keepRun(BucketOpResult& kept, BucketOpResult&& run) {
  kept.observed = std::move(run.observed);
  if (!run.changed) return;
  kept.changed = true;
  kept.products = std::move(run.products);
}

}  // namespace lht::core
