// History-based concurrency checkers (DESIGN.md §10).
//
// 1. checkLinearizableRegister / checkSingleKeyHistories — a Wing & Gong
//    style search deciding whether a history of Put/Get/Remove ops on one
//    DHT key is linearizable against a simple register: every Get must
//    return the value of the latest linearized write, and the linearization
//    order must respect real-time precedence (op A before op B whenever A
//    returned before B was invoked). Failed writes are *indeterminate* —
//    the search may linearize them at any point after their invocation or
//    drop them entirely (a lost reply whose effect never landed). Failed
//    reads carry no observation and are excluded up front.
//
// 2. checkGrowOnlySet — the LHT fleet checker for insert/find workloads:
//    a find that returns a record must be preceded-or-concurrent with an
//    insert of that record, and any find invoked after an insert's
//    successful return must see it (monotonic over real time: inserts are
//    never un-done in a grow-only run).
//
// 3. checkRangeAnswers — range answers under concurrent splits and
//    merges: well-formed, never missing a key no op could have removed,
//    never holding a key no op could have produced.
//
// 4. scanAtomicSplits — the post-run structural check: walks every leaf
//    bucket and verifies the leaves partition [0, 1) exactly with no
//    leftover split/merge intents (no torn buckets — a lookup during the
//    run could only ever see the pre-split parent or a post-split child),
//    and that the surviving record set is bracketed by the histories:
//    definite ⊆ scanned ⊆ definite ∪ maybe.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "exec/history.h"

namespace lht::core {
class LhtIndex;
}

namespace lht::exec {

struct CheckResult {
  bool ok = true;
  /// Human-readable account of the first violation (empty when ok).
  std::string explanation;
};

/// Decides linearizability of ops on ONE register (all records must share
/// the same dhtKey; kinds Put/Get/Remove). Histories beyond `maxOps`
/// (default 64, the memoization-mask width) fail loudly rather than
/// silently truncating.
CheckResult checkLinearizableRegister(std::vector<OpRecord> ops,
                                      size_t maxOps = 64);

/// Partitions a merged history by dhtKey and checks each key's sub-history
/// as an independent register.
CheckResult checkSingleKeyHistories(const std::vector<OpRecord>& merged,
                                    size_t maxOpsPerKey = 64);

/// Grow-only-set check over LHT Insert/Find records (ranges and erases are
/// rejected — use it on insert/lookup workloads only).
CheckResult checkGrowOnlySet(const std::vector<OpRecord>& merged);

/// Range answers over LHT Insert/Erase/Range records, against the keys
/// preloaded before the run: each answer is sorted, distinct and inside
/// its [lo, hi); it holds every stable key in its range (preloaded, and
/// erased by no op of the history); and it holds no key that neither the
/// preload nor any insert produced. Ranges that threw observed nothing.
CheckResult checkRangeAnswers(const std::vector<OpRecord>& merged,
                              const std::set<double>& preloaded);

/// Keys with a successful insert return (must be present afterwards).
std::set<double> definiteKeys(const std::vector<OpRecord>& merged);
/// Keys whose insert threw (lost reply / crash): may or may not be stored.
std::set<double> maybeKeys(const std::vector<OpRecord>& merged);

struct SplitScanResult {
  bool ok = true;
  std::string explanation;
  size_t leaves = 0;
  size_t records = 0;
};

/// Walks `index`'s buckets (forEachBucket) and verifies: leaf intervals
/// tile [0, 1) exactly in label order; no bucket carries a split/merge
/// intent; and definite ⊆ scanned ⊆ definite ∪ maybe over record keys.
SplitScanResult scanAtomicSplits(core::LhtIndex& index,
                                 const std::set<double>& definite,
                                 const std::set<double>& maybe);

}  // namespace lht::exec
