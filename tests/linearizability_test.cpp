#include "exec/linearizability.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/history.h"

namespace lht::exec {
namespace {

OpRecord put(const std::string& key, const std::string& v, common::u64 inv,
             common::u64 ret, bool ok = true) {
  OpRecord r;
  r.kind = OpKind::Put;
  r.dhtKey = key;
  r.value = v;
  r.invokeMs = inv;
  r.returnMs = ret;
  r.ok = ok;
  return r;
}

OpRecord get(const std::string& key, std::optional<std::string> observed,
             common::u64 inv, common::u64 ret, bool ok = true) {
  OpRecord r;
  r.kind = OpKind::Get;
  r.dhtKey = key;
  r.value = std::move(observed);
  r.invokeMs = inv;
  r.returnMs = ret;
  r.ok = ok;
  return r;
}

OpRecord removeOp(const std::string& key, common::u64 inv, common::u64 ret,
                  bool ok = true) {
  OpRecord r;
  r.kind = OpKind::Remove;
  r.dhtKey = key;
  r.invokeMs = inv;
  r.returnMs = ret;
  r.ok = ok;
  return r;
}

TEST(LinearizabilityTest, SequentialHistoryPasses) {
  std::vector<OpRecord> h{
      put("k", "a", 1, 2),
      get("k", "a", 3, 4),
      put("k", "b", 5, 6),
      get("k", "b", 7, 8),
      removeOp("k", 9, 10),
      get("k", std::nullopt, 11, 12),
  };
  EXPECT_TRUE(checkLinearizableRegister(h).ok);
}

TEST(LinearizabilityTest, ConcurrentWritesAllowEitherOrder) {
  // Two overlapping writes; a later read may see either winner.
  std::vector<OpRecord> seesA{
      put("k", "a", 1, 10),
      put("k", "b", 2, 9),
      get("k", "a", 11, 12),
  };
  std::vector<OpRecord> seesB{
      put("k", "a", 1, 10),
      put("k", "b", 2, 9),
      get("k", "b", 11, 12),
  };
  EXPECT_TRUE(checkLinearizableRegister(seesA).ok);
  EXPECT_TRUE(checkLinearizableRegister(seesB).ok);
}

TEST(LinearizabilityTest, ReadOfNeverWrittenValueFails) {
  std::vector<OpRecord> h{
      put("k", "a", 1, 2),
      get("k", "z", 3, 4),
  };
  const auto r = checkLinearizableRegister(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("NOT linearizable"), std::string::npos);
}

TEST(LinearizabilityTest, StaleReadAfterCompletedOverwriteFails) {
  // w(a) finished, then w(b) finished, then a read returns a: the read
  // started after w(b) completed, so "a" is stale — not linearizable.
  std::vector<OpRecord> h{
      put("k", "a", 1, 2),
      put("k", "b", 3, 4),
      get("k", "a", 5, 6),
  };
  EXPECT_FALSE(checkLinearizableRegister(h).ok);
}

TEST(LinearizabilityTest, ConcurrentReadMaySeeOldOrNewValue) {
  // The read overlaps w(b): both observations are legal.
  std::vector<OpRecord> oldV{put("k", "a", 1, 2), put("k", "b", 3, 10),
                             get("k", "a", 4, 5)};
  std::vector<OpRecord> newV{put("k", "a", 1, 2), put("k", "b", 3, 10),
                             get("k", "b", 4, 5)};
  EXPECT_TRUE(checkLinearizableRegister(oldV).ok);
  EXPECT_TRUE(checkLinearizableRegister(newV).ok);
}

TEST(LinearizabilityTest, FailedWriteMayOrMayNotTakeEffect) {
  // The failed put's effect is indeterminate: both a later read of "a"
  // (it landed) and of <absent> (it evaporated) are legal.
  std::vector<OpRecord> landed{put("k", "a", 1, 2, /*ok=*/false),
                               get("k", "a", 3, 4)};
  std::vector<OpRecord> evaporated{put("k", "a", 1, 2, /*ok=*/false),
                                   get("k", std::nullopt, 3, 4)};
  EXPECT_TRUE(checkLinearizableRegister(landed).ok);
  EXPECT_TRUE(checkLinearizableRegister(evaporated).ok);
}

TEST(LinearizabilityTest, FailedWriteMayLandLate) {
  // A failed write has no response: it may linearize after reads that
  // started later, so absent-then-present is fine, but once observed the
  // value cannot revert (present-then-absent fails).
  std::vector<OpRecord> lateLanding{
      put("k", "a", 1, 2, /*ok=*/false),
      get("k", std::nullopt, 3, 4),
      get("k", "a", 5, 6),
  };
  EXPECT_TRUE(checkLinearizableRegister(lateLanding).ok);
  std::vector<OpRecord> revert{
      put("k", "a", 1, 2, /*ok=*/false),
      get("k", "a", 3, 4),
      get("k", std::nullopt, 5, 6),
  };
  EXPECT_FALSE(checkLinearizableRegister(revert).ok);
}

TEST(LinearizabilityTest, FailedReadCarriesNoObservation) {
  std::vector<OpRecord> h{
      put("k", "a", 1, 2),
      get("k", std::nullopt, 3, 4, /*ok=*/false),  // threw, observed nothing
      get("k", "a", 5, 6),
  };
  EXPECT_TRUE(checkLinearizableRegister(h).ok);
}

TEST(LinearizabilityTest, OversizedHistoryFailsLoudly) {
  std::vector<OpRecord> h;
  for (common::u64 i = 0; i < 70; ++i) {
    h.push_back(put("k", "v", 2 * i + 1, 2 * i + 2));
  }
  const auto r = checkLinearizableRegister(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("cap"), std::string::npos);
}

TEST(LinearizabilityTest, MultiKeyHistoriesCheckIndependently) {
  std::vector<OpRecord> h{
      put("a", "1", 1, 2), put("b", "2", 1, 2),
      get("a", "1", 3, 4), get("b", "2", 3, 4),
  };
  EXPECT_TRUE(checkSingleKeyHistories(h).ok);
  h.push_back(get("b", "1", 5, 6));  // value from the wrong key
  EXPECT_FALSE(checkSingleKeyHistories(h).ok);
}

// ---------------------------------------------------------------------------
// Grow-only set checker
// ---------------------------------------------------------------------------

OpRecord insertOp(double key, common::u64 inv, common::u64 ret,
                  bool ok = true) {
  OpRecord r;
  r.kind = OpKind::Insert;
  r.key = key;
  r.value = "p";
  r.invokeMs = inv;
  r.returnMs = ret;
  r.ok = ok;
  return r;
}

OpRecord findOp(double key, bool found, common::u64 inv, common::u64 ret,
                bool ok = true) {
  OpRecord r;
  r.kind = OpKind::Find;
  r.key = key;
  if (found) r.value = "p";
  r.invokeMs = inv;
  r.returnMs = ret;
  r.ok = ok;
  return r;
}

TEST(LinearizabilityTest, GrowOnlySetAcceptsConsistentRun) {
  std::vector<OpRecord> h{
      insertOp(0.25, 1, 2),
      findOp(0.25, true, 3, 4),
      findOp(0.75, false, 3, 4),   // never inserted
      insertOp(0.75, 5, 9),
      findOp(0.75, true, 6, 7),    // concurrent with its insert: may see it
  };
  EXPECT_TRUE(checkGrowOnlySet(h).ok);
}

TEST(LinearizabilityTest, GrowOnlySetRejectsReadFromTheFuture) {
  std::vector<OpRecord> h{
      findOp(0.5, true, 1, 2),  // observed before any insert was invoked
      insertOp(0.5, 3, 4),
  };
  const auto r = checkGrowOnlySet(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("no insert"), std::string::npos);
}

TEST(LinearizabilityTest, GrowOnlySetRejectsMissAfterCompletedInsert) {
  std::vector<OpRecord> h{
      insertOp(0.5, 1, 2),
      findOp(0.5, false, 3, 4),
  };
  const auto r = checkGrowOnlySet(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("missed"), std::string::npos);
}

TEST(LinearizabilityTest, GrowOnlySetRejectsNonMonotonicReads) {
  // The insert never completed (indeterminate), but one find saw the key;
  // a strictly later find must keep seeing it.
  std::vector<OpRecord> h{
      insertOp(0.5, 1, 2, /*ok=*/false),
      findOp(0.5, true, 3, 4),
      findOp(0.5, false, 5, 6),
  };
  const auto r = checkGrowOnlySet(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("monotonic"), std::string::npos);
}

TEST(LinearizabilityTest, DefiniteAndMaybeKeySets) {
  std::vector<OpRecord> h{
      insertOp(0.1, 1, 2, true),
      insertOp(0.2, 3, 4, false),
      insertOp(0.3, 5, 6, true),
  };
  EXPECT_EQ(definiteKeys(h), (std::set<double>{0.1, 0.3}));
  EXPECT_EQ(maybeKeys(h), (std::set<double>{0.2}));
}

// ---------------------------------------------------------------------------
// Range-answer checker
// ---------------------------------------------------------------------------

OpRecord rangeOp(double lo, double hi, std::vector<double> keys,
                 bool ok = true) {
  OpRecord r;
  r.kind = OpKind::Range;
  r.key = lo;
  r.hi = hi;
  r.keys = std::move(keys);
  r.ok = ok;
  return r;
}

OpRecord eraseOp(double key) {
  OpRecord r;
  r.kind = OpKind::Erase;
  r.key = key;
  r.ok = true;
  return r;
}

TEST(LinearizabilityTest, RangeAnswersAcceptConsistentRun) {
  const std::set<double> preloaded{0.1, 0.2, 0.3, 0.6};
  std::vector<OpRecord> h{
      insertOp(0.25, 1, 2),
      eraseOp(0.3),
      rangeOp(0.15, 0.5, {0.2, 0.3}),   // the erase had not landed yet
      rangeOp(0.15, 0.5, {0.2, 0.25}),  // the insert had
      rangeOp(0.0, 1.0, {}, /*ok=*/false),  // threw: observed nothing
  };
  EXPECT_TRUE(checkRangeAnswers(h, preloaded).ok);
}

TEST(LinearizabilityTest, RangeAnswersRejectMalformedAnswers) {
  const std::set<double> preloaded{0.1, 0.2, 0.3};
  const auto rejects = [&](std::vector<double> keys, const std::string& why) {
    const auto r = checkRangeAnswers({rangeOp(0.15, 0.35, std::move(keys))},
                                     preloaded);
    EXPECT_FALSE(r.ok) << why;
    EXPECT_NE(r.explanation.find(why), std::string::npos) << r.explanation;
  };
  rejects({0.1, 0.2, 0.3}, "out-of-range");
  rejects({0.3, 0.2}, "sorted and distinct");
  rejects({0.2, 0.2, 0.3}, "sorted and distinct");
  rejects({0.2, 0.25, 0.3}, "neither preloaded nor inserted");
  rejects({0.2}, "missed the stable key");
}

}  // namespace
}  // namespace lht::exec
