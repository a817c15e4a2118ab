// The bucket-op executor on its own, with no Dht: every op kind is safe
// to replay, every guard reports and leaves the bucket byte-identical, and
// keepRun keeps the last run's observations with the applying run's
// products.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "lht/bucket_op.h"

namespace lht::core {
namespace {

constexpr common::u64 kToken = 0x5EED;
constexpr common::u64 kOtherToken = 0xF0E1;

Label lbl(const char* text) { return *Label::parse(text); }

LeafBucket leafOf(const char* label, const std::vector<double>& keys) {
  LeafBucket b;
  b.label = lbl(label);
  b.epoch = 3;
  for (double k : keys) b.records.push_back(index::Record{k, "v"});
  return b;
}

std::string bytesOf(const std::optional<LeafBucket>& b) {
  return b ? b->serialize() : std::string("<absent>");
}

SplitRule ruleOf(SplitMode mode, common::u32 theta = 4) {
  return SplitRule{SplitPolicy{theta, true, 20}, theta, mode, kOtherToken};
}

/// Inserts `r` alone, as LhtIndex::insert does.
InsertRecords insertOf(const index::Record& r, SplitMode mode) {
  return InsertRecords{{&r, 1}, kToken, ruleOf(mode)};
}

void expectSameProducts(const BucketOpResult::Products& a,
                        const BucketOpResult::Products& b) {
  ASSERT_EQ(a.remotes.size(), b.remotes.size());
  for (size_t i = 0; i < a.remotes.size(); ++i) {
    EXPECT_EQ(a.remotes[i].serialize(), b.remotes[i].serialize()) << i;
  }
  EXPECT_EQ(a.earlySplit, b.earlySplit);
  EXPECT_EQ(a.removed, b.removed);
  EXPECT_EQ(a.remainingEffective, b.remainingEffective);
  EXPECT_EQ(a.bucketLabel, b.bucketLabel);
  EXPECT_EQ(a.moving, b.moving);
}

/// Runs `op` once (it must apply), then again on the result: the second
/// run must leave the bytes as the first left them, and the products kept
/// over both runs must be the first run's. Returns the kept result.
BucketOpResult expectReplayIsNoop(std::optional<LeafBucket> bucket,
                                  const BucketOp& op) {
  BucketOpResult kept;
  BucketOpResult first = executeBucketOp(bucket, op);
  EXPECT_TRUE(first.changed);
  const std::string once = bytesOf(bucket);
  const BucketOpResult::Products firstProducts = first.products;
  keepRun(kept, std::move(first));
  BucketOpResult second = executeBucketOp(bucket, op);
  EXPECT_EQ(bytesOf(bucket), once);
  keepRun(kept, std::move(second));
  expectSameProducts(kept.products, firstProducts);
  return kept;
}

/// Runs `op` and expects it to change nothing.
BucketOpResult expectUnchanged(std::optional<LeafBucket> bucket, const BucketOp& op) {
  const std::string before = bytesOf(bucket);
  BucketOpResult r = executeBucketOp(bucket, op);
  EXPECT_FALSE(r.changed);
  EXPECT_EQ(bytesOf(bucket), before);
  return r;
}

// --- Each op kind, executed twice, equals executing it once ---------------

TEST(BucketOpReplay, InsertWithoutSplit) {
  const index::Record r{0.3, "new"};
  const auto kept = expectReplayIsNoop(leafOf("#0", {0.1}),
                                       insertOf(r, SplitMode::Remote));
  EXPECT_FALSE(kept.observed.stale);
  EXPECT_TRUE(kept.products.remotes.empty());
}

TEST(BucketOpReplay, InsertSplittingToARemoteChild) {
  const index::Record r{0.7, "new"};
  std::optional<LeafBucket> b = leafOf("#0", {0.1, 0.6});
  const auto kept = expectReplayIsNoop(b, insertOf(r, SplitMode::Remote));
  // Theorem 2: "#0" keeps "#00" under its key and ships "#01".
  ASSERT_EQ(kept.products.remotes.size(), 1u);
  EXPECT_EQ(kept.products.remotes[0].label, lbl("#01"));
  EXPECT_EQ(kept.products.remotes[0].records.size(), 2u);
  EXPECT_FALSE(kept.products.earlySplit);
  EXPECT_FALSE(kept.observed.splitIntent.has_value());
}

TEST(BucketOpReplay, InsertStagingASplitIntent) {
  const index::Record r{0.7, "new"};
  const auto kept = expectReplayIsNoop(leafOf("#0", {0.1, 0.6}),
                                       insertOf(r, SplitMode::Intent));
  // The replay still reports the intent it finds, so the completion runs.
  ASSERT_TRUE(kept.observed.splitIntent.has_value());
  EXPECT_EQ(kept.observed.splitIntent->movedLabel, lbl("#01"));
  EXPECT_EQ(kept.observed.splitIntent->token, kOtherToken);
  EXPECT_TRUE(kept.products.remotes.empty());
}

TEST(BucketOpReplay, InsertCascading) {
  const index::Record r{0.8, "new"};
  const auto kept =
      expectReplayIsNoop(leafOf("#0", {0.55, 0.6, 0.7, 0.75}),
                         insertOf(r, SplitMode::Cascade));
  EXPECT_GE(kept.products.remotes.size(), 2u);
}

TEST(BucketOpReplay, InsertOnAHotLeafSplitsEarly) {
  const index::Record r{0.7, "new"};
  SplitRule rule = ruleOf(SplitMode::Remote, 100);
  rule.threshold = 3;
  const auto kept =
      expectReplayIsNoop(leafOf("#0", {0.1}), InsertRecords{{&r, 1}, kToken, rule});
  EXPECT_EQ(kept.products.remotes.size(), 1u);
  EXPECT_TRUE(kept.products.earlySplit);
}

TEST(BucketOpReplay, InsertBulkLoadGroup) {
  const std::vector<index::Record> batch{{0.2, "a"}, {0.3, "b"}, {0.6, "c"}, {0.9, "d"}};
  const auto kept = expectReplayIsNoop(
      leafOf("#0", {0.1}), InsertRecords{batch, kToken, ruleOf(SplitMode::Cascade)});
  EXPECT_FALSE(kept.products.remotes.empty());
  std::optional<LeafBucket> b = leafOf("#0", {0.1});
  executeBucketOp(b, InsertRecords{batch, kToken, ruleOf(SplitMode::Cascade)});
  size_t total = b->records.size();
  for (const auto& remote : kept.products.remotes) total += remote.records.size();
  EXPECT_EQ(total, 5u);
}

TEST(BucketOpReplay, WriteChildRewritesTheSameBytes) {
  const LeafBucket child = leafOf("#01", {0.6});
  std::optional<LeafBucket> b;
  executeBucketOp(b, WriteChild{&child});
  const std::string once = bytesOf(b);
  executeBucketOp(b, WriteChild{&child});
  EXPECT_EQ(bytesOf(b), once);
  EXPECT_EQ(once, child.serialize());
}

TEST(BucketOpReplay, Erase) {
  const auto kept = expectReplayIsNoop(leafOf("#0", {0.1, 0.4, 0.4}),
                                       EraseKey{0.4, kToken, true});
  EXPECT_EQ(kept.products.removed, 2u);
  EXPECT_EQ(kept.products.remainingEffective, 2u);
  EXPECT_EQ(kept.products.bucketLabel, lbl("#0"));
}

TEST(BucketOpReplay, SplitSteps) {
  const SplitIntent intent{lbl("#01"), {{0.6, "m"}}, kToken};
  expectReplayIsNoop(std::nullopt, CreateMovedChild{&intent});
  LeafBucket staying = leafOf("#00", {0.1});
  staying.splitIntent = intent;
  const auto cleared = expectReplayIsNoop(staying, ClearSplitIntent{lbl("#0"), kToken});
  EXPECT_FALSE(cleared.observed.mergedBack);
  LeafBucket recreated = leafOf("#01", {0.6});
  recreated.epoch = 1;
  recreated.markApplied(kToken);
  expectReplayIsNoop(recreated, DropRecreatedChild{kToken});
}

TEST(BucketOpReplay, DurableMergeSteps) {
  const auto frozen =
      expectReplayIsNoop(leafOf("#01", {0.6}), FreezeDonor{lbl("#01"), kToken});
  ASSERT_TRUE(frozen.observed.frozen.has_value());
  EXPECT_EQ(frozen.observed.frozen->moving.size(), 1u);

  const MergeIntent intent{lbl("#01"), {{0.6, "m"}}, kToken};
  const auto staged =
      expectReplayIsNoop(leafOf("#00", {0.1}), StageMerge{lbl("#00"), &intent});
  EXPECT_TRUE(staged.observed.staged);

  LeafBucket donor = leafOf("#01", {0.6});
  donor.mergeIntent = MergeIntent{lbl("#01"), {}, kToken};
  const auto deleted = expectReplayIsNoop(donor, DeleteFrozenDonor{kToken});
  EXPECT_FALSE(deleted.observed.thawed);

  LeafBucket absorber = leafOf("#00", {0.1});
  absorber.mergeIntent = intent;
  std::optional<LeafBucket> committed = absorber;
  expectReplayIsNoop(committed, ClearMergeIntent{kToken, &intent});
  executeBucketOp(committed, ClearMergeIntent{kToken, &intent});
  EXPECT_EQ(committed->label, lbl("#0"));
  EXPECT_EQ(committed->records.size(), 2u);
  expectReplayIsNoop(absorber, ClearMergeIntent{kToken});  // the merge is off
}

TEST(BucketOpReplay, PlainMergeStepsAreNotReplaySafe) {
  // The plain merge is the paper's two-write apparatus, not a
  // crash-consistent one: its donor delete throws on a replay and its
  // absorb would take the records twice.
  std::optional<LeafBucket> donor = leafOf("#01", {0.6});
  const auto taken = executeBucketOp(donor, TakeDonor{lbl("#01")});
  EXPECT_FALSE(donor.has_value());
  EXPECT_EQ(taken.products.moving.size(), 1u);
  EXPECT_THROW((void)executeBucketOp(donor, TakeDonor{lbl("#01")}),
               common::InvariantError);
  std::optional<LeafBucket> absorber = leafOf("#00", {0.1});
  executeBucketOp(absorber, AbsorbDonor{lbl("#0"), &taken.products.moving});
  EXPECT_EQ(absorber->label, lbl("#0"));
  EXPECT_EQ(absorber->records.size(), 2u);
  EXPECT_EQ(absorber->epoch, 3u);  // the plain path does not bump epochs
}

// --- Guards: each reports and leaves the bucket byte-identical -------------

TEST(BucketOpGuard, TokenAlreadyApplied) {
  LeafBucket b = leafOf("#0", {0.1, 0.4});
  b.markApplied(kToken);
  const index::Record r{0.3, "x"};
  EXPECT_FALSE(expectUnchanged(b, insertOf(r, SplitMode::Remote)).observed.stale);
  EXPECT_FALSE(expectUnchanged(b, EraseKey{0.4, kToken, true}).observed.stale);
  const std::vector<index::Record> batch{{0.2, "a"}, {0.3, "b"}};
  expectUnchanged(b, InsertRecords{batch, kToken, ruleOf(SplitMode::Cascade)});
}

TEST(BucketOpGuard, KeyNotCovered) {
  const LeafBucket b = leafOf("#00", {0.1});
  // A group whose last key lies beyond the leaf is stale as a whole.
  const std::vector<index::Record> batch{{0.2, "a"}, {0.6, "b"}};
  EXPECT_TRUE(expectUnchanged(b, InsertRecords{batch, kToken, ruleOf(SplitMode::Cascade)})
                  .observed.stale);
  const index::Record r{0.7, "x"};
  EXPECT_TRUE(expectUnchanged(b, insertOf(r, SplitMode::Remote)).observed.stale);
  EXPECT_TRUE(expectUnchanged(b, EraseKey{0.7, kToken, true}).observed.stale);
}

TEST(BucketOpGuard, FrozenDonor) {
  LeafBucket b = leafOf("#01", {0.6});
  b.mergeIntent = MergeIntent{b.label, {}, kOtherToken};
  const index::Record r{0.7, "x"};
  EXPECT_TRUE(expectUnchanged(b, insertOf(r, SplitMode::Remote)).observed.stale);
  EXPECT_TRUE(expectUnchanged(b, EraseKey{0.6, kToken, true}).observed.stale);
  EXPECT_FALSE(
      expectUnchanged(b, FreezeDonor{b.label, kToken}).observed.frozen.has_value());
}

TEST(BucketOpGuard, AbsentBucket) {
  const std::optional<LeafBucket> none;
  const index::Record r{0.7, "x"};
  EXPECT_TRUE(expectUnchanged(none, insertOf(r, SplitMode::Remote)).observed.stale);
  EXPECT_TRUE(expectUnchanged(none, EraseKey{0.7, kToken, true}).observed.stale);
  EXPECT_TRUE(
      expectUnchanged(none, ClearSplitIntent{lbl("#0"), kToken}).observed.mergedBack);
  expectUnchanged(none, DropRecreatedChild{kToken});
  EXPECT_FALSE(expectUnchanged(none, FreezeDonor{lbl("#01"), kToken}).observed.frozen);
  const MergeIntent intent{lbl("#01"), {}, kToken};
  EXPECT_FALSE(expectUnchanged(none, StageMerge{lbl("#00"), &intent}).observed.staged);
  EXPECT_FALSE(expectUnchanged(none, DeleteFrozenDonor{kToken}).observed.thawed);
  expectUnchanged(none, ClearMergeIntent{kToken, &intent});
  std::optional<LeafBucket> b;
  const std::vector<index::Record> batch{{0.2, "a"}};
  EXPECT_THROW((void)executeBucketOp(b, TakeDonor{lbl("#01")}), common::InvariantError);
  EXPECT_THROW((void)executeBucketOp(b, AbsorbDonor{lbl("#0"), &batch}),
               common::InvariantError);
}

TEST(BucketOpGuard, ForeignIntentToken) {
  LeafBucket staying = leafOf("#00", {0.1});
  staying.splitIntent = SplitIntent{lbl("#01"), {}, kOtherToken};
  expectUnchanged(staying, ClearSplitIntent{lbl("#0"), kToken});

  LeafBucket donor = leafOf("#01", {0.6});
  donor.mergeIntent = MergeIntent{lbl("#01"), {}, kOtherToken};
  EXPECT_TRUE(expectUnchanged(donor, DeleteFrozenDonor{kToken}).observed.thawed);
  expectUnchanged(donor, ClearMergeIntent{kToken});

  LeafBucket absorber = leafOf("#00", {0.1});
  absorber.mergeIntent = MergeIntent{lbl("#01"), {}, kOtherToken};
  const MergeIntent intent{lbl("#01"), {}, kToken};
  EXPECT_FALSE(
      expectUnchanged(absorber, StageMerge{lbl("#00"), &intent}).observed.staged);

  LeafBucket recreated = leafOf("#01", {0.6});
  recreated.epoch = 1;
  recreated.markApplied(kOtherToken);
  expectUnchanged(recreated, DropRecreatedChild{kToken});
}

TEST(BucketOpGuard, AbsorberNotClean) {
  const MergeIntent intent{lbl("#01"), {{0.6, "m"}}, kToken};
  LeafBucket splitting = leafOf("#00", {0.1});
  splitting.splitIntent = SplitIntent{lbl("#001"), {}, kOtherToken};
  EXPECT_FALSE(
      expectUnchanged(splitting, StageMerge{lbl("#00"), &intent}).observed.staged);
  // No longer the sibling leaf: it split (or merged) since the freeze.
  EXPECT_FALSE(expectUnchanged(leafOf("#000", {0.1}), StageMerge{lbl("#00"), &intent})
                   .observed.staged);
}

TEST(BucketOpGuard, MovedChildIsNeverClobbered) {
  const SplitIntent intent{lbl("#01"), {{0.6, "m"}}, kToken};
  expectUnchanged(leafOf("#01", {0.6, 0.7}), CreateMovedChild{&intent});
  // Reached by a write since step 2 (epoch > 1): the late completer keeps it.
  LeafBucket written = leafOf("#01", {0.6});
  written.markApplied(kToken);
  expectUnchanged(written, DropRecreatedChild{kToken});
}

// --- keepRun: the rule one apply follows over several runs -----------------

TEST(BucketOpKeepRun, AReplayKeepsTheApplyingRunsProducts) {
  // A lost reply: the run that split the bucket was stored, and the retry
  // layer's replay finds its token and changes nothing.
  const index::Record r{0.7, "new"};
  const BucketOp op = insertOf(r, SplitMode::Remote);
  std::optional<LeafBucket> b = leafOf("#0", {0.1, 0.6});
  BucketOpResult kept;
  keepRun(kept, executeBucketOp(b, op));
  ASSERT_EQ(kept.products.remotes.size(), 1u);
  keepRun(kept, executeBucketOp(b, op));
  EXPECT_TRUE(kept.changed);
  ASSERT_EQ(kept.products.remotes.size(), 1u);
  EXPECT_EQ(kept.products.remotes[0].label, lbl("#01"));
}

TEST(BucketOpKeepRun, TheLastRunsObservationsWin) {
  // A run on a state the write then does not apply to (before a CAS
  // conflict, or a re-read) saw a leaf that does not cover the key; the
  // run that applies must clear that verdict.
  const index::Record r{0.3, "new"};
  const BucketOp op = insertOf(r, SplitMode::Remote);
  std::optional<LeafBucket> elsewhere = leafOf("#01", {0.6});
  std::optional<LeafBucket> b = leafOf("#0", {0.6});
  BucketOpResult kept;
  keepRun(kept, executeBucketOp(elsewhere, op));
  EXPECT_TRUE(kept.observed.stale);
  keepRun(kept, executeBucketOp(b, op));
  EXPECT_FALSE(kept.observed.stale);
  EXPECT_TRUE(kept.changed);
}

TEST(BucketOpKeepRun, AReplayReportsTheIntentItSees) {
  // The applying run staged a split intent; before the replay another
  // completer finished the split. The replay's view is the one kept, so
  // the insert does not complete a split that is already done.
  const index::Record r{0.7, "new"};
  const BucketOp op = insertOf(r, SplitMode::Intent);
  std::optional<LeafBucket> b = leafOf("#0", {0.1, 0.6});
  BucketOpResult kept;
  keepRun(kept, executeBucketOp(b, op));
  ASSERT_TRUE(kept.observed.splitIntent.has_value());
  b->splitIntent.reset();
  keepRun(kept, executeBucketOp(b, op));
  EXPECT_FALSE(kept.observed.splitIntent.has_value());
}

}  // namespace
}  // namespace lht::core
