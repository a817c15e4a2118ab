// Maintenance-cost behaviour (paper Secs. 4, 8, 9.2): split cost accounting,
// Theorem 2 locality, merge as the dual of split (also with a concurrent
// writer racing it), and the alpha statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "lht/bucket.h"
#include "lht/lht_index.h"
#include "lht/naming.h"
#include "pht/pht_index.h"
#include "workload/generators.h"

namespace lht::core {
namespace {

using common::Label;

TEST(Split, AlgorithmOneLabels) {
  // lambda = p011*: remote gets lambda·0, local keeps lambda·1.
  LeafBucket b{*Label::parse("#011"), {}};
  for (double k : {0.76, 0.8, 0.9, 0.99}) b.records.push_back({k, "x"});
  LeafBucket remote = splitBucket(b);
  EXPECT_EQ(remote.label, *Label::parse("#0110"));
  EXPECT_EQ(b.label, *Label::parse("#0111"));
  // lambda ends in 0: remote gets lambda·1, local keeps lambda·0.
  LeafBucket c{*Label::parse("#010"), {}};
  for (double k : {0.26, 0.3, 0.4, 0.45}) c.records.push_back({k, "x"});
  LeafBucket remote2 = splitBucket(c);
  EXPECT_EQ(remote2.label, *Label::parse("#0101"));
  EXPECT_EQ(c.label, *Label::parse("#0100"));
}

TEST(Split, PartitionsAtIntervalMedian) {
  LeafBucket b{*Label::parse("#01"), {}};  // covers [0.5, 1)
  for (double k : {0.55, 0.6, 0.74, 0.75, 0.8, 0.95}) b.records.push_back({k, "x"});
  LeafBucket remote = splitBucket(b);  // median 0.75
  // local = #011 covers [0.75, 1); remote = #010 covers [0.5, 0.75).
  for (const auto& r : b.records) EXPECT_GE(r.key, 0.75);
  for (const auto& r : remote.records) EXPECT_LT(r.key, 0.75);
  EXPECT_EQ(b.records.size() + remote.records.size(), 6u);
}

TEST(Split, RootSplit) {
  LeafBucket b{Label::root(), {}};
  for (double k : {0.1, 0.6}) b.records.push_back({k, "x"});
  LeafBucket remote = splitBucket(b);
  EXPECT_EQ(b.label, *Label::parse("#00"));
  EXPECT_EQ(remote.label, *Label::parse("#01"));
  EXPECT_EQ(dhtKeyFor(b.label), "#");          // stays at the root's key
  EXPECT_EQ(dhtKeyFor(remote.label), "#0");    // moves to the old label
}

TEST(Maintenance, LhtSplitCostsOneLookupAndHalfBucket) {
  dht::LocalDht d;
  LhtIndex::Options o;
  o.thetaSplit = 20;
  o.maxDepth = 20;
  LhtIndex idx(d, o);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 2000, 42);
  for (const auto& r : data) idx.insert(r);

  const auto& m = idx.meters().maintenance;
  ASSERT_GT(m.splits, 20u);
  // Eq. 1: exactly one DHT-lookup per split.
  EXPECT_EQ(m.dhtLookups, m.splits);
  // ~theta/2 records moved per split.
  const double movedPerSplit =
      static_cast<double>(m.recordsMoved) / static_cast<double>(m.splits);
  EXPECT_NEAR(movedPerSplit, 10.0, 2.5);
}

TEST(Maintenance, PhtSplitCostsFourLookupsAndWholeBucket) {
  dht::LocalDht d;
  pht::PhtIndex::Options o;
  o.thetaSplit = 20;
  o.maxDepth = 20;
  pht::PhtIndex idx(d, o);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 2000, 42);
  for (const auto& r : data) idx.insert(r);

  const auto& m = idx.meters().maintenance;
  ASSERT_GT(m.splits, 20u);
  // Eq. 2: ~4 lookups per split (boundary leaves lack one link).
  const double lookupsPerSplit =
      static_cast<double>(m.dhtLookups) / static_cast<double>(m.splits);
  EXPECT_GT(lookupsPerSplit, 3.5);
  EXPECT_LE(lookupsPerSplit, 4.0);
  // The whole saturated bucket moves: ~theta records per split.
  const double movedPerSplit =
      static_cast<double>(m.recordsMoved) / static_cast<double>(m.splits);
  EXPECT_NEAR(movedPerSplit, 20.0, 2.5);
}

TEST(Maintenance, LhtVsPhtSavingsMatchEq3) {
  // Fig. 7 shape: LHT moves ~1/2 the records and pays ~1/4 the lookups.
  dht::LocalDht d1, d2;
  LhtIndex::Options lo;
  lo.thetaSplit = 50;
  LhtIndex lht(d1, lo);
  pht::PhtIndex::Options po;
  po.thetaSplit = 50;
  pht::PhtIndex pht(d2, po);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 5000, 7);
  for (const auto& r : data) {
    lht.insert(r);
    pht.insert(r);
  }
  const auto& ml = lht.meters().maintenance;
  const auto& mp = pht.meters().maintenance;
  const double movedRatio =
      static_cast<double>(ml.recordsMoved) / static_cast<double>(mp.recordsMoved);
  const double lookupRatio =
      static_cast<double>(ml.dhtLookups) / static_cast<double>(mp.dhtLookups);
  EXPECT_NEAR(movedRatio, 0.5, 0.1);
  EXPECT_NEAR(lookupRatio, 0.25, 0.08);
}

TEST(Maintenance, AverageAlphaMatchesClosedForm) {
  // Sec. 9.2: with the label occupying one record slot, uniform data gives
  // average alpha = 1/2 + 1/(2 theta).
  for (common::u32 theta : {40u, 160u}) {
    dht::LocalDht d;
    LhtIndex::Options o;
    o.thetaSplit = theta;
    o.countLabelSlot = true;
    LhtIndex idx(d, o);
    auto data =
        workload::makeDataset(workload::Distribution::Uniform, 40 * theta, 99);
    for (const auto& r : data) idx.insert(r);
    const double expect = 0.5 + 0.5 / static_cast<double>(theta);
    EXPECT_GT(idx.meters().alpha.samples, 10u);
    EXPECT_NEAR(idx.meters().alpha.mean(), expect, 0.03) << theta;
  }
}

TEST(Maintenance, AlphaWithoutLabelSlotIsHalf) {
  dht::LocalDht d;
  LhtIndex::Options o;
  o.thetaSplit = 64;
  o.countLabelSlot = false;
  LhtIndex idx(d, o);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 4096, 5);
  for (const auto& r : data) idx.insert(r);
  EXPECT_NEAR(idx.meters().alpha.mean(), 0.5, 0.03);
}

TEST(Maintenance, MergeIsDualOfSplit) {
  dht::LocalDht d;
  LhtIndex::Options o;
  o.thetaSplit = 8;
  LhtIndex idx(d, o);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 400, 13);
  for (const auto& r : data) idx.insert(r);
  const size_t splitsBefore = idx.meters().maintenance.splits;
  ASSERT_GT(splitsBefore, 0u);
  // Delete everything; the tree must shrink via merges.
  for (const auto& r : data) idx.erase(r.key);
  EXPECT_EQ(idx.recordCount(), 0u);
  const auto& m = idx.meters().maintenance;
  EXPECT_GT(m.merges, m.splits / 2);
  // The tree collapses back toward a single bucket (one merge per erase, so
  // a short residual chain may remain once the records run out).
  size_t buckets = 0;
  idx.forEachBucket([&](const LeafBucket&) { ++buckets; });
  EXPECT_LE(buckets, 16u);
}

/// Forwards to an inner Dht, and runs a one-shot hook just before the
/// next apply to one key: another client's write, slipped in between two
/// steps of a protocol. A batched apply to the key fires it too, before
/// its round.
class HookBeforeApply final : public dht::ForwardingDht {
 public:
  explicit HookBeforeApply(dht::Dht& inner) : ForwardingDht(inner) {}
  void arm(std::string key, std::function<void()> hook) {
    key_ = std::move(key);
    hook_ = std::move(hook);
  }

 private:
  void onCall(Call& call, const Forward& forward) override {
    if (call.op == dht::DhtOp::Apply) fire(call.key);
    forward();
  }
  void onRound(Round& round, const Issue& issue) override {
    if (round.op == dht::DhtOp::Apply) {
      for (const dht::Key& key : round.keys) fire(key);
    }
    issue(round.all());
  }
  void fire(const dht::Key& key) {
    if (hook_ && key == key_) std::exchange(hook_, nullptr)();
  }

  std::string key_;
  std::function<void()> hook_;
};

TEST(Maintenance, InsertRacingACrashConsistentMergeIsKept) {
  // Two leaves, #00 {0.1, 0.2, 0.3, 0.4} under "#" and #01 {0.6, 0.7, 0.8}
  // under "#0". Erasing 0.1 merges them, #01 being the donor. Just before
  // the merging client's first write to the donor, another client inserts
  // 0.75 there. The merge must carry it into the parent, not delete it
  // with the donor.
  dht::LocalDht store;
  HookBeforeApply hooked(store);
  LhtIndex::Options o;
  o.thetaSplit = 8;
  o.crashConsistentSplits = true;
  LhtIndex merger(hooked, o);
  for (double k : {0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8}) merger.insert({k, "m"});
  LhtIndex::Options other = o;
  other.attachExisting = true;
  other.clientSeed = 2;
  LhtIndex writer(store, other);

  hooked.arm(dhtKeyFor(*Label::parse("#01")),
             [&] { ASSERT_TRUE(writer.insert({0.75, "w"}).ok); });
  ASSERT_TRUE(merger.erase(0.1).ok);
  ASSERT_EQ(merger.meters().maintenance.merges, 1u);

  std::vector<double> keys;
  merger.forEachBucket([&](const LeafBucket& b) {
    EXPECT_TRUE(b.clean());
    EXPECT_EQ(b.label, Label::root());
    for (const auto& r : b.records) keys.push_back(r.key);
  });
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<double>{0.2, 0.3, 0.4, 0.6, 0.7, 0.75, 0.8}));
}

TEST(Maintenance, InsertIntoAFrozenDonorFinishesTheMergeFirst) {
  // The same two leaves. Another client looks up #01 for 0.75; just before
  // its apply, the merging client freezes #01 and dies. The insert must
  // not land in the frozen donor: it re-resolves, its lookup finishes the
  // stranded merge, and the record lands in the parent (which it then
  // splits, being the seventh).
  dht::LocalDht store;
  dht::CrashDht crash(store);
  LhtIndex::Options o;
  o.thetaSplit = 8;
  o.crashConsistentSplits = true;
  LhtIndex merger(crash, o);
  for (double k : {0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8}) merger.insert({k, "m"});
  HookBeforeApply hooked(store);
  LhtIndex::Options other = o;
  other.attachExisting = true;
  other.clientSeed = 2;
  LhtIndex writer(hooked, other);

  hooked.arm(dhtKeyFor(*Label::parse("#01")), [&] {
    crash.armAfterWrites(2);  // the erase, then the freeze
    EXPECT_THROW(merger.erase(0.1), dht::CrashError);
  });
  ASSERT_TRUE(writer.insert({0.75, "w"}).ok);
  EXPECT_EQ(writer.repairStats().mergeRepairs, 1u);
  EXPECT_EQ(writer.meters().maintenance.splits, 1u);

  std::vector<double> keys;
  writer.forEachBucket([&](const LeafBucket& b) {
    EXPECT_TRUE(b.clean());
    for (const auto& r : b.records) keys.push_back(r.key);
  });
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<double>{0.2, 0.3, 0.4, 0.6, 0.7, 0.75, 0.8}));
}

TEST(Maintenance, OneSplitPerInsert) {
  // Even with heavily clustered input, a single insert performs at most one
  // split (paper Sec. 5's anti-cascading rule).
  dht::LocalDht d;
  LhtIndex::Options o;
  o.thetaSplit = 8;
  LhtIndex idx(d, o);
  size_t lastSplits = 0;
  common::Pcg32 rng(17);
  for (int i = 0; i < 400; ++i) {
    // Cluster keys inside a narrow band to force deep, lopsided splits.
    idx.insert({0.40625 + rng.nextDouble() / 1024.0, "c"});
    const size_t s = idx.meters().maintenance.splits;
    EXPECT_LE(s - lastSplits, 1u) << i;
    lastSplits = s;
  }
}

TEST(Maintenance, InsertionLookupsSeparateFromMaintenance) {
  dht::LocalDht d;
  LhtIndex idx(d, LhtIndex::Options{.thetaSplit = 16, .maxDepth = 20});
  auto data = workload::makeDataset(workload::Distribution::Uniform, 500, 3);
  for (const auto& r : data) idx.insert(r);
  const auto& m = idx.meters();
  // Insertion lookups = locate + ship per record; far more than maintenance.
  EXPECT_GT(m.insertion.dhtLookups, m.maintenance.dhtLookups);
  EXPECT_EQ(m.insertion.recordsMoved, 500u);
  // Cross-check against the substrate's own accounting.
  EXPECT_EQ(d.stats().lookups,
            m.insertion.dhtLookups + m.maintenance.dhtLookups);
}

}  // namespace
}  // namespace lht::core
