// Tests for the extensions beyond the paper's core operation set: bulk
// loading, successor/predecessor queries, and tree statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "dht/local_dht.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "lht/tree_stats.h"
#include "workload/generators.h"

namespace lht::core {
namespace {

TEST(BulkLoad, RecursiveSplitProducesLegalBuckets) {
  LeafBucket b{common::Label::root(), {}};
  for (int i = 0; i < 100; ++i) b.records.push_back({(i + 0.5) / 100.0, "x"});
  SplitPolicy policy{8, true, 20};
  std::vector<LeafBucket> remotes;
  splitBucketRecursively(b, policy, remotes);
  EXPECT_FALSE(policy.shouldSplit(b));
  for (const auto& rb : remotes) {
    EXPECT_FALSE(policy.shouldSplit(rb));
    for (const auto& r : rb.records) EXPECT_TRUE(rb.covers(r.key));
  }
  size_t total = b.records.size();
  for (const auto& rb : remotes) total += rb.records.size();
  EXPECT_EQ(total, 100u);
}

TEST(BulkLoad, MatchesIncrementalContent) {
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 2000, 5);

  dht::LocalDht d1, d2;
  LhtIndex one(d1, {.thetaSplit = 16, .maxDepth = 24});
  LhtIndex bulk(d2, {.thetaSplit = 16, .maxDepth = 24});
  for (const auto& r : data) one.insert(r);
  bulk.insertBatch(data);

  EXPECT_EQ(one.recordCount(), bulk.recordCount());
  auto a = one.rangeQuery(0.0, 1.0);
  auto b = bulk.rangeQuery(0.0, 1.0);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) EXPECT_EQ(a.records[i], b.records[i]);
}

TEST(BulkLoad, FarCheaperThanIncremental) {
  auto data = workload::makeDataset(workload::Distribution::Uniform, 5000, 6);
  dht::LocalDht d1, d2;
  LhtIndex one(d1, {.thetaSplit = 50, .maxDepth = 24});
  LhtIndex bulk(d2, {.thetaSplit = 50, .maxDepth = 24});
  for (const auto& r : data) one.insert(r);
  bulk.insertBatch(data);
  const auto oneCost = one.meters().insertion.dhtLookups;
  const auto bulkCost = bulk.meters().insertion.dhtLookups;
  // One lookup+apply per *leaf* instead of per record: >5x cheaper here.
  EXPECT_LT(bulkCost * 5, oneCost);
  // Structural work (splits) is also cheaper or equal per record.
  EXPECT_LE(bulk.meters().maintenance.dhtLookups,
            one.meters().maintenance.dhtLookups);
}

TEST(BulkLoad, EmptyAndSingleBatch) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 20});
  EXPECT_TRUE(idx.insertBatch({}).ok);
  EXPECT_EQ(idx.recordCount(), 0u);
  EXPECT_TRUE(idx.insertBatch({{0.5, "solo"}}).ok);
  EXPECT_EQ(idx.recordCount(), 1u);
  EXPECT_TRUE(idx.find(0.5).record.has_value());
}

TEST(BulkLoad, IntoExistingTree) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  index::ReferenceIndex oracle;
  auto first = workload::makeDataset(workload::Distribution::Uniform, 300, 7);
  for (const auto& r : first) {
    idx.insert(r);
    oracle.insert(r);
  }
  auto second = workload::makeDataset(workload::Distribution::Gaussian, 700, 8);
  idx.insertBatch(second);
  for (const auto& r : second) oracle.insert(r);
  auto mine = idx.rangeQuery(0.0, 1.0);
  EXPECT_EQ(mine.records.size(), oracle.recordCount());
}

TEST(CascadingSplits, ClearsOverflowImmediately) {
  dht::LocalDht d;
  LhtIndex::Options o{.thetaSplit = 8, .maxDepth = 30};
  o.allowCascadingSplits = true;
  LhtIndex idx(d, o);
  index::ReferenceIndex oracle;
  common::Pcg32 rng(19);
  common::u64 lastSplits = 0;
  bool sawBurst = false;
  for (int i = 0; i < 600; ++i) {
    // Clustered keys provoke multi-level splits.
    index::Record r{0.40625 + rng.nextDouble() / 2048.0, common::numbered("c", i)};
    idx.insert(r);
    oracle.insert(r);
    const common::u64 s = idx.meters().maintenance.splits;
    if (s - lastSplits > 1) sawBurst = true;
    lastSplits = s;
    // No leaf may stay saturated under the cascading policy.
    idx.forEachBucket([&](const LeafBucket& b) {
      EXPECT_TRUE(b.effectiveSize(true) < 8 || b.label.length() >= 30);
    });
  }
  EXPECT_TRUE(sawBurst);  // the policy actually differed from one-split
  auto mine = idx.rangeQuery(0.0, 1.0);
  EXPECT_EQ(mine.records.size(), oracle.recordCount());
}

TEST(SuccessorQuery, MatchesOracle) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  std::multimap<double, std::string> oracle;
  auto data = workload::makeDataset(workload::Distribution::Uniform, 800, 9);
  for (const auto& r : data) {
    idx.insert(r);
    oracle.emplace(r.key, r.payload);
  }
  common::Pcg32 rng(10);
  for (int q = 0; q < 200; ++q) {
    const double key = rng.nextDouble();
    auto mine = idx.successorQuery(key);
    auto it = oracle.lower_bound(key);
    if (it == oracle.end()) {
      EXPECT_FALSE(mine.record.has_value()) << key;
    } else {
      ASSERT_TRUE(mine.record.has_value()) << key;
      EXPECT_DOUBLE_EQ(mine.record->key, it->first) << key;
    }
  }
}

TEST(PredecessorQuery, MatchesOracle) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  std::multimap<double, std::string> oracle;
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 800, 11);
  for (const auto& r : data) {
    idx.insert(r);
    oracle.emplace(r.key, r.payload);
  }
  common::Pcg32 rng(12);
  for (int q = 0; q < 200; ++q) {
    const double key = rng.nextDouble();
    auto mine = idx.predecessorQuery(key);
    auto it = oracle.lower_bound(key);
    if (it == oracle.begin()) {
      EXPECT_FALSE(mine.record.has_value()) << key;
    } else {
      ASSERT_TRUE(mine.record.has_value()) << key;
      EXPECT_DOUBLE_EQ(mine.record->key, std::prev(it)->first) << key;
    }
  }
}

TEST(SuccessorQuery, CrossesEmptyLeaves) {
  dht::LocalDht d;
  LhtIndex::Options o{.thetaSplit = 4, .maxDepth = 20};
  o.enableMerge = false;
  LhtIndex idx(d, o);
  for (double k : {0.1, 0.12, 0.13, 0.15, 0.9, 0.95}) idx.insert({k, "x"});
  for (double k : {0.1, 0.12, 0.13, 0.15}) idx.erase(k);
  auto s = idx.successorQuery(0.05);
  ASSERT_TRUE(s.record.has_value());
  EXPECT_DOUBLE_EQ(s.record->key, 0.9);
  auto p = idx.predecessorQuery(0.5);
  EXPECT_FALSE(p.record.has_value());
}

TEST(SuccessorQuery, BoundaryBehaviour) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 20});
  idx.insert({0.5, "mid"});
  // successor(key) is inclusive; predecessor(key) is strict.
  EXPECT_DOUBLE_EQ(idx.successorQuery(0.5).record->key, 0.5);
  EXPECT_FALSE(idx.predecessorQuery(0.5).record.has_value());
  EXPECT_DOUBLE_EQ(idx.predecessorQuery(1.0).record->key, 0.5);
  EXPECT_DOUBLE_EQ(idx.successorQuery(0.0).record->key, 0.5);
}

TEST(TreeStats, CountsMatchIndex) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 1000, 13);
  for (const auto& r : data) idx.insert(r);
  auto s = TreeStats::collect(idx);
  EXPECT_EQ(s.totalRecords, idx.recordCount());
  EXPECT_GT(s.leafCount, 50u);
  EXPECT_GE(s.maxDepth, s.minDepth);
  EXPECT_GE(s.meanDepth, static_cast<double>(s.minDepth));
  EXPECT_LE(s.meanDepth, static_cast<double>(s.maxDepth));
  size_t fromHistogram = 0;
  for (size_t c : s.depthHistogram) fromHistogram += c;
  EXPECT_EQ(fromHistogram, s.leafCount);
  EXPECT_FALSE(s.summary().empty());
}

TEST(TreeStats, EmptyIndex) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 20});
  auto s = TreeStats::collect(idx);
  EXPECT_EQ(s.leafCount, 1u);
  EXPECT_EQ(s.totalRecords, 0u);
  EXPECT_EQ(s.emptyLeaves, 1u);
  EXPECT_EQ(s.minDepth, 1u);
  EXPECT_EQ(s.maxDepth, 1u);
}

TEST(TreeStats, GaussianTreeIsDeeperInTheMiddle) {
  // The space-partition strategy adapts depth to density (paper Fig. 2).
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 30});
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 2000, 14);
  for (const auto& r : data) idx.insert(r);
  common::u32 centerDepth = 0, edgeDepth = 0;
  idx.forEachBucket([&](const LeafBucket& b) {
    if (b.covers(0.5)) centerDepth = b.label.length();
    if (b.covers(0.01)) edgeDepth = b.label.length();
  });
  EXPECT_GT(centerDepth, edgeDepth);
}

}  // namespace
}  // namespace lht::core
