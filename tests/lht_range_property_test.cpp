// Property tests for range queries (paper Sec. 6): completeness and order
// against the oracle on randomized trees and workloads, plus the B+3
// bandwidth bound. Each case runs through three clients of one tree: the
// cache-off writer (Alg. 3/4), a reader whose warm leaf cache plans every
// range, and a reader whose cache the writer's later splits made stale.
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>

#include "dht/local_dht.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "workload/generators.h"

namespace lht::core {
namespace {

struct RangeCase {
  workload::Distribution dist;
  size_t n;
  common::u32 theta;
  common::u64 seed;
};

class LhtRangeProperty : public ::testing::TestWithParam<RangeCase> {};

TEST_P(LhtRangeProperty, MatchesOracleOnRandomRanges) {
  const RangeCase& c = GetParam();
  dht::LocalDht d;
  LhtIndex::Options o;
  o.thetaSplit = c.theta;
  o.maxDepth = 30;
  LhtIndex idx(d, o);
  LhtIndex::Options cached = o;
  cached.useLeafCache = true;
  cached.cacheDecodedBuckets = true;
  cached.attachExisting = true;
  cached.clientSeed = 2;
  LhtIndex stale(d, cached);
  cached.clientSeed = 3;
  LhtIndex warm(d, cached);
  index::ReferenceIndex oracle;
  auto data = workload::makeDataset(c.dist, c.n, c.seed);
  for (size_t i = 0; i < data.size(); ++i) {
    // The stale reader caches the tree as it stands halfway through; the
    // writer's later splits move the leaves it planned with.
    if (i == data.size() / 2) (void)stale.rangeQuery(0.0, 1.0);
    idx.insert(data[i]);
    oracle.insert(data[i]);
    if (i % 7 == 0) {
      // A second payload under the same key, ordered before the first:
      // recordLess breaks the tie inside one leaf.
      const index::Record dup{data[i].key, "dup" + data[i].payload};
      idx.insert(dup);
      oracle.insert(dup);
    }
  }
  (void)warm.rangeQuery(0.0, 1.0);
  const common::u64 warmHits = warm.leafCache().hits();
  const common::u64 warmMisses = warm.leafCache().misses();
  const common::u64 staleHits = stale.leafCache().hits();

  common::Pcg32 rng(c.seed ^ 0xABCDu);
  common::u64 ranges = 0;
  for (int q = 0; q < 120; ++q) {
    // Random spans across four orders of magnitude, plus boundary-aligned
    // and degenerate ranges.
    double lo, hi;
    switch (q % 5) {
      case 0: {
        const double span = std::pow(2.0, -1.0 - static_cast<double>(rng.below(10)));
        auto spec = workload::makeRange(span, rng);
        lo = spec.lo;
        hi = spec.hi;
        break;
      }
      case 1:  // dyadic-aligned bounds, the tree's own cut points
        lo = static_cast<double>(rng.below(16)) / 16.0;
        hi = lo + static_cast<double>(1 + rng.below(4)) / 16.0;
        hi = std::min(hi, 1.0);
        break;
      case 2:  // whole space
        lo = 0.0;
        hi = 1.0;
        break;
      case 3:  // tiny range around an existing key
        lo = data[rng.below(static_cast<common::u32>(data.size()))].key;
        hi = std::min(1.0, lo + 1e-9);
        break;
      default:  // random pair
        lo = rng.nextDouble();
        hi = rng.nextDouble();
        if (lo > hi) std::swap(lo, hi);
        break;
    }
    if (hi <= lo) continue;
    ranges += 1;
    auto truth = oracle.rangeQuery(lo, hi);
    std::sort(truth.records.begin(), truth.records.end(), index::recordLess);
    for (LhtIndex* client : {&idx, &warm, &stale}) {
      const char* who = client == &idx ? "cache off" : client == &warm ? "warm" : "stale";
      auto mine = client->rangeQuery(lo, hi);
      ASSERT_EQ(mine.records.size(), truth.records.size())
          << who << " [" << lo << ", " << hi << ") q=" << q;
      for (size_t i = 0; i < mine.records.size(); ++i) {
        ASSERT_EQ(mine.records[i], truth.records[i]) << who << " " << i;
      }
      // Latency never exceeds bandwidth, and both are positive.
      EXPECT_LE(mine.stats.parallelSteps, mine.stats.dhtLookups) << who;
      EXPECT_GE(mine.stats.dhtLookups, 1u) << who;
      if (client != &idx) continue;
      // Paper Sec. 6.3: at most B + 3 DHT-lookups for B >= 2 result
      // buckets (a single-leaf range degenerates to an exact-match lookup
      // instead). The bound is Alg. 3/4's, with no client state.
      if (mine.stats.bucketsTouched >= 2) {
        EXPECT_LE(mine.stats.dhtLookups, mine.stats.bucketsTouched + 3)
            << "[" << lo << ", " << hi << ")";
      }
    }
  }
  // Every range of the warm reader was planned from its cache: one tiling
  // hit each, and no miss. The stale reader planned too.
  EXPECT_EQ(warm.leafCache().misses(), warmMisses);
  EXPECT_GE(warm.leafCache().hits() - warmHits, ranges);
  EXPECT_GT(stale.leafCache().hits(), staleHits);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LhtRangeProperty,
    ::testing::Values(
        RangeCase{workload::Distribution::Uniform, 100, 4, 1},
        RangeCase{workload::Distribution::Uniform, 1000, 8, 2},
        RangeCase{workload::Distribution::Uniform, 3000, 16, 3},
        RangeCase{workload::Distribution::Gaussian, 100, 4, 4},
        RangeCase{workload::Distribution::Gaussian, 1000, 8, 5},
        RangeCase{workload::Distribution::Gaussian, 3000, 16, 6},
        RangeCase{workload::Distribution::Zipf, 1000, 8, 7},
        RangeCase{workload::Distribution::Uniform, 1, 4, 8},
        RangeCase{workload::Distribution::Uniform, 20000, 64, 9}),
    [](const auto& info) {
      const RangeCase& c = info.param;
      return workload::distributionName(c.dist) + "_n" + std::to_string(c.n) +
             "_t" + std::to_string(c.theta);
    });

TEST(LhtRange, EmptyAndDegenerateRanges) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 20});
  auto data = workload::makeDataset(workload::Distribution::Uniform, 200, 10);
  for (const auto& r : data) idx.insert(r);
  EXPECT_TRUE(idx.rangeQuery(0.5, 0.5).records.empty());
  EXPECT_TRUE(idx.rangeQuery(0.7, 0.3).records.empty());
  EXPECT_EQ(idx.rangeQuery(0.5, 0.5).stats.dhtLookups, 0u);
}

TEST(LhtRange, SingleLeafRangeIsCheap) {
  // Case 1 of Algorithm 4: range within one leaf resolves via exact lookup.
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 20});
  auto data = workload::makeDataset(workload::Distribution::Uniform, 500, 11);
  for (const auto& r : data) idx.insert(r);
  auto rr = idx.rangeQuery(0.5, 0.5 + 1e-12);
  EXPECT_LE(rr.stats.dhtLookups, 8u);  // ~1 + log(D/2)
}

TEST(LhtRange, ResultsAreSortedByKey) {
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 20});
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 800, 12);
  for (const auto& r : data) idx.insert(r);
  auto rr = idx.rangeQuery(0.1, 0.9);
  EXPECT_TRUE(std::is_sorted(
      rr.records.begin(), rr.records.end(),
      [](const auto& a, const auto& b) { return a.key < b.key; }));
}

TEST(LhtRange, LatencyIsLogarithmicNotLinear) {
  // A wide range over many buckets must resolve in far fewer parallel steps
  // than buckets (the whole point of the local-tree fan-out).
  dht::LocalDht d;
  LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  auto data = workload::makeDataset(workload::Distribution::Uniform, 8000, 13);
  for (const auto& r : data) idx.insert(r);
  auto rr = idx.rangeQuery(0.05, 0.95);
  ASSERT_GT(rr.stats.bucketsTouched, 100u);
  EXPECT_LT(rr.stats.parallelSteps, rr.stats.bucketsTouched / 4);
}

}  // namespace
}  // namespace lht::core
