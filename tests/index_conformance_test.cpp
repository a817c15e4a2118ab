// OrderedIndex conformance suite: one parameterized battery of contract
// checks run against EVERY index implementation in the library (LHT, both
// PHT modes, DST, RST, LPR) on every key distribution. Whatever their cost
// profiles, all implementations must answer identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "dht/local_dht.h"
#include "dst/dst_index.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "lpr/lpr_index.h"
#include "pht/pht_index.h"
#include "rst/rst_index.h"
#include "workload/generators.h"

namespace lht {
namespace {

struct Fixture {
  std::unique_ptr<dht::LocalDht> dht;
  std::unique_ptr<index::OrderedIndex> index;
};

using Factory = std::function<Fixture()>;

struct ConformanceCase {
  std::string name;
  Factory make;
  workload::Distribution dist;
};

Fixture makeLht() {
  Fixture f;
  f.dht = std::make_unique<dht::LocalDht>();
  f.index = std::make_unique<core::LhtIndex>(
      *f.dht, core::LhtIndex::Options{.thetaSplit = 8, .maxDepth = 26});
  return f;
}

Fixture makePht(pht::PhtIndex::RangeMode mode) {
  Fixture f;
  f.dht = std::make_unique<dht::LocalDht>();
  pht::PhtIndex::Options o;
  o.thetaSplit = 8;
  o.maxDepth = 26;
  o.rangeMode = mode;
  f.index = std::make_unique<pht::PhtIndex>(*f.dht, o);
  return f;
}

Fixture makeDst() {
  Fixture f;
  f.dht = std::make_unique<dht::LocalDht>();
  f.index = std::make_unique<dst::DstIndex>(*f.dht, dst::DstIndex::Options{.depth = 14});
  return f;
}

Fixture makeRst() {
  Fixture f;
  f.dht = std::make_unique<dht::LocalDht>();
  rst::RstIndex::Options o;
  o.thetaSplit = 8;
  o.maxDepth = 26;
  o.peerCount = 16;
  f.index = std::make_unique<rst::RstIndex>(*f.dht, o);
  return f;
}

Fixture makeLpr() {
  Fixture f;  // LPR is its own overlay; no DHT needed.
  f.index = std::make_unique<lpr::LprIndex>(lpr::LprIndex::Options{.peers = 16, .seed = 3});
  return f;
}

class IndexConformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(IndexConformance, FullContractAgainstOracle) {
  auto fixture = GetParam().make();
  index::OrderedIndex& idx = *fixture.index;
  index::ReferenceIndex oracle;

  // Mixed mutate phase.
  auto data = workload::makeDataset(GetParam().dist, 700, 42);
  common::Pcg32 rng(43);
  for (size_t i = 0; i < data.size(); ++i) {
    idx.insert(data[i]);
    oracle.insert(data[i]);
    if (i % 5 == 4) {
      const double victim = data[rng.below(static_cast<common::u32>(i + 1))].key;
      EXPECT_EQ(idx.erase(victim).ok, oracle.erase(victim).ok) << i;
    }
  }
  ASSERT_EQ(idx.recordCount(), oracle.recordCount());

  // Exact-match conformance (hits and misses).
  for (int q = 0; q < 100; ++q) {
    const double key =
        q % 2 == 0 ? data[rng.below(700)].key : rng.nextDouble();
    auto mine = idx.find(key);
    auto truth = oracle.find(key);
    ASSERT_EQ(mine.record.has_value(), truth.record.has_value()) << key;
    if (mine.record) {
      EXPECT_DOUBLE_EQ(mine.record->key, truth.record->key);
    }
  }

  // Range conformance across spans, including degenerate and full-space.
  for (int q = 0; q < 60; ++q) {
    double lo = rng.nextDouble();
    double hi = rng.nextDouble();
    if (lo > hi) std::swap(lo, hi);
    auto mine = idx.rangeQuery(lo, hi);
    auto truth = oracle.rangeQuery(lo, hi);
    std::sort(truth.records.begin(), truth.records.end(), index::recordLess);
    ASSERT_EQ(mine.records.size(), truth.records.size())
        << "[" << lo << "," << hi << ")";
    for (size_t i = 0; i < truth.records.size(); ++i) {
      ASSERT_EQ(mine.records[i], truth.records[i]);
    }
  }
  EXPECT_TRUE(idx.rangeQuery(0.5, 0.5).records.empty());
  EXPECT_EQ(idx.rangeQuery(0.0, 1.0).records.size(), oracle.recordCount());

  // Min/max conformance.
  auto mn = idx.minRecord();
  auto mx = idx.maxRecord();
  ASSERT_TRUE(mn.record.has_value());
  ASSERT_TRUE(mx.record.has_value());
  EXPECT_DOUBLE_EQ(mn.record->key, oracle.minRecord().record->key);
  EXPECT_DOUBLE_EQ(mx.record->key, oracle.maxRecord().record->key);

  // Drain everything; the index must empty cleanly.
  auto all = oracle.rangeQuery(0.0, 1.0);
  for (const auto& r : all.records) idx.erase(r.key);
  EXPECT_EQ(idx.recordCount(), 0u);
  EXPECT_FALSE(idx.minRecord().record.has_value());
  EXPECT_TRUE(idx.rangeQuery(0.0, 1.0).records.empty());
}

std::vector<ConformanceCase> allCases() {
  std::vector<ConformanceCase> out;
  const std::pair<std::string, Factory> impls[] = {
      {"lht", makeLht},
      {"pht_seq", [] { return makePht(pht::PhtIndex::RangeMode::Sequential); }},
      {"pht_par", [] { return makePht(pht::PhtIndex::RangeMode::Parallel); }},
      {"dst", makeDst},
      {"rst", makeRst},
      {"lpr", makeLpr},
  };
  for (const auto& [name, make] : impls) {
    for (auto dist : {workload::Distribution::Uniform,
                      workload::Distribution::Gaussian,
                      workload::Distribution::Zipf}) {
      out.push_back({name + "_" + workload::distributionName(dist), make, dist});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllImplementations, IndexConformance,
                         ::testing::ValuesIn(allCases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace lht
