#include "dht/pastry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "workload/generators.h"

namespace lht::dht {
namespace {

PastryDht makePastry(net::SimNetwork& net, size_t peers, common::u64 seed = 1) {
  PastryDht::Options o;
  o.initialPeers = peers;
  o.seed = seed;
  return PastryDht(net, o);
}

TEST(PastryDht, BasicPutGet) {
  net::SimNetwork net;
  PastryDht d = makePastry(net, 16);
  d.put("key1", "value1");
  EXPECT_EQ(d.get("key1"), "value1");
  EXPECT_FALSE(d.get("missing").has_value());
  EXPECT_TRUE(d.remove("key1"));
  EXPECT_FALSE(d.get("key1").has_value());
}

TEST(PastryDht, RoutingReachesExactOwnerForManyKeys) {
  net::SimNetwork net;
  PastryDht d = makePastry(net, 128);
  for (int i = 0; i < 600; ++i) {
    d.storeDirect(common::numbered("k", i), common::numbered("v", i));
  }
  for (int i = 0; i < 600; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
  EXPECT_TRUE(d.checkTables());
}

TEST(PastryDht, HopsAreLogarithmic) {
  net::SimNetwork net;
  PastryDht d = makePastry(net, 256);
  d.resetStats();
  for (int i = 0; i < 400; ++i) d.put(common::numbered("k", i), "v");
  const double meanHops =
      static_cast<double>(d.stats().hops) / static_cast<double>(d.stats().lookups);
  // Prefix routing resolves ~1 hex digit per hop: far below log2(N).
  EXPECT_LT(meanHops, std::log2(256.0));
  EXPECT_GT(meanHops, 1.0);
}

TEST(PastryDht, JoinAndLeavePreserveData) {
  net::SimNetwork net;
  PastryDht d = makePastry(net, 8);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  d.join("late-1");
  d.join("late-2");
  auto ids = d.nodeIds();
  d.leave(ids[4]);
  EXPECT_TRUE(d.checkTables());
  EXPECT_EQ(d.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(PastryDht, ChurnStormStaysConsistent) {
  net::SimNetwork net;
  PastryDht d = makePastry(net, 12);
  for (int i = 0; i < 100; ++i) d.put(common::numbered("k", i), "v");
  common::Pcg32 rng(5);
  for (int round = 0; round < 25; ++round) {
    if (rng.below(2) == 0 || d.nodeIds().size() < 4) {
      d.join("churn-" + std::to_string(round));
    } else {
      auto ids = d.nodeIds();
      d.leave(ids[rng.below(static_cast<common::u32>(ids.size()))]);
    }
    ASSERT_TRUE(d.checkTables()) << round;
    ASSERT_EQ(d.size(), 100u) << round;
  }
}

TEST(PastryDht, ApplySemantics) {
  net::SimNetwork net;
  PastryDht d = makePastry(net, 8);
  EXPECT_FALSE(d.apply("k", [](std::optional<Value>& v) { v = Value("a"); }));
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { *v += "b"; }));
  EXPECT_EQ(d.get("k"), "ab");
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { v.reset(); }));
  EXPECT_EQ(d.size(), 0u);
}

TEST(PastryDht, SmallRingsWork) {
  for (size_t peers : {1u, 2u, 3u}) {
    net::SimNetwork net;
    PastryDht d = makePastry(net, peers);
    for (int i = 0; i < 30; ++i) d.put(common::numbered("k", i), "v");
    EXPECT_EQ(d.size(), 30u) << peers;
    for (int i = 0; i < 30; ++i) EXPECT_TRUE(d.get(common::numbered("k", i)).has_value());
  }
}

TEST(LhtOnPastry, FullOracleAgreement) {
  // The paper's "adaptable to any DHT substrate": the identical index code
  // runs over Pastry with zero changes.
  net::SimNetwork net;
  PastryDht d = makePastry(net, 24);
  core::LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  index::ReferenceIndex oracle;
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 400, 9);
  for (const auto& r : data) {
    idx.insert(r);
    oracle.insert(r);
  }
  auto mine = idx.rangeQuery(0.2, 0.8);
  auto truth = oracle.rangeQuery(0.2, 0.8);
  EXPECT_EQ(mine.records.size(), truth.records.size());
  EXPECT_DOUBLE_EQ(idx.minRecord().record->key, oracle.minRecord().record->key);
  EXPECT_DOUBLE_EQ(idx.maxRecord().record->key, oracle.maxRecord().record->key);
}

}  // namespace
}  // namespace lht::dht
