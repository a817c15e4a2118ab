#include "dht/can.h"

#include <gtest/gtest.h>

#include <string>

#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "workload/generators.h"

namespace lht::dht {
namespace {

CanDht makeCan(net::SimNetwork& net, size_t peers, common::u64 seed = 1) {
  CanDht::Options o;
  o.initialPeers = peers;
  o.seed = seed;
  return CanDht(net, o);
}

TEST(CanDht, BasicPutGet) {
  net::SimNetwork net;
  CanDht d = makeCan(net, 16);
  d.put("key1", "value1");
  EXPECT_EQ(d.get("key1"), "value1");
  EXPECT_FALSE(d.get("missing").has_value());
  EXPECT_TRUE(d.remove("key1"));
  EXPECT_FALSE(d.get("key1").has_value());
}

TEST(CanDht, ZonesTileTheTorus) {
  net::SimNetwork net;
  CanDht d = makeCan(net, 40);
  for (int i = 0; i < 300; ++i) d.put(common::numbered("k", i), "v");
  EXPECT_TRUE(d.checkZones());
  EXPECT_EQ(d.size(), 300u);
  EXPECT_EQ(d.peerCount(), 40u);
}

TEST(CanDht, RoutingReachesExactOwner) {
  net::SimNetwork net;
  CanDht d = makeCan(net, 64);
  for (int i = 0; i < 400; ++i) {
    d.storeDirect(common::numbered("k", i), common::numbered("v", i));
  }
  for (int i = 0; i < 400; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(CanDht, HopsScaleLikeSqrtN) {
  // CAN's signature: O(d * N^(1/d)) hops — for d=2, ~sqrt(N), well above
  // the logarithmic substrates but far below N.
  net::SimNetwork net;
  CanDht d = makeCan(net, 144);
  d.resetStats();
  for (int i = 0; i < 300; ++i) d.put(common::numbered("k", i), "v");
  const double meanHops =
      static_cast<double>(d.stats().hops) / static_cast<double>(d.stats().lookups);
  EXPECT_LT(meanHops, 4.0 * 12.0);  // well under a multiple of sqrt(144)
  EXPECT_GT(meanHops, 2.0);         // and clearly above the log substrates
}

TEST(CanDht, JoinSplitsLeaveMerges) {
  net::SimNetwork net;
  CanDht d = makeCan(net, 8);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  d.join("late-1");
  EXPECT_EQ(d.peerCount(), 9u);
  EXPECT_TRUE(d.checkZones());
  auto ids = d.peerIds();
  d.leave(ids[3]);
  d.leave(ids[5]);
  EXPECT_EQ(d.peerCount(), 7u);
  EXPECT_TRUE(d.checkZones());
  EXPECT_EQ(d.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(CanDht, ChurnStormKeepsPartitionConsistent) {
  net::SimNetwork net;
  CanDht d = makeCan(net, 10);
  for (int i = 0; i < 120; ++i) d.put(common::numbered("k", i), "v");
  common::Pcg32 rng(5);
  for (int round = 0; round < 30; ++round) {
    if (rng.below(2) == 0 || d.peerCount() < 4) {
      d.join("churn-" + std::to_string(round));
    } else {
      auto ids = d.peerIds();
      d.leave(ids[rng.below(static_cast<common::u32>(ids.size()))]);
    }
    ASSERT_TRUE(d.checkZones()) << round;
    ASSERT_EQ(d.size(), 120u) << round;
  }
  for (int i = 0; i < 120; ++i) EXPECT_TRUE(d.get(common::numbered("k", i)).has_value());
}

TEST(CanDht, ApplySemantics) {
  net::SimNetwork net;
  CanDht d = makeCan(net, 8);
  EXPECT_FALSE(d.apply("k", [](std::optional<Value>& v) { v = Value("a"); }));
  EXPECT_TRUE(d.apply("k", [](std::optional<Value>& v) { *v += "b"; }));
  EXPECT_EQ(d.get("k"), "ab");
}

TEST(CanDht, SinglePeer) {
  net::SimNetwork net;
  CanDht d = makeCan(net, 1);
  d.put("k", "v");
  EXPECT_EQ(d.get("k"), "v");
  EXPECT_TRUE(d.checkZones());
}

TEST(LhtOnCan, FullOracleAgreement) {
  // The fifth substrate the identical index runs on unchanged.
  net::SimNetwork net;
  CanDht d = makeCan(net, 20);
  core::LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  index::ReferenceIndex oracle;
  auto data = workload::makeDataset(workload::Distribution::Uniform, 400, 9);
  for (const auto& r : data) {
    idx.insert(r);
    oracle.insert(r);
  }
  auto mine = idx.rangeQuery(0.25, 0.75);
  auto truth = oracle.rangeQuery(0.25, 0.75);
  EXPECT_EQ(mine.records.size(), truth.records.size());
  EXPECT_DOUBLE_EQ(idx.minRecord().record->key, oracle.minRecord().record->key);
}

}  // namespace
}  // namespace lht::dht
