// Tests for Chord replication and ungraceful-failure recovery, plus the
// churn driver — the robustness properties the paper's intro attributes to
// DHT substrates ("DHTs are resistant to node failures").
#include <gtest/gtest.h>

#include <string>

#include "dht/chord.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "sim/churn.h"
#include "workload/generators.h"

namespace lht::dht {
namespace {

ChordDht makeRing(net::SimNetwork& net, size_t peers, size_t replication) {
  ChordDht::Options o;
  o.initialPeers = peers;
  o.replication = replication;
  o.seed = 3;
  return ChordDht(net, o);
}

TEST(ChordReplication, ReplicasPlacedOnSuccessors) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 16, 3);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  EXPECT_TRUE(d.checkRing());
  EXPECT_TRUE(d.checkReplication());
}

TEST(ChordReplication, SurvivesUngracefulFailure) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 12, 3);
  for (int i = 0; i < 300; ++i) d.put(common::numbered("k", i), common::numbered("v", i));
  common::Pcg32 rng(4);
  for (int round = 0; round < 6; ++round) {
    auto ids = d.nodeIds();
    d.fail(ids[rng.below(static_cast<common::u32>(ids.size()))]);
    ASSERT_TRUE(d.checkRing()) << round;
    ASSERT_TRUE(d.checkReplication()) << round;
    ASSERT_EQ(d.size(), 300u) << round;
  }
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(d.get(common::numbered("k", i)), common::numbered("v", i)) << i;
  }
}

TEST(ChordReplication, WithoutReplicationFailureLosesData) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8, 1);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), "v");
  auto ids = d.nodeIds();
  // Fail the peer holding the most keys: data must actually disappear.
  common::u64 victim = ids[0];
  for (auto id : ids) {
    if (d.keysOn(id) > d.keysOn(victim)) victim = id;
  }
  ASSERT_GT(d.keysOn(victim), 0u);
  const size_t before = d.size();
  d.fail(victim);
  EXPECT_LT(d.size(), before);
  EXPECT_TRUE(d.checkRing());
}

TEST(ChordReplication, RemoveAlsoDropsReplicas) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8, 3);
  d.put("k", "v");
  EXPECT_TRUE(d.remove("k"));
  EXPECT_TRUE(d.checkReplication());
  // After a failure, the removed key must not resurrect from a stale copy.
  auto ids = d.nodeIds();
  d.fail(ids[2]);
  EXPECT_FALSE(d.get("k").has_value());
}

TEST(ChordReplication, ApplyRefreshesReplicas) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8, 2);
  d.put("k", "v1");
  d.apply("k", [](std::optional<Value>& v) { *v = "v2"; });
  EXPECT_TRUE(d.checkReplication());
  // Kill the owner; the surviving replica must carry the *new* value.
  d.fail(d.ownerOf("k"));
  EXPECT_EQ(d.get("k"), "v2");
}

TEST(ChordReplication, JoinAndLeaveKeepReplicationInvariant) {
  net::SimNetwork net;
  ChordDht d = makeRing(net, 8, 3);
  for (int i = 0; i < 150; ++i) d.put(common::numbered("k", i), "v");
  d.join("late-a");
  ASSERT_TRUE(d.checkReplication());
  d.join("late-b");
  auto ids = d.nodeIds();
  d.leave(ids[1]);
  ASSERT_TRUE(d.checkReplication());
  EXPECT_EQ(d.size(), 150u);
}

TEST(LhtOnReplicatedChord, IndexSurvivesPeerFailures) {
  net::SimNetwork net;
  ChordDht::Options o;
  o.initialPeers = 16;
  o.replication = 3;
  ChordDht d(net, o);
  core::LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  index::ReferenceIndex oracle;
  common::Pcg32 rng(7);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 500, 8);
  for (size_t i = 0; i < data.size(); ++i) {
    idx.insert(data[i]);
    oracle.insert(data[i]);
    if (i % 100 == 50) {
      auto ids = d.nodeIds();
      d.fail(ids[rng.below(static_cast<common::u32>(ids.size()))]);
      d.join("replacement-" + std::to_string(i));
    }
  }
  auto mine = idx.rangeQuery(0.0, 1.0);
  EXPECT_EQ(mine.records.size(), oracle.recordCount());
  EXPECT_TRUE(d.checkReplication());
}

}  // namespace
}  // namespace lht::dht

namespace lht::sim {
namespace {

TEST(ChurnDriver, FiresRoughlyOncePerPeriod) {
  net::SimNetwork net;
  dht::ChordDht::Options o;
  o.initialPeers = 8;
  dht::ChordDht d(net, o);
  ChurnConfig cfg;
  cfg.period = 10;
  cfg.seed = 5;
  ChurnDriver driver(d, cfg);
  for (int i = 0; i < 1000; ++i) driver.maybeChurn();
  EXPECT_NEAR(static_cast<double>(driver.events()), 100.0, 35.0);
  EXPECT_TRUE(d.checkRing());
}

TEST(ChurnDriver, RespectsMinPeers) {
  net::SimNetwork net;
  dht::ChordDht::Options o;
  o.initialPeers = 5;
  dht::ChordDht d(net, o);
  ChurnConfig cfg;
  cfg.joinWeight = 0.0;  // leave-only pressure
  cfg.leaveWeight = 1.0;
  cfg.minPeers = 4;
  ChurnDriver driver(d, cfg);
  for (int i = 0; i < 50; ++i) driver.churnOnce();
  EXPECT_GE(d.nodeIds().size(), 4u);
}

TEST(ChurnDriver, FailEventsNeedReplicationToBeLossless) {
  net::SimNetwork net;
  dht::ChordDht::Options o;
  o.initialPeers = 12;
  o.replication = 3;
  dht::ChordDht d(net, o);
  for (int i = 0; i < 200; ++i) d.put(common::numbered("k", i), "v");
  ChurnConfig cfg;
  cfg.joinWeight = 1.0;
  cfg.leaveWeight = 0.5;
  cfg.failWeight = 1.0;
  cfg.minPeers = 6;
  cfg.seed = 11;
  ChurnDriver driver(d, cfg);
  for (int i = 0; i < 40; ++i) driver.churnOnce();
  EXPECT_GT(driver.fails(), 0u);
  EXPECT_EQ(d.size(), 200u);
  EXPECT_TRUE(d.checkReplication());
}

}  // namespace
}  // namespace lht::sim
