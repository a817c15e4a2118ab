// Cross-substrate churn coverage: both index designs stay oracle-correct
// while peers join and leave on every simulated overlay (the paper's
// "robustness is the DHT's job" division of labour, exercised everywhere).
#include <gtest/gtest.h>

#include <string>

#include "dht/can.h"
#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/pastry.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "pht/pht_index.h"
#include "workload/generators.h"

namespace lht {
namespace {

/// Drives inserts interleaved with join/leave events, then checks a full
/// range query against the oracle.
template <typename JoinFn, typename LeaveFn>
void runChurnWorkload(index::OrderedIndex& idx, JoinFn join, LeaveFn leave,
                      common::u64 seed) {
  index::ReferenceIndex oracle;
  common::Pcg32 rng(seed);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 350, seed);
  for (size_t i = 0; i < data.size(); ++i) {
    idx.insert(data[i]);
    oracle.insert(data[i]);
    if (i % 50 == 25) join("churn-" + std::to_string(i));
    if (i % 50 == 49) leave();
  }
  auto mine = idx.rangeQuery(0.0, 1.0);
  ASSERT_EQ(mine.records.size(), oracle.recordCount());
  auto mid = idx.rangeQuery(0.3, 0.7);
  ASSERT_EQ(mid.records.size(), oracle.rangeQuery(0.3, 0.7).records.size());
}

TEST(CrossSubstrateChurn, LhtOnPastry) {
  net::SimNetwork net;
  dht::PastryDht::Options o;
  o.initialPeers = 12;
  dht::PastryDht d(net, o);
  core::LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  common::Pcg32 pick(1);
  runChurnWorkload(
      idx, [&](const std::string& n) { d.join(n); },
      [&] {
        auto ids = d.nodeIds();
        if (ids.size() > 4) d.leave(ids[pick.below(static_cast<common::u32>(ids.size()))]);
      },
      11);
  EXPECT_TRUE(d.checkTables());
}

TEST(CrossSubstrateChurn, LhtOnCan) {
  net::SimNetwork net;
  dht::CanDht::Options o;
  o.initialPeers = 12;
  dht::CanDht d(net, o);
  core::LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  common::Pcg32 pick(2);
  runChurnWorkload(
      idx, [&](const std::string& n) { d.join(n); },
      [&] {
        auto ids = d.peerIds();
        if (ids.size() > 4) d.leave(ids[pick.below(static_cast<common::u32>(ids.size()))]);
      },
      12);
  EXPECT_TRUE(d.checkZones());
}

TEST(CrossSubstrateChurn, LhtOnKademlia) {
  net::SimNetwork net;
  dht::KademliaDht::Options o;
  o.initialPeers = 12;
  dht::KademliaDht d(net, o);
  core::LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  common::Pcg32 pick(3);
  runChurnWorkload(
      idx, [&](const std::string& n) { d.join(n); },
      [&] {
        auto ids = d.nodeIds();
        if (ids.size() > 4) d.leave(ids[pick.below(static_cast<common::u32>(ids.size()))]);
      },
      13);
  EXPECT_TRUE(d.checkTables());
}

TEST(CrossSubstrateChurn, PhtOnChord) {
  // The baseline's B+ links must also survive churn: link targets are DHT
  // keys, not peer addresses, so hand-offs are invisible to the index.
  net::SimNetwork net;
  dht::ChordDht::Options o;
  o.initialPeers = 12;
  dht::ChordDht d(net, o);
  pht::PhtIndex::Options po;
  po.thetaSplit = 8;
  po.maxDepth = 24;
  pht::PhtIndex idx(d, po);
  common::Pcg32 pick(4);
  runChurnWorkload(
      idx, [&](const std::string& n) { d.join(n); },
      [&] {
        auto ids = d.nodeIds();
        if (d.peerCount() > 4) d.leave(ids[pick.below(static_cast<common::u32>(ids.size()))]);
      },
      14);
  EXPECT_TRUE(d.checkRing());
}

/// Ungraceful-failure coverage for the non-Chord substrates: with
/// replication >= 2 a fail() must lose nothing (surviving replicas are
/// promoted onto the new owners), and with replication == 1 — and only
/// then — the victim's keys are genuinely gone.
template <typename DhtT, typename IdsFn, typename CheckFn>
void runFailThenRead(DhtT& d, IdsFn ids, CheckFn check, size_t replication,
                     common::u64 seed) {
  constexpr size_t kKeys = 120;
  for (size_t i = 0; i < kKeys; ++i) {
    d.put(common::numbered("k", i), common::numbered("v", i));
  }
  common::Pcg32 pick(seed);
  for (int round = 0; round < 4; ++round) {
    auto victims = ids();
    ASSERT_GT(victims.size(), 4u);
    d.fail(victims[pick.below(static_cast<common::u32>(victims.size()))]);
  }
  size_t alive = 0;
  for (size_t i = 0; i < kKeys; ++i) {
    auto v = d.get(common::numbered("k", i));
    if (!v.has_value()) continue;
    EXPECT_EQ(*v, common::numbered("v", i));
    alive += 1;
  }
  if (replication >= 2) {
    // Four spaced single-peer failures can never outrun one spare copy.
    EXPECT_EQ(alive, kKeys);
  } else {
    EXPECT_LT(alive, kKeys);  // unreplicated: the victims' keys are gone
  }
  EXPECT_TRUE(check());
}

TEST(CrossSubstrateFail, KademliaReplicatedSurvivesUnreplicatedLoses) {
  for (size_t replication : {size_t{3}, size_t{1}}) {
    net::SimNetwork net;
    dht::KademliaDht::Options o;
    o.initialPeers = 12;
    o.replication = replication;
    dht::KademliaDht d(net, o);
    SCOPED_TRACE("replication=" + std::to_string(replication));
    runFailThenRead(
        d, [&] { return d.nodeIds(); }, [&] { return d.checkTables(); },
        replication, 31);
  }
}

TEST(CrossSubstrateFail, PastryReplicatedSurvivesUnreplicatedLoses) {
  for (size_t replication : {size_t{3}, size_t{1}}) {
    net::SimNetwork net;
    dht::PastryDht::Options o;
    o.initialPeers = 12;
    o.replication = replication;
    dht::PastryDht d(net, o);
    SCOPED_TRACE("replication=" + std::to_string(replication));
    runFailThenRead(
        d, [&] { return d.nodeIds(); }, [&] { return d.checkTables(); },
        replication, 32);
  }
}

TEST(CrossSubstrateFail, CanReplicatedSurvivesUnreplicatedLoses) {
  for (size_t replication : {size_t{3}, size_t{1}}) {
    net::SimNetwork net;
    dht::CanDht::Options o;
    o.initialPeers = 12;
    o.replication = replication;
    dht::CanDht d(net, o);
    SCOPED_TRACE("replication=" + std::to_string(replication));
    runFailThenRead(
        d, [&] { return d.peerIds(); }, [&] { return d.checkZones(); },
        replication, 33);
  }
}

TEST(CrossSubstrateFail, LhtStaysOracleCorrectOverReplicatedKademlia) {
  // The full index over a replicated XOR substrate under fail()-churn:
  // the "robustness is the DHT's job" division of labour, now including
  // ungraceful exits.
  net::SimNetwork net;
  dht::KademliaDht::Options o;
  o.initialPeers = 12;
  o.replication = 3;
  dht::KademliaDht d(net, o);
  core::LhtIndex idx(d, {.thetaSplit = 8, .maxDepth = 24});
  common::Pcg32 pick(6);
  runChurnWorkload(
      idx, [&](const std::string& n) { d.join(n); },
      [&] {
        auto ids = d.nodeIds();
        if (ids.size() > 4) d.fail(ids[pick.below(static_cast<common::u32>(ids.size()))]);
      },
      16);
  EXPECT_TRUE(d.checkTables());
}

TEST(CrossSubstrateChurn, PhtOnPastry) {
  net::SimNetwork net;
  dht::PastryDht::Options o;
  o.initialPeers = 12;
  dht::PastryDht d(net, o);
  pht::PhtIndex::Options po;
  po.thetaSplit = 8;
  po.maxDepth = 24;
  pht::PhtIndex idx(d, po);
  common::Pcg32 pick(5);
  runChurnWorkload(
      idx, [&](const std::string& n) { d.join(n); },
      [&] {
        auto ids = d.nodeIds();
        if (ids.size() > 4) d.leave(ids[pick.below(static_cast<common::u32>(ids.size()))]);
      },
      15);
  EXPECT_TRUE(d.checkTables());
}

}  // namespace
}  // namespace lht
