// Churn-storm survival building blocks: Chord's crash mode (dark peers,
// replica reads, bounded anti-entropy repair), the FailoverDht decorator
// (replica failover + hedged reads, conditional reads settled against the
// held digest, composing under retry), the
// leaf-location cache's dead-peer invalidation, the churn event log with
// deterministic replay, and the RepairScheduler's bounded convergence.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "dht/chord.h"
#include "dht/decorators.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "sim/churn.h"
#include "sim/repair_scheduler.h"

namespace lht {
namespace {

using dht::ChordDht;

ChordDht::Options chordOpts(size_t peers, size_t replication,
                            common::u64 seed = 7) {
  ChordDht::Options o;
  o.initialPeers = peers;
  o.seed = seed;
  o.replication = replication;
  return o;
}

std::vector<std::string> preload(ChordDht& d, size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("key-" + std::to_string(i));
    d.put(keys.back(), common::numbered("v", i));
  }
  return keys;
}

/// A node id whose crash is currently safe (spaced by crashWouldLoseData).
common::u64 safeVictim(const ChordDht& d) {
  for (common::u64 id : d.liveNodeIds()) {
    if (!d.crashWouldLoseData(id)) return id;
  }
  ADD_FAILURE() << "no safe crash victim on the ring";
  return 0;
}

// ---------------------------------------------------------------------------
// Chord crash mode
// ---------------------------------------------------------------------------

TEST(ChordCrashMode, ReadsToDarkOwnerThrowAndReplicasRescue) {
  net::SimNetwork net;
  ChordDht d(net, chordOpts(10, 3));
  const auto keys = preload(d, 64);

  // Crash the owner of some key and read through both paths.
  const std::string& k = keys[5];
  d.crash(d.ownerOf(k));
  EXPECT_EQ(d.crashedPeerCount(), 1u);
  EXPECT_EQ(d.livePeerCount(), 9u);
  EXPECT_THROW(d.get(k), dht::DhtPeerDownError);

  // With replication 3 the two successors hold copies; at least one is
  // live (crash spacing would have vetoed otherwise), so a replica read
  // succeeds with the exact value.
  bool rescued = false;
  for (size_t i = 0; i < d.replicaFanout() && !rescued; ++i) {
    try {
      auto v = d.getReplica(k, i);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, "v5");
      rescued = true;
    } catch (const dht::DhtError&) {
      // this holder is dark too — try the next
    }
  }
  EXPECT_TRUE(rescued);

  // A key whose owner is up is unaffected mid-crash.
  for (const auto& key : keys) {
    if (d.ownerOf(key) == d.ownerOf(k)) continue;
    EXPECT_TRUE(d.get(key).has_value());
    break;
  }
}

TEST(ChordCrashMode, MembershipRejectedWhileCrashesPending) {
  net::SimNetwork net;
  ChordDht d(net, chordOpts(8, 2));
  preload(d, 32);
  d.crash(safeVictim(d));

  EXPECT_THROW(d.join("late"), common::InvariantError);
  const auto live = d.liveNodeIds();
  EXPECT_THROW(d.leave(live.front()), common::InvariantError);
  EXPECT_THROW(d.fail(live.front()), common::InvariantError);

  // repairStep excises the dark peer; membership reopens.
  while (!d.repairConverged()) d.repairStep(16);
  EXPECT_NO_THROW(d.join("late"));
  EXPECT_TRUE(d.checkReplication());
}

TEST(ChordCrashMode, RepairConvergesWithoutLossAndPromotesReplicas) {
  net::SimNetwork net;
  ChordDht d(net, chordOpts(12, 3));
  const auto keys = preload(d, 128);
  const size_t before = d.size();

  d.crash(safeVictim(d));
  d.crash(safeVictim(d));
  EXPECT_FALSE(d.repairConverged());
  EXPECT_GT(d.replicaDeficit(), 0u);

  // Bounded slices: each call does at most maxKeys fix-ups, and the
  // sequence must terminate at zero deficit.
  size_t guard = 0;
  while (!d.repairConverged()) {
    ASSERT_LT(++guard, 10'000u);
    d.repairStep(8);
  }
  EXPECT_EQ(d.replicaDeficit(), 0u);
  EXPECT_EQ(d.lostKeys(), 0u);
  EXPECT_EQ(d.size(), before);
  EXPECT_TRUE(d.checkRing());
  EXPECT_TRUE(d.checkReplication());
  for (const auto& k : keys) EXPECT_TRUE(d.get(k).has_value());
}

TEST(ChordCrashMode, UnreplicatedCrashIsVetoedByLossCheck) {
  net::SimNetwork net;
  ChordDht d(net, chordOpts(6, 1));
  const auto keys = preload(d, 64);
  // Nothing is replicated, so crashing any key's owner would destroy its
  // only copy. (Ring nodes that happen to own no keys may still crash.)
  for (const auto& k : keys) {
    EXPECT_TRUE(d.crashWouldLoseData(d.ownerOf(k)));
  }
}

// ---------------------------------------------------------------------------
// FailoverDht
// ---------------------------------------------------------------------------

TEST(FailoverDht, RescuesReadsFromCrashedOwner) {
  net::SimNetwork net;
  net::SimClock clock;
  ChordDht d(net, chordOpts(10, 3));
  const auto keys = preload(d, 64);

  dht::FailoverDht failover(d, clock, {});
  const std::string& k = keys[9];
  d.crash(d.ownerOf(k));

  auto v = failover.get(k);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "v9");
  EXPECT_GE(failover.failoverAttempts(), 1u);
  EXPECT_EQ(failover.rescues(), 1u);

  // Reads of healthy keys never touch the replica path.
  for (const auto& key : keys) {
    if (d.ownerOf(key) == d.ownerOf(k)) continue;
    EXPECT_TRUE(failover.get(key).has_value());
    break;
  }
  EXPECT_EQ(failover.rescues(), 1u);
}

TEST(FailoverDht, DisabledFailoverSurfacesThePrimaryError) {
  net::SimNetwork net;
  net::SimClock clock;
  ChordDht d(net, chordOpts(10, 3));
  const auto keys = preload(d, 32);

  dht::FailoverDht::Options fo;
  fo.failover = false;
  fo.hedging = false;
  dht::FailoverDht off(d, clock, fo);
  d.crash(d.ownerOf(keys[0]));
  EXPECT_THROW(off.get(keys[0]), dht::DhtPeerDownError);
  EXPECT_EQ(off.rescues(), 0u);
}

TEST(FailoverDht, RescueReadsAbsentKeyAsAuthoritativeMiss) {
  net::SimNetwork net;
  net::SimClock clock;
  ChordDht d(net, chordOpts(10, 3));
  preload(d, 32);

  dht::FailoverDht failover(d, clock, {});
  // A key that was never written, owned by a dark peer: the rescue must
  // return "absent", not an error — LHT's binary search steers on misses.
  const std::string ghost = "never-written";
  d.crash(d.ownerOf(ghost));
  auto v = failover.get(ghost);
  EXPECT_FALSE(v.has_value());
  EXPECT_EQ(failover.rescues(), 1u);
}

TEST(FailoverDht, HedgedReadsFireOnSlowPrimariesAndWinOnDeadOnes) {
  net::SimNetwork net;
  net::SimClock clock;
  ChordDht d(net, chordOpts(10, 3));
  const auto keys = preload(d, 64);

  // Latency under the hedger so every primary read takes >= baseMs.
  dht::LatencyDht latency(d, clock,
                          dht::LatencyDht::Options{.baseMs = 10, .jitterMs = 0});
  dht::FailoverDht::Options fo;
  fo.failover = false;  // isolate the hedge path
  fo.hedging = true;
  fo.hedgeMinMs = 5;  // below baseMs: every read crosses the threshold
  dht::FailoverDht hedged(latency, clock, fo);

  // Healthy read slower than the threshold: the backup fired and was
  // cancelled by the primary's answer.
  EXPECT_TRUE(hedged.get(keys[0]).has_value());
  EXPECT_EQ(hedged.hedgesFired(), 1u);
  EXPECT_EQ(hedged.hedgesCancelled(), 1u);
  EXPECT_EQ(hedged.hedgeWins(), 0u);

  // Dead primary past the threshold: the backup IS the rescue — a win.
  const std::string& k = keys[3];
  d.crash(d.ownerOf(k));
  auto v = hedged.get(k);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "v3");
  EXPECT_EQ(hedged.hedgesFired(), 2u);
  EXPECT_EQ(hedged.hedgeWins(), 1u);
  EXPECT_EQ(hedged.hedgesCancelled(), 1u);
}

TEST(FailoverDht, ComposesUnderRetryAndCircuitBreaker) {
  net::SimNetwork net;
  net::SimClock clock;
  ChordDht d(net, chordOpts(10, 3));
  const auto keys = preload(d, 64);

  // Stack order from DESIGN.md §12: retry sits ABOVE the failover layer,
  // so a rescued read is simply a success to it.
  dht::FailoverDht failover(d, clock, {});
  dht::RetryingDht::Options ro;
  ro.maxAttempts = 4;
  ro.clock = &clock;
  dht::RetryingDht retry(failover, ro);

  const std::string& k = keys[7];
  d.crash(d.ownerOf(k));
  for (int i = 0; i < 8; ++i) {
    auto v = retry.get(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "v7");
  }
  // Every read was rescued on the first attempt: nothing was retried.
  EXPECT_EQ(failover.rescues(), 8u);
  EXPECT_EQ(retry.retries(), 0u);
}

TEST(FailoverDht, MultiGetRescuesFailedEntries) {
  net::SimNetwork net;
  net::SimClock clock;
  ChordDht d(net, chordOpts(10, 3));
  const auto keys = preload(d, 48);

  dht::FailoverDht failover(d, clock, {});
  d.crash(d.ownerOf(keys[0]));

  std::vector<dht::Key> batch(keys.begin(), keys.begin() + 16);
  auto out = failover.multiGet(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_TRUE(out[i].ok) << "entry " << i << ": " << out[i].error;
    ASSERT_TRUE(out[i].value.has_value());
    EXPECT_EQ(*out[i].value, common::numbered("v", i));
  }
  EXPECT_GE(failover.rescues(), 1u);
}

TEST(FailoverDht, RescuedConditionalReadsSettleAgainstTheHeldDigest) {
  net::SimNetwork net;
  net::SimClock clock;
  ChordDht d(net, chordOpts(10, 3));
  const auto keys = preload(d, 64);

  dht::FailoverDht failover(d, clock, {});
  const std::string& k = keys[9];
  const common::u64 dark = d.ownerOf(k);
  d.crash(dark);

  // The replica holds what the caller holds: `unchanged`, no value.
  const auto same = failover.getIfChanged(k, common::hash::valueDigest("v9"));
  EXPECT_TRUE(same.ok);
  EXPECT_TRUE(same.unchanged);
  EXPECT_FALSE(same.value.has_value());
  // The caller holds something else: the rescued value.
  const auto other = failover.getIfChanged(k, common::hash::valueDigest("v8"));
  EXPECT_TRUE(other.ok);
  EXPECT_FALSE(other.unchanged);
  EXPECT_EQ(other.value, std::optional<dht::Value>("v9"));
  EXPECT_EQ(failover.rescues(), 2u);

  // Per entry: current copies (even entries) and stale ones (odd), on the
  // dark owner and elsewhere.
  std::vector<dht::Key> batch;
  std::vector<common::u64> held;
  size_t onDark = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool current = i % 2 == 0;
    onDark += d.ownerOf(keys[i]) == dark ? 1 : 0;
    batch.push_back(keys[i]);
    held.push_back(common::hash::valueDigest(
        current ? common::numbered("v", i) : std::string("stale")));
  }
  ASSERT_GE(onDark, 2u);
  const auto out = failover.multiGetIfChanged(batch, held);
  ASSERT_EQ(out.size(), batch.size());
  for (size_t i = 0; i < out.size(); ++i) {
    SCOPED_TRACE(batch[i]);
    EXPECT_TRUE(out[i].ok) << out[i].error;
    if (i % 2 == 0) {
      EXPECT_TRUE(out[i].unchanged);
      EXPECT_FALSE(out[i].value.has_value());
    } else {
      EXPECT_FALSE(out[i].unchanged);
      EXPECT_EQ(out[i].value, std::optional<dht::Value>(common::numbered("v", i)));
    }
  }
  EXPECT_EQ(failover.rescues(), 2u + onDark);

  // A lost reply carries nothing, not even `unchanged`: every held copy
  // is current, and every answer is dropped.
  for (size_t i = 0; i < batch.size(); ++i) {
    held[i] = common::hash::valueDigest(common::numbered("v", i));
  }
  dht::FaultDht lossy(d, dht::FaultDht::Point::Reply, 1.0);
  for (const auto& o : lossy.multiGetIfChanged(batch, held)) {
    EXPECT_FALSE(o.ok);
    EXPECT_FALSE(o.unchanged);
    EXPECT_FALSE(o.value.has_value());
  }
  EXPECT_EQ(lossy.injected(), batch.size() - onDark);
}

// ---------------------------------------------------------------------------
// Leaf-location cache: dead-peer invalidation (S2)
// ---------------------------------------------------------------------------

TEST(LeafCacheDeadPeer, CachedLocationDroppedWhenItsPeerIsDark) {
  net::SimNetwork net;
  ChordDht d(net, chordOpts(10, 3));
  core::LhtIndex idx(d, {.thetaSplit = 8, .useLeafCache = true});
  for (int i = 0; i < 60; ++i) {
    idx.insert({(i + 0.5) / 60.0, common::numbered("p", i)});
  }

  const double probe = (30 + 0.5) / 60.0;  // an actually-inserted key
  ASSERT_TRUE(idx.find(probe).record.has_value());
  ASSERT_TRUE(idx.leafCache().find(probe).has_value());  // cache primed

  // Crash the peer storing the cached leaf. The next find must throw
  // (failover is not in this stack) AND drop the stale cache entry.
  auto out = idx.lookup(probe);
  d.crash(d.ownerOf(out.dhtKey));
  EXPECT_THROW(idx.find(probe), dht::DhtPeerDownError);
  EXPECT_FALSE(idx.leafCache().find(probe).has_value());

  // After anti-entropy repair the re-homed leaf is found from scratch.
  while (!d.repairConverged()) d.repairStep(32);
  auto found = idx.find(probe);
  ASSERT_TRUE(found.record.has_value());
  EXPECT_TRUE(idx.leafCache().find(probe).has_value());  // re-primed
}

// ---------------------------------------------------------------------------
// Churn event log + replay (S1)
// ---------------------------------------------------------------------------

TEST(ChurnDriverLog, EveryEventIsLoggedWithSimTime) {
  net::SimNetwork net;
  net::SimClock clock;
  net.attachClock(&clock, 1);
  ChordDht d(net, chordOpts(8, 2));
  preload(d, 48);

  sim::ChurnConfig cc;
  cc.failWeight = 1.0;
  cc.seed = 3;
  cc.clock = net.clock();
  sim::ChurnDriver driver(d, cc);
  for (int i = 0; i < 12; ++i) driver.churnOnce();

  const auto& log = driver.eventLog();
  ASSERT_EQ(log.size(), driver.events());
  EXPECT_EQ(log.size(), driver.joins() + driver.leaves() + driver.fails());
  // Sim time is monotone over the log (churn interleaves with routed
  // traffic that advances the clock).
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_GE(log[i].simTimeMs, log[i - 1].simTimeMs);
  }
}

TEST(ChurnDriverLog, ReplayReproducesTheTopologyExactly) {
  net::SimNetwork netA;
  ChordDht a(netA, chordOpts(8, 2, /*seed=*/21));
  preload(a, 40);
  net::SimNetwork netB;
  ChordDht b(netB, chordOpts(8, 2, /*seed=*/21));
  preload(b, 40);

  sim::ChurnConfig cc;
  cc.failWeight = 0.5;
  cc.seed = 9;
  sim::ChurnDriver driverA(a, cc);
  for (int i = 0; i < 10; ++i) driverA.churnOnce();
  driverA.wave({/*joins=*/2, /*leaves=*/1, /*crashes=*/2});

  // Replay the recorded log on the twin substrate: same joins (ids are a
  // pure function of the canonical names), same victims, same crashes.
  sim::ChurnDriver driverB(b, sim::ChurnConfig{.seed = 999});
  driverB.replay(driverA.eventLog());

  EXPECT_EQ(a.nodeIds(), b.nodeIds());
  EXPECT_EQ(a.liveNodeIds(), b.liveNodeIds());
  EXPECT_EQ(a.crashedPeerCount(), b.crashedPeerCount());
  ASSERT_EQ(driverB.eventLog().size(), driverA.eventLog().size());
  for (size_t i = 0; i < driverA.eventLog().size(); ++i) {
    EXPECT_EQ(driverA.eventLog()[i].type, driverB.eventLog()[i].type);
    EXPECT_EQ(driverA.eventLog()[i].nodeId, driverB.eventLog()[i].nodeId);
  }

  // Both rings repair to the same converged state.
  while (!a.repairConverged()) a.repairStep(64);
  while (!b.repairConverged()) b.repairStep(64);
  EXPECT_EQ(a.nodeIds(), b.nodeIds());
  EXPECT_TRUE(a.checkReplication());
  EXPECT_TRUE(b.checkReplication());
}

// ---------------------------------------------------------------------------
// RepairScheduler
// ---------------------------------------------------------------------------

TEST(RepairScheduler, BoundedTicksConvergeDhtAndIndex) {
  net::SimNetwork net;
  ChordDht d(net, chordOpts(12, 3));
  core::LhtIndex idx(d, {.thetaSplit = 8, .useLeafCache = true});
  for (int i = 0; i < 80; ++i) {
    idx.insert({(i + 0.5) / 80.0, common::numbered("p", i)});
  }

  d.crash(safeVictim(d));
  d.crash(safeVictim(d));

  sim::RepairSchedulerConfig rc;
  rc.dhtKeysPerTick = 4;  // tiny slices: convergence must still terminate
  rc.indexBucketsPerTick = 2;
  sim::RepairScheduler sched(d, &idx, rc);
  sched.noteChurn();
  EXPECT_FALSE(sched.converged());

  const size_t ticks = sched.runToConvergence();
  EXPECT_GT(ticks, 1u);  // bounded slices => more than one tick
  EXPECT_TRUE(sched.converged());
  EXPECT_TRUE(d.checkReplication());
  EXPECT_EQ(d.lostKeys(), 0u);
  EXPECT_GE(sched.progress().dhtActions, 1u);
  EXPECT_EQ(sched.progress().sweepPasses, 1u);

  // A converged system ticks for free.
  EXPECT_EQ(sched.tick(), 0u);

  // All data is still reachable through normal lookups.
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(idx.find((i + 0.5) / 80.0).record.has_value());
  }
}

}  // namespace
}  // namespace lht
