// Tests for the resilience decorator stack (dht/decorators.h): lost-reply
// semantics, simulated-clock latency, backoff, client crashes, stacking
// order, and cross-substrate determinism of the injection streams.
// Companion to decorators_test.cpp (which covers request-point FaultDht
// and RetryingDht).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dht/chord.h"
#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "net/sim_clock.h"
#include "net/sim_network.h"
#include "sim/churn.h"

namespace lht::dht {
namespace {

/// Fails the first `failures` routed operations with DhtError, then lets
/// everything through — the minimal scriptable inner for retry lifecycle
/// tests. Each batch entry is a scripted step too.
class ScriptedDht final : public ForwardingDht {
 public:
  ScriptedDht(Dht& inner, size_t failures)
      : ForwardingDht(inner), left_(failures) {}

 private:
  void onCall(Call& /*call*/, const Forward& forward) override {
    step();
    forward();
  }
  void onRound(Round& round, const Issue& issue) override {
    std::vector<size_t> passed;
    for (size_t i = 0; i < round.size(); ++i) {
      try {
        step();
        passed.push_back(i);
      } catch (const DhtError& e) {
        round.fail(i, e.what());
      }
    }
    if (!passed.empty()) issue(passed);
  }
  void step() {
    if (left_ == 0) return;
    left_ -= 1;
    throw DhtError("ScriptedDht: scripted failure");
  }

  size_t left_;
};

// ---------------------------------------------------------------------------
// Lost replies
// ---------------------------------------------------------------------------

TEST(LostReply, MutationExecutesEvenThoughCallerSeesError) {
  LocalDht store;
  FaultDht lossy(store, FaultDht::Point::Reply, /*probability=*/1.0,
                 /*seed=*/7);

  EXPECT_THROW(lossy.put("k", "v"), DhtError);
  // The defining property: the caller got an error, the write landed.
  EXPECT_EQ(store.get("k"), std::optional<Value>("v"));

  bool ran = false;
  EXPECT_THROW(lossy.apply("k",
                           [&](std::optional<Value>& v) {
                             ran = true;
                             v = "v2";
                           }),
               DhtError);
  EXPECT_TRUE(ran);
  EXPECT_EQ(store.get("k"), std::optional<Value>("v2"));

  EXPECT_THROW(lossy.remove("k"), DhtError);
  EXPECT_FALSE(store.get("k").has_value());
  EXPECT_EQ(lossy.injected(), 3u);
}

TEST(LostReply, NaiveRetryDuplicatesAppends) {
  // The motivating failure: retrying a lost-reply append without
  // idempotence tokens applies it twice.
  LocalDht store;
  FaultDht lossy(store, FaultDht::Point::Reply, 1.0, 3);
  store.storeDirect("list", "");

  const auto append = [](Dht& d) {
    d.apply("list", [](std::optional<Value>& v) { *v += "x"; });
  };
  EXPECT_THROW(append(lossy), DhtError);  // executed, reply lost
  append(store);                          // the naive "retry"
  EXPECT_EQ(store.get("list"), std::optional<Value>("xx"));
}

// ---------------------------------------------------------------------------
// Latency on the simulated clock
// ---------------------------------------------------------------------------

TEST(Latency, ChargesClockPerRoutedOperation) {
  net::SimClock clock;
  LocalDht store;
  LatencyDht lat(store, clock, {.baseMs = 10, .jitterMs = 0, .seed = 1});

  lat.put("a", "1");
  lat.get("a");
  lat.storeDirect("b", "2");  // administrative: free
  EXPECT_EQ(clock.nowMs(), 20u);
  EXPECT_EQ(lat.injectedLatencyMs(), 20u);
}

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

TEST(Backoff, ExponentialDelaysAdvanceTheClockDeterministically) {
  net::SimClock clock;
  LocalDht store;
  ScriptedDht inner(store, /*failures=*/3);

  RetryingDht::Options o;
  o.maxAttempts = 4;
  o.baseBackoffMs = 10;
  o.jitter = 0.0;  // pure exponential: 10, 20, 40
  o.clock = &clock;
  RetryingDht retry(inner, o);

  retry.put("k", "v");
  EXPECT_EQ(store.get("k"), std::optional<Value>("v"));
  EXPECT_EQ(retry.retries(), 3u);
  EXPECT_EQ(retry.backoffWaitedMs(), 70u);
  EXPECT_EQ(clock.nowMs(), 70u);
}

TEST(Backoff, JitteredDelaysAreSeedDeterministic) {
  auto run = [](common::u64 seed) {
    LocalDht store;
    ScriptedDht inner(store, 5);
    RetryingDht::Options o;
    o.maxAttempts = 8;
    o.baseBackoffMs = 16;
    o.jitter = 0.5;
    o.seed = seed;
    RetryingDht retry(inner, o);
    retry.put("k", "v");
    return retry.backoffWaitedMs();
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // jitter actually depends on the seed
}

TEST(Retrying, ExhaustionDiagnosticsSurviveTheThrow) {
  LocalDht store;
  FaultDht dead(store, FaultDht::Point::Request, 1.0, 5);
  RetryingDht retry(dead, /*maxAttempts=*/3);

  try {
    retry.put("k", "v");
    FAIL() << "expected DhtRetriesExhausted";
  } catch (const DhtRetriesExhausted& e) {
    EXPECT_EQ(e.op(), "put");
    EXPECT_EQ(e.attempts(), 3u);
    EXPECT_FALSE(e.lastError().empty());
  }
  EXPECT_EQ(retry.exhausted(), 1u);
  EXPECT_EQ(retry.retriesFor(DhtOp::Put), 2u);
  EXPECT_FALSE(retry.lastError().empty());
}

TEST(Retrying, AttemptHistogramCountsSuccessesByAttempt) {
  LocalDht store;
  ScriptedDht inner(store, 2);  // first op needs 3 attempts, rest succeed
  RetryingDht retry(inner, 8);

  retry.put("a", "1");
  retry.put("b", "2");
  retry.get("a");

  const auto& h = retry.attemptHistogram();
  EXPECT_EQ(h[0], 2u);  // two first-attempt successes
  EXPECT_EQ(h[2], 1u);  // one third-attempt success
  EXPECT_EQ(retry.retries(), 2u);
  EXPECT_EQ(retry.retriesFor(DhtOp::Put), 2u);
  EXPECT_EQ(retry.retriesFor(DhtOp::Get), 0u);
}

// ---------------------------------------------------------------------------
// Client crashes
// ---------------------------------------------------------------------------

TEST(Crash, KillsTheClientAfterTheConfiguredWrite) {
  LocalDht store;
  CrashDht crash(store);

  crash.armAfterWrites(1);
  crash.put("a", "1");  // allowed
  EXPECT_THROW(crash.put("b", "2"), CrashError);
  EXPECT_TRUE(crash.crashed());
  EXPECT_THROW(crash.get("a"), CrashError);  // dead clients read nothing
  EXPECT_EQ(store.get("a"), std::optional<Value>("1"));
  EXPECT_FALSE(store.get("b").has_value());

  crash.disarm();
  EXPECT_NO_THROW(crash.put("b", "2"));
  EXPECT_EQ(crash.writesCompleted(), 1u);
}

// ---------------------------------------------------------------------------
// Stacking order
// ---------------------------------------------------------------------------

TEST(Stacking, FlakyAboveLatencyChargesOnlyExecutedAttempts) {
  // Retrying over Flaky over Latency: a lost *request* never reaches the
  // network, so failed attempts cost no simulated time and the N logical
  // ops cost exactly N latency charges no matter how many retries ran.
  net::SimClock clock;
  LocalDht store;
  LatencyDht lat(store, clock, {.baseMs = 10, .jitterMs = 0, .seed = 1});
  FaultDht flaky(lat, FaultDht::Point::Request, 0.3, 21);
  RetryingDht retry(flaky, 64);

  const size_t kOps = 50;
  for (size_t i = 0; i < kOps; ++i) retry.put(common::numbered("k", i), "v");

  EXPECT_GT(retry.retries(), 0u);  // the flaky layer really did fail ops
  EXPECT_EQ(lat.injectedLatencyMs(), 10u * kOps);
}

TEST(Stacking, FlakyBelowLatencyChargesEveryAttempt) {
  // Same layers, swapped: Retrying over Latency over Flaky. Now every
  // attempt — including the ones the flaky layer kills — pays for the
  // network round-trip first.
  net::SimClock clock;
  LocalDht store;
  FaultDht flaky(store, FaultDht::Point::Request, 0.3, 21);
  LatencyDht lat(flaky, clock, {.baseMs = 10, .jitterMs = 0, .seed = 1});
  RetryingDht retry(lat, 64);

  const size_t kOps = 50;
  for (size_t i = 0; i < kOps; ++i) retry.put(common::numbered("k", i), "v");

  EXPECT_GT(retry.retries(), 0u);
  EXPECT_EQ(lat.injectedLatencyMs(), 10u * (kOps + retry.retries()));
}

// ---------------------------------------------------------------------------
// Cross-substrate determinism
// ---------------------------------------------------------------------------

/// Outcome of each of `n` puts through a FaultDht over `substrate`: '1' where
/// the fault struck, '0' where the put succeeded.
std::string faultSchedule(Dht& substrate, FaultDht::Point point, double p,
                          common::u64 seed, int n) {
  FaultDht fault(substrate, point, p, seed);
  std::string schedule;
  for (int i = 0; i < n; ++i) {
    try {
      fault.put(common::numbered("k", i), "v");
      schedule += '0';
    } catch (const DhtError&) {
      schedule += '1';
    }
  }
  return schedule;
}

// The first 64 outcomes at seed 77, p = 0.4, one per fault point. Each point
// draws from its own RNG stream (0xF1A6 for requests, 0x105E for replies);
// a changed stream shifts every seeded fault experiment, so it must show
// up here first.
constexpr const char* kRequestSchedule77 =
    "1010100001101100011111001011101011111001000001010100010010111001";
constexpr const char* kReplySchedule77 =
    "1010001101100001100100101001001001010010000000000100001000010001";

TEST(Determinism, RequestFaultPatternIsSubstrateIndependent) {
  // The injection stream depends only on (seed, op sequence), never on
  // what the substrate underneath does — the same experiment on LocalDht
  // and on a Chord ring sees byte-identical fault schedules.
  LocalDht local;
  net::SimNetwork net;
  ChordDht::Options co;
  co.initialPeers = 16;
  co.seed = 5;
  ChordDht chord(net, co);

  const auto onLocal =
      faultSchedule(local, FaultDht::Point::Request, 0.4, 77, 200);
  EXPECT_EQ(onLocal,
            faultSchedule(chord, FaultDht::Point::Request, 0.4, 77, 200));
  EXPECT_EQ(onLocal.substr(0, 64), kRequestSchedule77);
}

TEST(Determinism, ReplyFaultPatternIsSeedDeterministic) {
  auto lossCount = [](common::u64 seed) {
    LocalDht store;
    const auto schedule =
        faultSchedule(store, FaultDht::Point::Reply, 0.25, seed, 300);
    return std::count(schedule.begin(), schedule.end(), '1');
  };
  EXPECT_EQ(lossCount(9), lossCount(9));
  EXPECT_NE(lossCount(9), lossCount(10));

  LocalDht store;
  EXPECT_EQ(faultSchedule(store, FaultDht::Point::Reply, 0.4, 77, 64),
            kReplySchedule77);
}

// ---------------------------------------------------------------------------
// Churn configuration validation
// ---------------------------------------------------------------------------

TEST(ChurnValidation, RejectsFailuresOnUnreplicatedRing) {
  net::SimNetwork net;
  ChordDht::Options co;
  co.initialPeers = 8;
  co.replication = 1;
  ChordDht unreplicated(net, co);

  sim::ChurnConfig cfg;
  cfg.failWeight = 1.0;
  EXPECT_THROW(sim::ChurnDriver(unreplicated, cfg), common::InvariantError);

  net::SimNetwork net2;
  co.replication = 2;
  ChordDht replicated(net2, co);
  EXPECT_NO_THROW(sim::ChurnDriver(replicated, cfg));

  cfg.failWeight = 0.0;  // no fail events: replication 1 is fine
  EXPECT_NO_THROW(sim::ChurnDriver(unreplicated, cfg));

  cfg.failWeight = -0.5;  // negative weights are always invalid
  EXPECT_THROW(sim::ChurnDriver(replicated, cfg), common::InvariantError);
}

// ---------------------------------------------------------------------------
// Batch rounds through the decorator stack
// ---------------------------------------------------------------------------

TEST(BatchRounds, FlakyFailsEntriesIndependently) {
  LocalDht store;
  for (int i = 0; i < 10; ++i) store.storeDirect(common::numbered("k", i), "v");
  FaultDht flaky(store, FaultDht::Point::Request, 0.5, /*seed=*/42);

  std::vector<Key> keys;
  for (int i = 0; i < 10; ++i) keys.push_back(common::numbered("k", i));
  auto out = flaky.multiGet(keys);
  ASSERT_EQ(out.size(), keys.size());
  size_t ok = 0;
  size_t failed = 0;
  for (const auto& o : out) {
    if (o.ok) {
      ok += 1;
      EXPECT_EQ(o.value, std::optional<Value>("v"));
    } else {
      failed += 1;
      EXPECT_FALSE(o.error.empty());
      EXPECT_FALSE(o.value.has_value());
    }
  }
  // At p=0.5 over ten entries both outcomes appear: partial failure is
  // per-entry, never all-or-nothing.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(flaky.injected(), failed);
}

TEST(BatchRounds, LostReplyExecutesEntriesWhoseAcksDrop) {
  LocalDht store;
  FaultDht lossy(store, FaultDht::Point::Reply, /*probability=*/1.0,
                 /*seed=*/5);

  std::vector<ApplyRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(ApplyRequest{
        common::numbered("k", i),
        [i](std::optional<Value>& v) { v = common::numbered("v", i); }});
  }
  auto out = lossy.multiApply(reqs);
  ASSERT_EQ(out.size(), reqs.size());
  for (const auto& o : out) EXPECT_FALSE(o.ok);  // every reply dropped
  // ... but every mutation executed: the lost-reply shape, batched.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(store.get(common::numbered("k", i)),
              std::optional<Value>(common::numbered("v", i)));
  }
  EXPECT_EQ(lossy.injected(), 4u);
}

TEST(BatchRounds, RetryingRetriesOnlyTheFailedSubset) {
  LocalDht store;
  std::vector<Key> keys;
  for (int i = 0; i < 5; ++i) {
    keys.push_back(common::numbered("k", i));
    store.storeDirect(keys.back(), common::numbered("v", i));
  }
  ScriptedDht inner(store, /*failures=*/2);  // first two entries of round 1
  RetryingDht retry(inner, 8);

  auto out = retry.multiGet(keys);
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(out[i].ok);
    EXPECT_EQ(out[i].value, std::optional<Value>(common::numbered("v", i)));
  }
  // Round 1 succeeded for three entries; only the two scripted failures
  // rode the second round.
  EXPECT_EQ(retry.retries(), 2u);
  const auto& h = retry.attemptHistogram();
  EXPECT_EQ(h[0], 3u);
  EXPECT_EQ(h[1], 2u);
}

TEST(BatchRounds, CrashMidBatchAppliesThePrefix) {
  LocalDht store;
  CrashDht crash(store);
  crash.armAfterWrites(2);

  std::vector<ApplyRequest> reqs;
  for (int i = 0; i < 4; ++i) {
    reqs.push_back(ApplyRequest{
        common::numbered("k", i),
        [i](std::optional<Value>& v) { v = common::numbered("v", i); }});
  }
  // The client dies partway through shipping the round: the entries it got
  // out the door are applied, the rest never happened.
  EXPECT_THROW(crash.multiApply(reqs), CrashError);
  EXPECT_TRUE(crash.crashed());
  EXPECT_EQ(store.get("k0"), std::optional<Value>("v0"));
  EXPECT_EQ(store.get("k1"), std::optional<Value>("v1"));
  EXPECT_FALSE(store.get("k2").has_value());
  EXPECT_FALSE(store.get("k3").has_value());
}

TEST(BatchRounds, LatencyChargesOncePerRound) {
  net::SimClock clock;
  LocalDht store;
  LatencyDht lat(store, clock, {.baseMs = 10, .jitterMs = 0, .seed = 1});

  std::vector<Key> keys;
  for (int i = 0; i < 10; ++i) {
    keys.push_back(common::numbered("k", i));
    store.storeDirect(keys.back(), "v");
  }
  lat.multiGet(keys);
  EXPECT_EQ(clock.nowMs(), 10u);  // ten keys, one round-trip

  std::vector<ApplyRequest> reqs;
  for (int i = 0; i < 5; ++i) {
    reqs.push_back(
        ApplyRequest{common::numbered("a", i),
                     [](std::optional<Value>& v) { v = Value("x"); }});
  }
  lat.multiApply(reqs);
  EXPECT_EQ(clock.nowMs(), 20u);  // five applies, one more round-trip
}

TEST(BatchRounds, StackedFlakyOverLatencyChargesSurvivorsOneRound) {
  // Entries the flaky layer kills never reach the network; the survivors
  // ship together and cost one round-trip total.
  net::SimClock clock;
  LocalDht store;
  LatencyDht lat(store, clock, {.baseMs = 10, .jitterMs = 0, .seed = 1});
  FaultDht flaky(lat, FaultDht::Point::Request, 0.5, /*seed=*/42);

  std::vector<Key> keys;
  for (int i = 0; i < 10; ++i) {
    keys.push_back(common::numbered("k", i));
    store.storeDirect(keys.back(), "v");
  }
  auto out = flaky.multiGet(keys);
  size_t ok = 0;
  for (const auto& o : out) ok += o.ok ? 1 : 0;
  ASSERT_GT(ok, 0u);
  ASSERT_LT(ok, keys.size());
  EXPECT_EQ(clock.nowMs(), 10u);
  EXPECT_EQ(lat.injectedLatencyMs(), 10u);
}

}  // namespace
}  // namespace lht::dht
