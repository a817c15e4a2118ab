// Concurrent fault campaigns over the client fleet (DESIGN.md §10): for a
// spread of PCG32 seeds, several clients with lossy, latency-charged,
// retrying decorator stacks — and in half the runs a client that crashes
// mid-stream — hammer one shared LHT index concurrently. After the fleet
// joins, the run must satisfy the grow-only-set checker (history level)
// and the atomic-split scan (structure level): a torn split or a lost
// acknowledged insert fails the seed, which is printed via SCOPED_TRACE.
#include "exec/client_fleet.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "exec/linearizability.h"
#include "exec/thread_pool.h"
#include "range_campaign.h"

namespace lht {
namespace {

/// Insert/find-only trace (the vocabulary the grow-only checker covers).
std::vector<workload::Operation> makeInsertFindTrace(size_t ops,
                                                     common::u64 seed) {
  common::Pcg32 rng(seed, 77);
  std::vector<workload::Operation> trace;
  std::vector<double> inserted;
  trace.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    workload::Operation op;
    if (inserted.empty() || rng.nextDouble() < 0.65) {
      op.kind = workload::Operation::Kind::Insert;
      op.key = rng.nextDouble();
      op.payload = common::numbered("p", i);
      inserted.push_back(op.key);
    } else {
      op.kind = workload::Operation::Kind::Find;
      op.key = inserted[rng.below(static_cast<common::u32>(inserted.size()))];
    }
    trace.push_back(std::move(op));
  }
  return trace;
}

struct CampaignConfig {
  common::u64 seed = 0;
  bool crashClient = false;
};

void runCampaign(const CampaignConfig& cfg) {
  dht::LocalDht base;
  std::vector<dht::CrashDht*> crashers;

  exec::FleetOptions opts;
  opts.clients = 4;
  opts.chunkSize = 8;
  opts.clientSeedBase = 10'000 + cfg.seed * 100;
  opts.index.thetaSplit = 8;  // small leaves: plenty of concurrent splits
  opts.index.crashConsistentSplits = true;

  exec::ClientFleet fleet(
      [&](size_t i, net::SimClock& clock) {
        exec::ClientStack stack;
        auto latency = std::make_unique<dht::LatencyDht>(
            base, clock,
            dht::LatencyDht::Options{
                .baseMs = 5, .jitterMs = 3, .seed = cfg.seed * 31 + i});
        auto lossy = std::make_unique<dht::FaultDht>(
            *latency, dht::FaultDht::Point::Reply, /*probability=*/0.15,
            cfg.seed * 17 + i + 1);
        dht::RetryingDht::Options ro;
        ro.maxAttempts = 10;
        ro.baseBackoffMs = 2;
        ro.seed = cfg.seed * 13 + i + 1;
        ro.clock = &clock;
        auto retry = std::make_unique<dht::RetryingDht>(*lossy, ro);
        stack.top = retry.get();
        if (cfg.crashClient && i == 1) {
          auto crash = std::make_unique<dht::CrashDht>(*retry);
          crashers.push_back(crash.get());
          stack.top = crash.get();
          stack.layers.push_back(std::move(crash));
        }
        stack.layers.insert(stack.layers.begin(), std::move(latency));
        stack.layers.insert(stack.layers.begin() + 1, std::move(lossy));
        stack.layers.insert(stack.layers.begin() + 2, std::move(retry));
        return stack;
      },
      opts);
  // Arm after construction so the bootstrap-attach reads survive; the
  // client then dies mid-workload.
  for (auto* c : crashers) c->armAfterWrites(12);

  const auto trace = makeInsertFindTrace(240, cfg.seed + 1);
  exec::WorkStealingPool pool(4);
  exec::FleetResult result = fleet.run(trace, pool);

  EXPECT_EQ(result.opsTotal, trace.size());
  EXPECT_GT(result.elapsedSimMs, 0u);
  if (cfg.crashClient) {
    EXPECT_GT(result.opsFailed, 0u);
  }

  const auto merged = exec::mergeHistories(result.histories);
  const auto grow = exec::checkGrowOnlySet(merged);
  EXPECT_TRUE(grow.ok) << grow.explanation;

  // Structure check: a surviving client repairs any half-finished
  // structural change the faults left behind, then the leaves must tile
  // [0,1) with no intents and the record set must be bracketed by the
  // histories.
  fleet.clientIndex(0).repairSweep();
  const auto scan = exec::scanAtomicSplits(fleet.clientIndex(0),
                                           exec::definiteKeys(merged),
                                           exec::maybeKeys(merged));
  EXPECT_TRUE(scan.ok) << scan.explanation;
  EXPECT_GE(scan.leaves, 1u);
}

TEST(ClientFleetTest, FaultCampaignsHoldAcrossSeeds) {
  // >= 16 seeded runs; half include a mid-stream client crash.
  for (common::u64 seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("campaign seed " + std::to_string(seed) +
                 (seed % 2 == 1 ? " (with crash)" : ""));
    runCampaign({.seed = seed, .crashClient = seed % 2 == 1});
  }
}

TEST(PlannedRangeCampaign, RangesHoldUnderConcurrentSplitsAndMerges) {
  // Two seeds here; slow_campaign_test.cpp runs sixteen.
  for (common::u64 seed = 0; seed < 2; ++seed) {
    SCOPED_TRACE("range campaign seed " + std::to_string(seed));
    testing_support::runPlannedRangeCampaign(seed);
  }
}

TEST(ClientFleetTest, MergesPerClientMetricsExactly) {
  dht::LocalDht base;
  exec::FleetOptions opts;
  opts.clients = 3;
  opts.index.crashConsistentSplits = true;
  exec::ClientFleet fleet(
      [&](size_t, net::SimClock&) {
        exec::ClientStack stack;
        stack.top = &base;
        return stack;
      },
      opts);
  const auto trace = makeInsertFindTrace(90, 5);
  exec::WorkStealingPool pool(2);
  exec::FleetResult result = fleet.run(trace, pool);
  size_t historyOps = 0;
  for (const auto& h : result.histories) historyOps += h.size();
  EXPECT_EQ(historyOps, trace.size());
  // Every op charged its per-kind latency histogram exactly once.
  common::u64 observed = 0;
  for (const char* series :
       {"fleet.op.insert.sim_ms", "fleet.op.find.sim_ms"}) {
    if (const auto* h = result.metrics.findHistogram(series)) {
      observed += h->count();
    }
  }
  EXPECT_EQ(observed, trace.size());
  EXPECT_EQ(result.opsFailed, 0u);
}

TEST(ClientFleetTest, OpenLoopArrivalPacesClientClocks) {
  dht::LocalDht base;
  exec::FleetOptions opts;
  opts.clients = 2;
  opts.openLoopInterarrivalMs = 50;
  exec::ClientFleet fleet(
      [&](size_t, net::SimClock&) {
        exec::ClientStack stack;
        stack.top = &base;
        return stack;
      },
      opts);
  const auto trace = makeInsertFindTrace(40, 9);
  exec::WorkStealingPool pool(2);
  exec::FleetResult result = fleet.run(trace, pool);
  // 20 ops per client, due times 0, 50, ..., 950: each clock advanced at
  // least to the last op's due time.
  EXPECT_GE(result.elapsedSimMs, 950u);
}

}  // namespace
}  // namespace lht
