// Full-size crash campaigns, gated behind the `slow` ctest configuration
// (plain `ctest` skips them; `ctest -C slow` or scripts/check.sh runs
// them). Tier-1 keeps fast slices of both campaigns for every-build signal.
#include <gtest/gtest.h>

#include <filesystem>

#include "range_campaign.h"
#include "sim/fault_campaign.h"
#include "sim/restart_campaign.h"
#include "sim/skew_campaign.h"
#include "sim/storm_campaign.h"

namespace lht::sim {
namespace {

TEST(SlowRestartCampaign, SixteenSeedsEveryBoundary) {
  RestartCampaignConfig cfg;  // defaults: 16 seeds, kills everywhere
  cfg.scratchRoot =
      (std::filesystem::temp_directory_path() / "lht_restart_slow").string();
  ASSERT_GE(cfg.seeds, 16u);

  const RestartCampaignReport report = runRestartCampaign(cfg);

  for (const auto& f : report.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(report.ok());

  // The full campaign must cover every phase it can kill in, produce
  // genuinely torn tails, and drive structural repair on recovery.
  EXPECT_GT(report.scenarios, 1000u);
  EXPECT_GT(report.opCrashes, 0u);
  EXPECT_GT(report.compactionCrashes, 0u);
  EXPECT_GT(report.bootstrapCrashes, 0u);
  EXPECT_GT(report.tornTailRecoveries, 0u);
  EXPECT_GT(report.replayedRecords, 0u);
  EXPECT_GT(report.splitRepairs + report.mergeRepairs, 0u);
}

TEST(SlowFaultCampaign, LargerWorkloadWithClientFeatures) {
  // A heavier variant of the tier-1 fault campaign: bigger workload per
  // seed, all client-side performance features enabled.
  FaultCampaignConfig cfg;
  cfg.seeds = 8;
  cfg.inserts = 64;
  cfg.erases = 48;
  cfg.useLeafCache = true;
  cfg.cacheDecodedBuckets = true;

  const FaultCampaignReport report = runFaultCampaign(cfg);

  for (const auto& f : report.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.splitCrashes, 0u);
  EXPECT_GT(report.mergeCrashes, 0u);
  EXPECT_GT(report.splitRepairs + report.mergeRepairs, 0u);
}

TEST(SlowStormCampaign, SixteenSeedFullStorm) {
  // The full-size gate (BENCH_PR6.json mirrors this run): 16 seeds of the
  // default storm, both configurations. Failover + hedging must keep
  // availability at 1.0 against an availability floor of 0.99, the
  // baseline must be measurably below it, and every wave must repair to
  // zero replica deficit.
  StormConfig on;  // defaults: 16 seeds, 24 peers, replication 3
  ASSERT_GE(on.seeds, 16u);
  on.failover = true;
  on.hedging = true;
  const StormReport repOn = runStormCampaign(on);
  for (const auto& f : repOn.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(repOn.ok());
  EXPECT_GT(repOn.crashesApplied, 0u);
  EXPECT_GE(repOn.availability, 0.99);
  EXPECT_EQ(repOn.opsFailed, 0u);
  EXPECT_GT(repOn.rescues, 0u);
  EXPECT_GT(repOn.hedgesFired, 0u);
  EXPECT_EQ(repOn.lostKeys, 0u);

  StormConfig off = on;
  off.failover = false;
  off.hedging = false;
  const StormReport repOff = runStormCampaign(off);
  for (const auto& f : repOff.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(repOff.ok());
  EXPECT_LT(repOff.availability, repOn.availability);
  EXPECT_GT(repOff.opsFailed, 0u);
  EXPECT_EQ(repOff.lostKeys, 0u);
}

TEST(SlowSkewCampaign, FullSkewGateLeasesBeatBaselineThreeFold) {
  // The full-size balance gate: the default 8-seed zipfian campaign, both
  // arms on identical traces. (BENCH_PR8.json is a smaller run, 2 seeds x
  // 1200 ops, which `scripts/check.sh --skew` repeats.) Leases +
  // adaptive splits must cut the busiest peer's max/mean read imbalance
  // by at least 3x and every seed must oracle-verify in both arms.
  SkewCampaignConfig on;  // defaults: 8 seeds, 16 peers, replication 4
  ASSERT_GE(on.seeds, 8u);
  const SkewReport repOn = runSkewCampaign(on);
  for (const auto& f : repOn.failures) ADD_FAILURE() << "ON: " << f;
  EXPECT_TRUE(repOn.ok());
  EXPECT_EQ(repOn.opsFailed, 0u);
  EXPECT_GT(repOn.leaseGrants, 0u);
  EXPECT_GT(repOn.leaseReads, 0u);
  EXPECT_GT(repOn.splits, 0u);

  SkewCampaignConfig off = on;
  off.leasedReads = false;
  off.adaptiveSplits = false;
  const SkewReport repOff = runSkewCampaign(off);
  for (const auto& f : repOff.failures) ADD_FAILURE() << "OFF: " << f;
  EXPECT_TRUE(repOff.ok());
  EXPECT_EQ(repOff.leaseReads, 0u);

  EXPECT_GE(repOff.maxOverMeanAvg / repOn.maxOverMeanAvg, 3.0)
      << "imbalance improvement below the 3x gate: on="
      << repOn.maxOverMeanAvg << " off=" << repOff.maxOverMeanAvg;
  EXPECT_GT(repOn.effectiveParallelism, repOff.effectiveParallelism);
}

TEST(SlowLeaseCampaign, SixteenSeedLeaseLinearizability) {
  // The full-size safety gate: 16 seeds of lease reads racing concurrent
  // inserts/splits, with a lease-holding replica crashed mid-campaign in
  // every seed. The merged histories (plus synthesized preload inserts)
  // must pass the grow-only-set checker — a lease-served read returning a
  // snapshot older than a completed insert would fail it — and every
  // dead-peer lease read must drop its lease.
  LeaseLinConfig cfg;  // defaults: 16 seeds, 12 peers, replication 3
  ASSERT_GE(cfg.seeds, 16u);
  const LeaseLinReport rep = runLeaseLinCampaign(cfg);
  for (const auto& f : rep.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.crashes, cfg.seeds);
  EXPECT_GT(rep.leaseGrants, 0u);
  EXPECT_GT(rep.leaseReads, 0u);
  EXPECT_GT(rep.leaseStale + rep.leaseExpired, 0u);
  EXPECT_GT(rep.leaseDrops, 0u);
  EXPECT_GT(rep.repairTicks, 0u);
}

TEST(SlowPlannedRangeCampaign, SixteenSeeds) {
  // The full-size run of the tier-1 two-seed slice in client_fleet_test.cpp:
  // cache-planned ranges racing splits and merges in a hot interval.
  for (common::u64 seed = 0; seed < 16; ++seed) {
    SCOPED_TRACE("range campaign seed " + std::to_string(seed));
    testing_support::runPlannedRangeCampaign(seed);
  }
}

}  // namespace
}  // namespace lht::sim
