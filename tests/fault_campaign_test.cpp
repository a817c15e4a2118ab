// The resilience tentpole's enforcement test: the fault campaign kills a
// crash-consistent LHT client at *every* intermediate DHT-write of every
// split and merge it performs (with lost replies injected throughout), and
// a fresh client must recover the index to exactly the oracle's contents —
// no lost records, no duplicates, no stranded intent markers.
#include <gtest/gtest.h>

#include "sim/fault_campaign.h"

namespace lht::sim {
namespace {

TEST(FaultCampaign, EveryCrashStepRecoversToOracle) {
  FaultCampaignConfig cfg;  // defaults: 16 seeds, lost replies at 10%
  ASSERT_GE(cfg.seeds, 16u);
  ASSERT_GT(cfg.lostReplyRate, 0.0);

  const FaultCampaignReport report = runFaultCampaign(cfg);

  for (const auto& f : report.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(report.ok());

  // The campaign must actually have exercised what it claims to: both
  // protocols crashed mid-flight, both kinds of repair ran, and the
  // lost-reply channel injected real losses.
  EXPECT_GT(report.scenarios, 100u);
  EXPECT_GT(report.splitCrashes, 0u);
  EXPECT_GT(report.mergeCrashes, 0u);
  EXPECT_GT(report.splitRepairs, 0u);
  EXPECT_GT(report.mergeRepairs, 0u);
  EXPECT_GT(report.lostRepliesInjected, 0u);
}

TEST(FaultCampaign, PassesWithClientCacheAndBatchingEnabled) {
  // The client-side caches (leaf-location cache, decoded-bucket store)
  // must not weaken crash recovery through the batched rounds: the same
  // campaign, with both caches on for the crashing and the recovering
  // client, still converges to the oracle.
  FaultCampaignConfig cfg;
  cfg.seeds = 6;  // fewer seeds: this variant rides alongside the main run
  cfg.useLeafCache = true;
  cfg.cacheDecodedBuckets = true;

  const FaultCampaignReport report = runFaultCampaign(cfg);

  for (const auto& f : report.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.splitCrashes, 0u);
  EXPECT_GT(report.mergeCrashes, 0u);
  EXPECT_GT(report.splitRepairs + report.mergeRepairs, 0u);
}

TEST(FaultCampaign, ReportIsDeterministic) {
  FaultCampaignConfig cfg;
  cfg.seeds = 2;
  cfg.inserts = 24;
  cfg.erases = 16;

  const FaultCampaignReport a = runFaultCampaign(cfg);
  const FaultCampaignReport b = runFaultCampaign(cfg);

  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.splitCrashes, b.splitCrashes);
  EXPECT_EQ(a.mergeCrashes, b.mergeCrashes);
  EXPECT_EQ(a.splitRepairs, b.splitRepairs);
  EXPECT_EQ(a.mergeRepairs, b.mergeRepairs);
  EXPECT_EQ(a.lostRepliesInjected, b.lostRepliesInjected);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_TRUE(a.ok());
}

}  // namespace
}  // namespace lht::sim
