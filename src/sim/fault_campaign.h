// Fault campaign: exhaustive crash testing of LHT's structural protocols.
//
// A campaign (per seed) first shadow-runs a deterministic insert/erase
// workload on a crash-consistent LHT client and records every operation
// that performed a structural change (split or merge) together with its
// DHT-write footprint W. It then replays the workload once per
// (structural op, crash step k < W) pair, killing the client — via
// CrashDht — after exactly k completed writes of that operation, so every
// intermediate state of the split and merge state machines is actually
// reached and abandoned. Lost replies are injected throughout (FaultDht
// under RetryingDht), so retries and re-executed mutators are part of every
// scenario, not a separate test.
//
// After each crash a *fresh* client (attachExisting, a different token
// stream) recovers purely through the public interface: it looks up every
// live key (exercising lookup-triggered repair), runs repairSweep() to
// converge regions holding no records, then walks all leaves and verifies
// the surviving index against an oracle std::map — zero lost records, zero
// duplicated records, no intent markers left behind.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace lht::sim {

struct FaultCampaignConfig {
  /// Independent workloads; every scenario below runs for each seed.
  size_t seeds = 16;
  common::u64 baseSeed = 1;

  /// Workload shape: `inserts` distinct keys, then `erases` of a random
  /// subset (erases drive merges; inserts drive splits).
  size_t inserts = 48;
  size_t erases = 36;
  common::u32 thetaSplit = 6;

  /// Probability that any routed DHT operation executes but its reply is
  /// dropped (forcing a retry of an already-applied mutation).
  double lostReplyRate = 0.10;
  size_t maxAttempts = 12;

  /// Client-side performance features under test (both the crashing client
  /// and the recovering client run with them): the leaf-location cache and
  /// the decoded-bucket store. Default-off, matching the index defaults;
  /// the campaign must pass either way.
  bool useLeafCache = false;
  bool cacheDecodedBuckets = false;
};

struct FaultCampaignReport {
  size_t scenarios = 0;      ///< (structural op, crash step) pairs executed
  size_t splitCrashes = 0;   ///< scenarios that killed a split mid-flight
  size_t mergeCrashes = 0;   ///< scenarios that killed a merge mid-flight
  size_t splitRepairs = 0;   ///< half-finished splits completed by recovery
  size_t mergeRepairs = 0;   ///< half-finished merges completed by recovery
  size_t lostRepliesInjected = 0;
  /// Human-readable verification failures; empty means every scenario
  /// recovered to exactly the oracle's contents.
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the full campaign. Deterministic: identical configs give identical
/// reports.
FaultCampaignReport runFaultCampaign(const FaultCampaignConfig& cfg);

}  // namespace lht::sim
