// Range answers under concurrent splits and merges, shared by the tier-1
// slice (client_fleet_test.cpp), the 16-seed slow run
// (slow_campaign_test.cpp) and the networked run over one shared
// RoutedNetDht (routed_net_dht_test.cpp). A cached fleet over one store:
// two clients warm their leaf caches with a [0, 1) sweep and then range
// over a hot interval, so their ranges are planned from the cache; two
// others insert and then erase there, so the hot leaves split and merge
// under those plans. Every answer is checked against the history, then
// the tree by scanAtomicSplits.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "dht/local_dht.h"
#include "exec/client_fleet.h"
#include "exec/linearizability.h"
#include "exec/thread_pool.h"

namespace lht::testing_support {

/// The campaign over `store`, shared by all four clients. With
/// `cacheDecodedBuckets` the clients keep bucket stores, so the readers'
/// rounds carry held digests while the writers change those buckets.
inline void runPlannedRangeCampaign(common::u64 seed, dht::Dht& store,
                                    bool cacheDecodedBuckets = false) {
  using Kind = workload::Operation::Kind;
  constexpr size_t kClients = 4;  // 0, 1 range; 2, 3 insert and erase
  constexpr size_t kRounds = 150;
  constexpr double kHotLo = 0.25;
  constexpr double kHotHi = 0.375;
  common::Pcg32 rng(seed, 0x4A46E);

  core::LhtIndex::Options io;
  io.thetaSplit = 8;
  io.crashConsistentSplits = true;
  io.cacheDecodedBuckets = cacheDecodedBuckets;
  std::set<double> preloaded;
  {
    core::LhtIndex loader(store, io);
    while (preloaded.size() < 400) {
      const double k = rng.nextDouble();
      if (!preloaded.insert(k).second) continue;
      loader.insert({k, "pre"});
    }
  }

  // Each writer erases only hot keys it owns: half the preloaded ones, and
  // those it inserted itself (its own ops run in order, so an erase never
  // overtakes the insert it targets).
  std::vector<double> owned[2];
  for (double k : preloaded) {
    if (k >= kHotLo && k < kHotHi) owned[owned[0].size() > owned[1].size()].push_back(k);
  }
  const auto hotKey = [&] { return kHotLo + rng.nextDouble() * (kHotHi - kHotLo); };
  std::vector<workload::Operation> trace;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t c = 0; c < kClients; ++c) {
      workload::Operation op;
      if (c < 2) {
        op.kind = Kind::Range;
        if (round == 0) {
          op.key = 0.0;  // the warm-up sweep
          op.hi = 1.0;
        } else {
          // Mostly inside the hot interval; some reach past either end.
          op.key = kHotLo - 0.02 + rng.nextDouble() * (kHotHi - kHotLo);
          op.hi = std::min(1.0, op.key + 0.01 + rng.nextDouble() * 0.08);
        }
      } else {
        // Inserts dominate the first half (splits), erases the second
        // (merges).
        auto& mine = owned[c - 2];
        const double insertShare = round < kRounds / 2 ? 0.8 : 0.2;
        if (mine.empty() || rng.nextDouble() < insertShare) {
          op.kind = Kind::Insert;
          op.key = hotKey();
          op.payload = common::numbered("w", round) + "." + std::to_string(c);
          mine.push_back(op.key);
        } else {
          const size_t i = rng.below(static_cast<common::u32>(mine.size()));
          op.kind = Kind::Erase;
          op.key = mine[i];
          mine[i] = mine.back();
          mine.pop_back();
        }
      }
      trace.push_back(std::move(op));
    }
  }

  exec::FleetOptions opts;
  opts.clients = kClients;
  opts.chunkSize = 4;
  opts.clientSeedBase = 30'000 + seed * 100;
  opts.index = io;
  opts.index.useLeafCache = true;
  opts.index.attachExisting = true;
  exec::ClientFleet fleet(
      [&](size_t, net::SimClock&) {
        exec::ClientStack stack;
        stack.top = &store;
        return stack;
      },
      opts);
  exec::WorkStealingPool pool(kClients);
  const exec::FleetResult result = fleet.run(trace, pool);
  EXPECT_EQ(result.opsFailed, 0u);

  // The race actually ran: ranges were planned, leaves split and merged.
  EXPECT_GT(fleet.clientIndex(0).leafCache().hits(), 0u);
  EXPECT_GT(fleet.clientIndex(1).leafCache().hits(), 0u);
  EXPECT_GT(result.metrics.counterValue("lht.cost.maintenance.splits"), 0u);
  EXPECT_GT(result.metrics.counterValue("lht.cost.maintenance.merges"), 0u);

  const auto merged = exec::mergeHistories(result.histories);
  const auto answers = exec::checkRangeAnswers(merged, preloaded);
  EXPECT_TRUE(answers.ok) << answers.explanation;

  // No client crashed, so no structural change may be left half done. A
  // key some op erased may or may not remain.
  std::set<double> maybe = exec::maybeKeys(merged);
  for (const auto& op : merged) {
    if (op.kind == exec::OpKind::Erase) maybe.insert(op.key);
  }
  std::set<double> definite = exec::definiteKeys(merged);
  definite.insert(preloaded.begin(), preloaded.end());
  for (double k : maybe) definite.erase(k);
  const auto scan = exec::scanAtomicSplits(fleet.clientIndex(0), definite, maybe);
  EXPECT_TRUE(scan.ok) << scan.explanation;
}

/// The campaign over an in-process LocalDht.
inline void runPlannedRangeCampaign(common::u64 seed) {
  dht::LocalDht store;
  runPlannedRangeCampaign(seed, store);
}

}  // namespace lht::testing_support
