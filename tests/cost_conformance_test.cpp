// Cost-model conformance: the meters and the observability registry must
// agree with each other and with the closed-form per-split costs
// (Psi_LHT = 1/2 theta i + j, Psi_PHT = theta i + 4 j) across workload
// shapes and feature toggles (batching, caching, crash-consistent splits,
// injected faults).
#include <gtest/gtest.h>

#include <vector>

#include "cost/cost_model.h"
#include "dht/chord.h"
#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "lht/lht_index.h"
#include "net/sim_network.h"
#include "obs/obs.h"
#include "pht/pht_index.h"
#include "workload/generators.h"

namespace lht {
namespace {

using common::u64;

constexpr common::u32 kTheta = 50;

std::vector<index::Record> dataset(size_t n, u64 seed = 11) {
  return workload::makeDataset(workload::Distribution::Uniform, n, seed);
}

/// Registry counters for the three cost categories must mirror the meters
/// exactly — they are written by the same charge helpers.
void expectObsMatchesMeters(const obs::MetricsRegistry& reg,
                            const cost::MeterSet& m) {
  EXPECT_EQ(reg.counterValue("lht.cost.insertion.dht_lookups"),
            m.insertion.dhtLookups);
  EXPECT_EQ(reg.counterValue("lht.cost.insertion.records_moved"),
            m.insertion.recordsMoved);
  EXPECT_EQ(reg.counterValue("lht.cost.maintenance.dht_lookups"),
            m.maintenance.dhtLookups);
  EXPECT_EQ(reg.counterValue("lht.cost.maintenance.records_moved"),
            m.maintenance.recordsMoved);
  EXPECT_EQ(reg.counterValue("lht.cost.maintenance.splits"),
            m.maintenance.splits);
  EXPECT_EQ(reg.counterValue("lht.cost.maintenance.merges"),
            m.maintenance.merges);
  EXPECT_EQ(reg.counterValue("lht.cost.query.dht_lookups"),
            m.query.dhtLookups);
}

// --- Shape 1: split-heavy uniform insert workload --------------------------

TEST(CostConformance, LhtMaintenancePerSplitMatchesPsiLht) {
  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);

  dht::LocalDht store;
  core::LhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  core::LhtIndex idx(store, opts);
  for (const auto& r : dataset(4000)) idx.insert(r);

  const auto& m = idx.meters();
  ASSERT_GT(m.maintenance.splits, 30u);
  expectObsMatchesMeters(reg, m);

  const cost::CostModel model{1.0, 1.0, kTheta};
  const auto b = model.breakdown(m);
  // Insert-only workload: every maintenance unit was charged by a split, so
  // the measured per-split price is directly comparable to Eq. 1.
  EXPECT_NEAR(b.maintenancePerSplit, model.psiLht(), 0.10 * model.psiLht());
  // Each split costs exactly one DHT-put in the default (non-staged) path.
  EXPECT_EQ(m.maintenance.dhtLookups, m.maintenance.splits);
}

TEST(CostConformance, PhtMaintenancePerSplitMatchesPsiPht) {
  dht::LocalDht store;
  pht::PhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  pht::PhtIndex idx(store, opts);
  for (const auto& r : dataset(4000)) idx.insert(r);

  const auto& m = idx.meters();
  ASSERT_GT(m.maintenance.splits, 30u);
  const cost::CostModel model{1.0, 1.0, kTheta};
  const auto b = model.breakdown(m);
  EXPECT_NEAR(b.maintenancePerSplit, model.psiPht(), 0.10 * model.psiPht());
  // The paper's headline: LHT splits cost well under half of PHT's.
  EXPECT_LT(model.psiLht(), 0.55 * model.psiPht());
}

// --- Feature toggles must not change logical costs -------------------------

TEST(CostConformance, BatchingPreservesMeteredCosts) {
  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);
  dht::LocalDht store;
  core::LhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  core::LhtIndex idx(store, opts);
  idx.insertBatch(dataset(3000, 23));

  // Batching rearranges rounds, not work: the category meters are exactly
  // those the per-leaf sequential bulk load charged for this dataset
  // (pinned from that path): one lookup + one apply for the root leaf,
  // then one DHT-put per split-off child.
  const cost::Counters insertion{2, 3000, 0, 0};
  const cost::Counters maintenance{90, 2952, 90, 0};
  EXPECT_EQ(idx.meters().insertion, insertion);
  EXPECT_EQ(idx.meters().maintenance, maintenance);
  expectObsMatchesMeters(reg, idx.meters());
  // ... and the load really did use multi-op rounds.
  EXPECT_GT(reg.counterValue("dht.round.count"), 0u);
}

TEST(CostConformance, LeafCachePreservesMaintenanceConformance) {
  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);

  dht::LocalDht store;
  core::LhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  opts.useLeafCache = true;
  core::LhtIndex idx(store, opts);
  for (const auto& r : dataset(4000)) idx.insert(r);

  const cost::CostModel model{1.0, 1.0, kTheta};
  const auto b = model.breakdown(idx.meters());
  ASSERT_GT(idx.meters().maintenance.splits, 30u);
  EXPECT_NEAR(b.maintenancePerSplit, model.psiLht(), 0.10 * model.psiLht());
  expectObsMatchesMeters(reg, idx.meters());
}

TEST(CostConformance, CrashConsistentSplitsCostOneExtraLookupPerSplit) {
  auto records = dataset(3000, 31);

  cost::MeterSet plain;
  {
    dht::LocalDht store;
    core::LhtIndex::Options opts;
    opts.thetaSplit = kTheta;
    core::LhtIndex idx(store, opts);
    for (const auto& r : records) idx.insert(r);
    plain = idx.meters();
  }

  dht::LocalDht store;
  core::LhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  opts.crashConsistentSplits = true;
  core::LhtIndex idx(store, opts);
  for (const auto& r : records) idx.insert(r);
  const auto& staged = idx.meters();

  EXPECT_EQ(staged.maintenance.splits, plain.maintenance.splits);
  EXPECT_EQ(staged.maintenance.recordsMoved, plain.maintenance.recordsMoved);
  // The staged protocol (materialize child + clear intent) pays 2 lookups
  // per split where the direct path pays 1.
  EXPECT_EQ(plain.maintenance.dhtLookups, plain.maintenance.splits);
  EXPECT_EQ(staged.maintenance.dhtLookups, 2 * staged.maintenance.splits);
}

TEST(CostConformance, InjectedFaultsLeaveLogicalCostsUnchanged) {
  auto records = dataset(2000, 47);

  cost::MeterSet clean;
  {
    dht::LocalDht store;
    core::LhtIndex::Options opts;
    opts.thetaSplit = kTheta;
    core::LhtIndex idx(store, opts);
    for (const auto& r : records) idx.insert(r);
    for (int i = 0; i < 50; ++i) idx.find(records[static_cast<size_t>(i)].key);
    clean = idx.meters();
  }

  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);
  dht::LocalDht store;
  dht::FaultDht lossy(store, dht::FaultDht::Point::Reply, 0.10, /*seed=*/5);
  dht::RetryingDht retrying(lossy, /*maxAttempts=*/10);
  core::LhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  core::LhtIndex idx(retrying, opts);
  for (const auto& r : records) idx.insert(r);
  for (int i = 0; i < 50; ++i) idx.find(records[static_cast<size_t>(i)].key);

  ASSERT_GT(lossy.injected(), 0u);
  // Retries are absorbed below the index: logical cost meters match the
  // fault-free run exactly.
  EXPECT_EQ(idx.meters().insertion, clean.insertion);
  EXPECT_EQ(idx.meters().maintenance, clean.maintenance);
  EXPECT_EQ(idx.meters().query, clean.query);
  // The physical ledger shows the extra work instead.
  EXPECT_GT(reg.counterValue("dht.apply.attempts"),
            reg.counterValue("dht.apply.logical"));
  EXPECT_EQ(reg.counterValue("dht.retries"),
            static_cast<u64>(retrying.retries()));
}

// --- Shape 2: range workload ------------------------------------------------

TEST(CostConformance, RangeWorkloadObsMatchesMetersAndBound) {
  dht::LocalDht store;
  core::LhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  core::LhtIndex idx(store, opts);
  for (const auto& r : dataset(2000, 7)) idx.insert(r);
  idx.resetMeters();

  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);
  common::Pcg32 rng(99);
  const size_t kQueries = 50;
  size_t buckets = 0;
  for (size_t q = 0; q < kQueries; ++q) {
    auto spec = workload::makeRange(0.05, rng);
    auto res = idx.rangeQuery(spec.lo, spec.hi);
    buckets += res.stats.bucketsTouched;
    // Theorem 4 shape: lookups bounded by buckets visited plus the LCA
    // descent overhead (single-leaf ranges resolve via the binary search
    // instead, so the bound applies from two buckets up).
    if (res.stats.bucketsTouched >= 2) {
      EXPECT_LE(res.stats.dhtLookups, res.stats.bucketsTouched + 3) << q;
    }
  }
  ASSERT_GT(buckets, kQueries);  // ranges really spanned multiple leaves

  EXPECT_EQ(reg.counterValue("lht.cost.query.dht_lookups"),
            idx.meters().query.dhtLookups);
  EXPECT_EQ(reg.counterValue("lht.rangeQuery.count"), kQueries);
  const obs::Histogram* h = reg.findHistogram("lht.rangeQuery.dht_lookups");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), kQueries);
  EXPECT_DOUBLE_EQ(h->sum(),
                   static_cast<double>(idx.meters().query.dhtLookups));
}

// --- Shape 3: min/max workload ----------------------------------------------

TEST(CostConformance, MinMaxCostTheorem3) {
  dht::LocalDht store;
  core::LhtIndex::Options opts;
  opts.thetaSplit = kTheta;
  core::LhtIndex idx(store, opts);
  for (const auto& r : dataset(2000, 13)) idx.insert(r);
  idx.resetMeters();

  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);
  // Theorem 3: min is one DHT-lookup ("#"); max probes "#0" (plus a "#"
  // fallback only on a single-leaf tree).
  auto mn = idx.minRecord();
  ASSERT_TRUE(mn.record.has_value());
  EXPECT_EQ(mn.stats.dhtLookups, 1u);
  auto mx = idx.maxRecord();
  ASSERT_TRUE(mx.record.has_value());
  EXPECT_LE(mx.stats.dhtLookups, 2u);
  EXPECT_LT(mn.record->key, mx.record->key);

  EXPECT_EQ(reg.counterValue("lht.cost.query.dht_lookups"),
            idx.meters().query.dhtLookups);
  EXPECT_EQ(idx.meters().query.dhtLookups,
            mn.stats.dhtLookups + mx.stats.dhtLookups);
  EXPECT_EQ(reg.counterValue("lht.minRecord.count"), 1u);
  EXPECT_EQ(reg.counterValue("lht.maxRecord.count"), 1u);
}

// --- Shape: leased replica reads --------------------------------------------

/// Lease-served reads are priced in Psi exactly like primary reads (one
/// query DHT-lookup each) and land in their own "dht.lease.*" ledger —
/// they must never inflate "dht.get.logical", which counts logical
/// primary gets only. Regression for the leased-read protocol's cost
/// accounting: the ON and OFF stacks run the identical read-only phase,
/// so logical(OFF) must equal logical(ON) + lease reads(ON) exactly.
TEST(CostConformance, LeaseReadsChargeLeaseLedgerNotLogical) {
  auto records = dataset(240, 61);
  constexpr size_t kReads = 200;

  struct Side {
    u64 getLogical = 0;
    u64 leaseReads = 0;
    u64 leaseGrants = 0;
    u64 leaseStale = 0;
    u64 queryLookups = 0;
    u64 queryMoved = 0;
  };
  const auto run = [&](bool leased) {
    net::SimNetwork net;
    dht::ChordDht::Options copts;
    copts.initialPeers = 8;
    copts.seed = 5;
    copts.replication = 2;  // fanout 1: rotation alternates replica/primary
    dht::ChordDht chord(net, copts);
    dht::RetryingDht retrying(chord, /*maxAttempts=*/4);
    core::LhtIndex::Options opts;
    opts.thetaSplit = kTheta;
    opts.useLeafCache = true;
    opts.leasedReads = leased;
    core::LhtIndex idx(retrying, opts);

    // Warm phase under a throwaway registry: grow the tree, warm the
    // location cache, and (ON side) grant leases via primary reads.
    {
      obs::MetricsRegistry warm;
      obs::ScopedObservability install(&warm, nullptr);
      for (const auto& r : records) idx.insert(r);
      for (size_t i = 0; i < 32; ++i) idx.find(records[i % records.size()].key);
    }

    // Measured phase: read-only, warm cache, fresh registry. No writes
    // means no epoch bumps, so every replica turn serves successfully.
    obs::MetricsRegistry reg;
    obs::ScopedObservability install(&reg, nullptr);
    const cost::MeterSet before = idx.meters();
    for (size_t i = 0; i < kReads; ++i) {
      auto r = idx.find(records[i % 16].key);  // hot subset
      EXPECT_TRUE(r.record.has_value());
    }
    Side s;
    s.getLogical = reg.counterValue("dht.get.logical");
    s.leaseReads = reg.counterValue("dht.lease.reads");
    s.leaseGrants = reg.counterValue("dht.lease.grants");
    s.leaseStale = reg.counterValue("dht.lease.stale") +
                   reg.counterValue("dht.lease.expired") +
                   reg.counterValue("dht.lease.drops");
    s.queryLookups = idx.meters().query.dhtLookups - before.query.dhtLookups;
    s.queryMoved = idx.meters().query.recordsMoved - before.query.recordsMoved;
    return s;
  };

  const Side on = run(true);
  const Side off = run(false);

  // The protocol actually ran on the ON side and only there.
  ASSERT_GT(on.leaseReads, 0u);
  EXPECT_GT(on.leaseGrants, 0u);
  EXPECT_EQ(on.leaseStale, 0u);  // read-only: nothing invalidates
  EXPECT_EQ(off.leaseReads, 0u);
  EXPECT_EQ(off.leaseGrants, 0u);

  // Ledger split: every read is either a logical primary get or a lease
  // read — lease reads never double-count into dht.get.logical.
  EXPECT_EQ(off.getLogical, static_cast<u64>(kReads));
  EXPECT_EQ(on.getLogical + on.leaseReads, static_cast<u64>(kReads));
  EXPECT_LT(on.getLogical, off.getLogical);

  // Psi pricing: a lease read costs exactly one query DHT-lookup, same
  // as the warm primary read it replaces — identical meters both sides.
  EXPECT_EQ(on.queryLookups, off.queryLookups);
  EXPECT_EQ(on.queryLookups, static_cast<u64>(kReads));
  EXPECT_EQ(on.queryMoved, off.queryMoved);
}

// --- Breakdown arithmetic ---------------------------------------------------

TEST(CostConformance, BreakdownPricesCategories) {
  cost::MeterSet m;
  m.insertion = {10, 5, 0, 0};     // 10 j + 5 i
  m.maintenance = {4, 100, 4, 0};  // 4 j + 100 i over 4 splits
  m.query = {7, 0, 0, 0};
  const cost::CostModel model{2.0, 3.0, kTheta};
  const auto b = model.breakdown(m);
  EXPECT_DOUBLE_EQ(b.insertion, 5 * 2.0 + 10 * 3.0);
  EXPECT_DOUBLE_EQ(b.maintenance, 100 * 2.0 + 4 * 3.0);
  EXPECT_DOUBLE_EQ(b.query, 7 * 3.0);
  EXPECT_DOUBLE_EQ(b.total, b.insertion + b.maintenance + b.query);
  EXPECT_DOUBLE_EQ(b.maintenancePerSplit, b.maintenance / 4.0);
}

}  // namespace
}  // namespace lht
