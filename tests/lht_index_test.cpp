// End-to-end tests of the LHT index against the in-memory oracle, on both
// the LocalDht and the Chord substrate (the paper's "adaptable to any DHT").
#include "lht/lht_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "dht/chord.h"
#include "dht/kademlia.h"
#include "dht/local_dht.h"
#include "index/reference_index.h"
#include "lht/naming.h"
#include "net/sim_network.h"
#include "workload/generators.h"

namespace lht::core {
namespace {

using common::Label;

LhtIndex::Options smallOpts(common::u32 theta = 8, common::u32 depth = 20) {
  LhtIndex::Options o;
  o.thetaSplit = theta;
  o.maxDepth = depth;
  return o;
}

TEST(LhtIndex, EmptyIndexIsSingleRootLeaf) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts());
  EXPECT_EQ(idx.recordCount(), 0u);
  // The root leaf "#0" is stored under its name "#".
  EXPECT_TRUE(d.get("#").has_value());
  size_t buckets = 0;
  idx.forEachBucket([&](const LeafBucket& b) {
    EXPECT_EQ(b.label, Label::root());
    ++buckets;
  });
  EXPECT_EQ(buckets, 1u);
}

TEST(LhtIndex, FindOnEmptyIndex) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts());
  EXPECT_FALSE(idx.find(0.5).record.has_value());
  EXPECT_FALSE(idx.minRecord().record.has_value());
  EXPECT_FALSE(idx.maxRecord().record.has_value());
  EXPECT_TRUE(idx.rangeQuery(0.0, 1.0).records.empty());
}

TEST(LhtIndex, InsertThenFind) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts());
  idx.insert({0.3, "a"});
  idx.insert({0.7, "b"});
  EXPECT_EQ(idx.recordCount(), 2u);
  auto fa = idx.find(0.3);
  ASSERT_TRUE(fa.record.has_value());
  EXPECT_EQ(fa.record->payload, "a");
  EXPECT_FALSE(idx.find(0.5).record.has_value());
}

TEST(LhtIndex, BoundaryKeysAccepted) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts());
  idx.insert({0.0, "zero"});
  idx.insert({1.0, "one"});
  EXPECT_TRUE(idx.find(0.0).record.has_value());
  EXPECT_TRUE(idx.find(1.0).record.has_value());
  EXPECT_THROW(idx.insert({1.5, "bad"}), common::InvariantError);
  EXPECT_THROW(idx.insert({-0.1, "bad"}), common::InvariantError);
}

/// Structural invariants after arbitrary growth: leaf intervals tile [0, 1)
/// exactly (double-root fullness), every bucket is stored under its name,
/// and every record sits in the leaf covering its key.
void checkStructure(dht::Dht& d, LhtIndex& idx) {
  std::vector<LeafBucket> buckets;
  idx.forEachBucket([&](const LeafBucket& b) { buckets.push_back(b); });
  ASSERT_FALSE(buckets.empty());
  double edge = 0.0;
  std::set<std::string> names;
  size_t records = 0;
  for (const auto& b : buckets) {
    const auto iv = b.label.interval();
    EXPECT_DOUBLE_EQ(iv.lo, edge) << b.label.str();
    edge = iv.hi;
    auto stored = d.get(dhtKeyFor(b.label));
    ASSERT_TRUE(stored.has_value()) << b.label.str();
    auto decoded = LeafBucket::deserialize(*stored);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->label, b.label);
    EXPECT_TRUE(names.insert(dhtKeyFor(b.label)).second) << "duplicate name";
    for (const auto& r : b.records) {
      EXPECT_TRUE(b.covers(r.key)) << b.label.str() << " " << r.key;
      ++records;
    }
  }
  EXPECT_DOUBLE_EQ(edge, 1.0);
  EXPECT_EQ(records, idx.recordCount());
}

TEST(LhtIndex, StructureInvariantsUnderUniformGrowth) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(8));
  auto data = workload::makeDataset(workload::Distribution::Uniform, 500, 3);
  for (const auto& r : data) idx.insert(r);
  checkStructure(d, idx);
}

TEST(LhtIndex, StructureInvariantsUnderGaussianGrowth) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(8, 30));
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 500, 4);
  for (const auto& r : data) idx.insert(r);
  checkStructure(d, idx);
}

TEST(LhtIndex, LookupMatchesBinaryAndLinear) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(8));
  auto data = workload::makeDataset(workload::Distribution::Uniform, 400, 5);
  for (const auto& r : data) idx.insert(r);
  common::Pcg32 rng(6);
  for (int i = 0; i < 200; ++i) {
    const double key = rng.nextDouble();
    auto bin = idx.lookup(key);
    auto lin = idx.lookupLinear(key);
    ASSERT_TRUE(bin.bucket.has_value());
    ASSERT_TRUE(lin.bucket.has_value());
    EXPECT_EQ(bin.bucket->label, lin.bucket->label) << key;
    EXPECT_EQ(bin.dhtKey, lin.dhtKey);
    EXPECT_TRUE(bin.bucket->covers(key));
  }
}

TEST(LhtIndex, LookupCostIsLogOfHalfD) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(8, 20));
  auto data = workload::makeDataset(workload::Distribution::Uniform, 2000, 8);
  for (const auto& r : data) idx.insert(r);
  common::Pcg32 rng(9);
  double total = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(idx.lookup(rng.nextDouble()).stats.dhtLookups);
  }
  // Sec. 5: ~log2(D/2) ~ 3.3 for D=20; allow generous slack but far below D.
  EXPECT_LT(total / n, 6.0);
  EXPECT_GE(total / n, 1.0);
}

TEST(LhtIndex, AgreesWithOracleOnMixedWorkload) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(6));
  index::ReferenceIndex oracle;
  common::Pcg32 rng(12);
  for (int step = 0; step < 1500; ++step) {
    const double key = rng.nextDouble();
    if (rng.below(4) != 0) {
      index::Record r{key, common::numbered("p", step)};
      idx.insert(r);
      oracle.insert(r);
    } else {
      // Erase a key that may or may not exist: pick an existing one half
      // the time through the oracle's nearest record.
      auto probe = oracle.rangeQuery(key, 1.0);
      const double victim = probe.records.empty() ? key : probe.records.front().key;
      EXPECT_EQ(idx.erase(victim).ok, oracle.erase(victim).ok) << step;
    }
    ASSERT_EQ(idx.recordCount(), oracle.recordCount()) << step;
  }
  // Full content equality via a whole-space range query.
  auto mine = idx.rangeQuery(0.0, 1.0);
  auto truth = oracle.rangeQuery(0.0, 1.0);
  ASSERT_EQ(mine.records.size(), truth.records.size());
  std::sort(truth.records.begin(), truth.records.end(), index::recordLess);
  for (size_t i = 0; i < mine.records.size(); ++i) {
    EXPECT_EQ(mine.records[i], truth.records[i]) << i;
  }
  checkStructure(d, idx);
}

TEST(LhtIndex, MinMaxMatchTheorem3) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(8));
  auto data = workload::makeDataset(workload::Distribution::Uniform, 600, 15);
  double lo = 2.0, hi = -1.0;
  for (const auto& r : data) {
    idx.insert(r);
    lo = std::min(lo, r.key);
    hi = std::max(hi, r.key);
  }
  auto mn = idx.minRecord();
  auto mx = idx.maxRecord();
  ASSERT_TRUE(mn.record.has_value());
  ASSERT_TRUE(mx.record.has_value());
  EXPECT_DOUBLE_EQ(mn.record->key, lo);
  EXPECT_DOUBLE_EQ(mx.record->key, hi);
  // Theorem 3: one DHT-lookup each once the tree has grown.
  EXPECT_EQ(mn.stats.dhtLookups, 1u);
  EXPECT_EQ(mx.stats.dhtLookups, 1u);
}

TEST(LhtIndex, MinMaxOnSingleLeafTree) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(100));
  idx.insert({0.4, "a"});
  idx.insert({0.6, "b"});
  EXPECT_DOUBLE_EQ(idx.minRecord().record->key, 0.4);
  // "#0" is not a name yet; maxRecord falls back to "#".
  auto mx = idx.maxRecord();
  EXPECT_DOUBLE_EQ(mx.record->key, 0.6);
  EXPECT_EQ(mx.stats.dhtLookups, 2u);
}

TEST(LhtIndex, MinSurvivesEmptiedLeftmostLeaf) {
  dht::LocalDht d;
  LhtIndex::Options o = smallOpts(4);
  o.enableMerge = false;  // keep the empty leaf around
  LhtIndex idx(d, o);
  for (double k : {0.01, 0.02, 0.03, 0.6, 0.7, 0.8, 0.9}) idx.insert({k, "x"});
  for (double k : {0.01, 0.02, 0.03}) idx.erase(k);
  auto mn = idx.minRecord();
  ASSERT_TRUE(mn.record.has_value());
  EXPECT_DOUBLE_EQ(mn.record->key, 0.6);
}

TEST(LhtIndex, WorksOnChordSubstrate) {
  net::SimNetwork net;
  dht::ChordDht::Options copts;
  copts.initialPeers = 24;
  dht::ChordDht d(net, copts);
  LhtIndex idx(d, smallOpts(8));
  auto data = workload::makeDataset(workload::Distribution::Uniform, 300, 21);
  index::ReferenceIndex oracle;
  for (const auto& r : data) {
    idx.insert(r);
    oracle.insert(r);
  }
  auto mine = idx.rangeQuery(0.2, 0.8);
  auto truth = oracle.rangeQuery(0.2, 0.8);
  EXPECT_EQ(mine.records.size(), truth.records.size());
  EXPECT_TRUE(d.checkRing());
}

TEST(LhtIndex, WorksOnKademliaSubstrate) {
  net::SimNetwork net;
  dht::KademliaDht::Options kopts;
  kopts.initialPeers = 24;
  dht::KademliaDht d(net, kopts);
  LhtIndex idx(d, smallOpts(8));
  auto data = workload::makeDataset(workload::Distribution::Gaussian, 300, 22);
  index::ReferenceIndex oracle;
  for (const auto& r : data) {
    idx.insert(r);
    oracle.insert(r);
  }
  auto mine = idx.rangeQuery(0.3, 0.7);
  auto truth = oracle.rangeQuery(0.3, 0.7);
  EXPECT_EQ(mine.records.size(), truth.records.size());
}

TEST(LhtIndex, SurvivesChordChurnBetweenOperations) {
  net::SimNetwork net;
  dht::ChordDht::Options copts;
  copts.initialPeers = 12;
  dht::ChordDht d(net, copts);
  LhtIndex idx(d, smallOpts(8));
  index::ReferenceIndex oracle;
  common::Pcg32 rng(33);
  for (int step = 0; step < 400; ++step) {
    index::Record r{rng.nextDouble(), common::numbered("p", step)};
    idx.insert(r);
    oracle.insert(r);
    if (step % 40 == 20) d.join("late-" + std::to_string(step));
    if (step % 40 == 39) {
      auto ids = d.nodeIds();
      d.leave(ids[rng.below(static_cast<common::u32>(ids.size()))]);
    }
  }
  EXPECT_TRUE(d.checkRing());
  auto mine = idx.rangeQuery(0.0, 1.0);
  EXPECT_EQ(mine.records.size(), oracle.recordCount());
}

TEST(LhtIndex, DuplicateKeysSupported) {
  dht::LocalDht d;
  LhtIndex idx(d, smallOpts(4));
  for (int i = 0; i < 10; ++i) idx.insert({0.5, common::numbered("dup", i)});
  EXPECT_EQ(idx.recordCount(), 10u);
  auto rr = idx.rangeQuery(0.5, 0.500001);
  EXPECT_EQ(rr.records.size(), 10u);
  EXPECT_TRUE(idx.erase(0.5).ok);
  EXPECT_EQ(idx.recordCount(), 0u);
}

/// Forwards to an inner Dht and counts applies. An armed apply first runs
/// its mutator once on a copy of the stored bucket relabelled to a leaf
/// that does not cover the op's key, and discards the result: the run a
/// mutator gets before a CAS conflict, a re-read or a lost-reply retry
/// shows it the state the write then really applies to. Each entry of a
/// batched apply counts (and can be armed) too.
class StaleFirstRunDht final : public dht::ForwardingDht {
 public:
  explicit StaleFirstRunDht(dht::Dht& inner) : ForwardingDht(inner) {}

  void armNextApply(const Label& elsewhere) { armed_ = elsewhere; }
  [[nodiscard]] size_t applies() const { return applies_; }

 private:
  void onCall(Call& call, const Forward& forward) override {
    if (call.op == dht::DhtOp::Apply) staleRun(call.key, call.fn);
    forward();
  }
  void onRound(Round& round, const Issue& issue) override {
    for (size_t i = 0; i < round.fns.size(); ++i) {
      staleRun(round.keys[i], round.fns[i]);
    }
    issue(round.all());
  }
  void staleRun(const dht::Key& key, const dht::Mutator& fn) {
    ++applies_;
    if (!armed_) return;
    auto stored = inner_.get(key);
    auto bucket = LeafBucket::deserialize(stored.value());
    bucket->label = *armed_;
    armed_.reset();
    std::optional<dht::Value> elsewhere = bucket->serialize();
    fn(elsewhere);
  }

  std::optional<Label> armed_;
  size_t applies_ = 0;
};

TEST(LhtIndexMutatorRerun, StaleRunDoesNotOutliveTheRunThatApplies) {
  // Every insert and erase runs its mutator on a non-covering bucket
  // first (stale), then for real (applies). The verdict of the first run
  // must not survive into the second: the op costs one apply, not a
  // re-resolve and a second apply.
  dht::LocalDht local;
  StaleFirstRunDht d(local);
  LhtIndex::Options opts = smallOpts(6);
  opts.enableMerge = false;  // one apply per erase, none for merges
  LhtIndex idx(d, opts);
  index::ReferenceIndex oracle;
  common::Pcg32 rng(41);
  std::vector<double> keys;
  for (int i = 0; i < 120; ++i) {
    const index::Record r{rng.nextDouble(), common::numbered("p", i)};
    d.armNextApply(Label::fromKey(r.key, 12).sibling());
    const size_t before = d.applies();
    ASSERT_TRUE(idx.insert(r).ok);
    EXPECT_EQ(d.applies() - before, 1u) << "insert " << i;
    oracle.insert(r);
    keys.push_back(r.key);
  }
  for (size_t i = 0; i < keys.size(); i += 3) {
    d.armNextApply(Label::fromKey(keys[i], 12).sibling());
    const size_t before = d.applies();
    ASSERT_TRUE(idx.erase(keys[i]).ok);
    EXPECT_EQ(d.applies() - before, 1u) << "erase " << i;
    oracle.erase(keys[i]);
  }
  ASSERT_EQ(idx.recordCount(), oracle.recordCount());
  auto mine = idx.rangeQuery(0.0, 1.0);
  auto truth = oracle.rangeQuery(0.0, 1.0);
  ASSERT_EQ(mine.records.size(), truth.records.size());
  std::sort(truth.records.begin(), truth.records.end(), index::recordLess);
  for (size_t i = 0; i < mine.records.size(); ++i) {
    EXPECT_EQ(mine.records[i], truth.records[i]) << i;
  }
  checkStructure(local, idx);
}

/// Forwards to an inner Dht, but reads one key as absent until the index
/// has run `rounds` multiGet rounds. With the leaf cache off, the only
/// rounds a write's lookup runs are its hole probes, one per failed
/// binary search: hiding the covering leaf for all of them makes the
/// search give up, and the linear walk that follows (plain gets) finds the
/// leaf. Every hidden read still reaches the inner substrate and counts.
class HidingDht final : public dht::ForwardingDht {
 public:
  explicit HidingDht(dht::Dht& inner) : ForwardingDht(inner) {}

  void hide(std::string key, size_t rounds) {
    hidden_ = std::move(key);
    roundsLeft_ = rounds;
  }

 private:
  void onCall(Call& call, const Forward& forward) override {
    forward();
    if (call.op == dht::DhtOp::Get) hideIf(call.key, call.read);
  }
  void onRound(Round& round, const Issue& issue) override {
    issue(round.all());
    if (round.op != dht::DhtOp::Get) return;
    for (size_t i = 0; i < round.size(); ++i) hideIf(round.keys[i], round.gets[i]);
    if (roundsLeft_ > 0) --roundsLeft_;
  }
  /// A hidden key reads as absent.
  void hideIf(const dht::Key& key, dht::GetOutcome& o) const {
    if (roundsLeft_ == 0 || key != hidden_) return;
    o.value.reset();
    o.unchanged = false;
  }

  std::string hidden_;
  size_t roundsLeft_ = 0;
};

TEST(LhtIndexLookupFallback, WritesChargeTheSearchThatFoundNoLeaf) {
  // A write whose binary search finds no covering leaf falls back to the
  // linear walk. Both walks' probes reached the substrate, so the op must
  // report and charge both, as find does.
  dht::LocalDht local;
  HidingDht d(local);
  LhtIndex::Options opts = smallOpts(8);
  opts.enableMerge = false;  // an erase is its lookups and one apply
  LhtIndex idx(d, opts);
  common::Pcg32 rng(23);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(idx.insert({rng.nextDouble(), "seed"}).ok);
  }
  constexpr size_t kHoleProbeRounds = 4;  // one per binary search lookupInternal runs

  const auto check = [&](const char* what, double key, const auto& write) {
    d.hide(idx.lookup(key).dhtKey, kHoleProbeRounds);
    const auto holeProbes = idx.repairStats().holeProbes;
    const common::u64 counted = local.stats().lookups;
    const auto before = idx.meters();
    const index::UpdateResult r = write();
    const auto& after = idx.meters();
    ASSERT_TRUE(r.ok) << what;
    EXPECT_EQ(idx.repairStats().holeProbes - holeProbes, kHoleProbeRounds) << what;
    const common::u64 substrate = local.stats().lookups - counted;
    const common::u64 insertion =
        after.insertion.dhtLookups - before.insertion.dhtLookups;
    const common::u64 maintenance =
        after.maintenance.dhtLookups - before.maintenance.dhtLookups;
    EXPECT_EQ(r.stats.dhtLookups, insertion) << what;
    EXPECT_EQ(insertion + maintenance, substrate) << what;
  };
  check("insert", 0.3, [&] { return idx.insert({0.3, "x"}); });
  check("erase", 0.3, [&] { return idx.erase(0.3); });
  check("insertBatch", 0.6, [&] {
    return idx.insertBatch({{0.6, "a"}, {0.6000001, "b"}, {0.9, "c"}});
  });
  checkStructure(local, idx);
}

/// Checks every bucket value written through it: it decodes, and
/// serializing the decoded bucket gives back its bytes. A write that
/// starts from a held bucket sends that bucket serialized again, and its
/// CAS is guarded by the digest of those bytes, so a current copy matches
/// only if serialize inverts decode.
class ReserializeCheck final : public dht::ForwardingDht {
 public:
  using ForwardingDht::ForwardingDht;
  void storeDirect(const dht::Key& key, dht::Value value) override {
    check(value);
    inner_.storeDirect(key, std::move(value));
  }
  size_t written = 0;

 private:
  void onCall(Call& call, const Forward& forward) override {
    if (call.op == dht::DhtOp::Put) check(call.value);
    if (call.op == dht::DhtOp::Apply) call.fn = checked(std::move(call.fn));
    forward();
  }
  void onRound(Round& round, const Issue& issue) override {
    for (dht::Mutator& fn : round.fns) fn = checked(std::move(fn));
    issue(round.all());
  }
  dht::Mutator checked(dht::Mutator fn) {
    return [this, fn = std::move(fn)](std::optional<dht::Value>& v) {
      fn(v);
      if (v.has_value()) check(*v);
    };
  }
  void check(const std::string& bytes) {
    written += 1;
    const auto bucket = LeafBucket::deserialize(bytes);
    ASSERT_TRUE(bucket.has_value());
    EXPECT_EQ(bucket->serialize(), bytes);
  }
};

TEST(LhtIndex, EveryWrittenBucketReserializesToItsBytes) {
  // Each split mode, merges of both kinds, bulk loads and the caches.
  std::vector<LhtIndex::Options> configs(3, smallOpts(8));
  configs[0].crashConsistentSplits = true;
  configs[0].useLeafCache = true;
  configs[0].cacheDecodedBuckets = true;
  configs[2].allowCascadingSplits = true;
  for (const LhtIndex::Options& o : configs) {
    dht::LocalDht local;
    ReserializeCheck dht(local);
    LhtIndex idx(dht, o);
    auto recs = workload::makeDataset(workload::Distribution::Uniform, 600, 41);
    const std::vector<index::Record> batch(recs.begin() + 400, recs.end());
    recs.resize(400);
    for (const auto& r : recs) ASSERT_TRUE(idx.insert(r).ok);
    for (size_t i = 0; i < 300; ++i) (void)idx.erase(recs[i].key);
    ASSERT_TRUE(idx.insertBatch(batch).ok);
    EXPECT_GT(idx.meters().maintenance.merges, 0u);
    EXPECT_GT(dht.written, 700u);
  }
}

}  // namespace
}  // namespace lht::core
