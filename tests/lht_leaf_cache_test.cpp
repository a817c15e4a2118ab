// Client-side leaf-location cache + decoded-bucket store: warm lookups
// cost one DHT-lookup, warm ranges one round of one DHT-lookup per leaf,
// stale entries (another client split or merged the leaf) self-correct
// instead of returning wrong answers, and the decoded store never changes
// observable behavior — only wall-clock cost.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dht/can.h"
#include "dht/chord.h"
#include "dht/decorators.h"
#include "dht/kademlia.h"
#include "dht/local_dht.h"
#include "dht/pastry.h"
#include "lht/leaf_cache.h"
#include "lht/lht_index.h"
#include "lht/naming.h"
#include "net/sim_network.h"

namespace lht::core {
namespace {

using common::Label;

LhtIndex::Options cachedOpts(common::u32 theta = 8) {
  LhtIndex::Options o;
  o.thetaSplit = theta;
  o.useLeafCache = true;
  o.cacheDecodedBuckets = true;
  return o;
}

std::vector<index::Record> distinctRecords(size_t n, common::u64 seed) {
  common::Pcg32 rng(seed);
  std::set<double> used;
  std::vector<index::Record> recs;
  while (recs.size() < n) {
    const double k = rng.nextDouble();
    if (k <= 0.0 || k >= 1.0 || !used.insert(k).second) continue;
    recs.push_back(index::Record{k, common::numbered("p", recs.size())});
  }
  return recs;
}

// ---------------------------------------------------------------------------
// LeafCache in isolation
// ---------------------------------------------------------------------------

TEST(LeafCacheUnit, NoteFindInvalidateRoundTrip) {
  LeafCache cache(8);
  const Label l = *Label::parse("#001");  // [0.25, 0.5)
  cache.note(l, 3);
  auto e = cache.find(0.3);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->label, l);
  EXPECT_EQ(e->epoch, 3u);
  EXPECT_FALSE(cache.find(0.7).has_value());
  cache.invalidate(l.interval());
  EXPECT_FALSE(cache.find(0.3).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(LeafCacheUnit, NotingAnAncestorDropsOverlappingEntries) {
  LeafCache cache(8);
  cache.note(*Label::parse("#000"), 1);  // [0, 0.25)
  cache.note(*Label::parse("#001"), 1);  // [0.25, 0.5)
  cache.note(*Label::parse("#01"), 1);   // [0.5, 1)
  EXPECT_EQ(cache.size(), 3u);
  // The two left leaves merged into their parent: noting it must evict both.
  cache.note(*Label::parse("#00"), 2);  // [0, 0.5)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(0.3)->label, *Label::parse("#00"));
}

TEST(LeafCacheUnit, ReGrantPreservesReplicaCursor) {
  // A lease re-grant for the SAME leaf must not reset the rotation
  // cursor: on a transport-timeout substrate the next primary read
  // re-grants immediately, and a reset would pin rotation back onto the
  // holder that just timed out.
  LeafCache cache(8);
  const Label l = *Label::parse("#001");
  cache.note(l, 3, /*leaseExpiresAtMs=*/100);
  cache.bumpReplicaCursor(l);
  cache.bumpReplicaCursor(l);
  ASSERT_EQ(cache.find(0.3)->replicaCursor, 2u);
  cache.note(l, 3, /*leaseExpiresAtMs=*/200);  // renewal, same label
  EXPECT_EQ(cache.find(0.3)->replicaCursor, 2u);
  EXPECT_EQ(cache.find(0.3)->leaseExpiresAtMs, 200u);
  // A different label covering the interval is a different leaf (split or
  // merge happened): its rotation state starts fresh.
  cache.note(*Label::parse("#00"), 4, /*leaseExpiresAtMs=*/300);
  EXPECT_EQ(cache.find(0.3)->replicaCursor, 0u);
}

TEST(LeafCacheUnit, ReNoteRefreshesInPlace) {
  LeafCache cache(8);
  const Label l = *Label::parse("#001");  // [0.25, 0.5)
  cache.note(*Label::parse("#000"), 1);
  cache.note(l, 3, /*leaseExpiresAtMs=*/100);
  cache.bumpReplicaCursor(l);
  ASSERT_EQ(cache.size(), 2u);
  cache.note(l, 4, /*leaseExpiresAtMs=*/250);
  auto e = cache.find(0.3);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->epoch, 4u);
  EXPECT_EQ(e->leaseExpiresAtMs, 250u);
  EXPECT_EQ(e->replicaCursor, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.invalidations(), 0u);
  // A plain re-note (no lease) clears the lease in place, as a fresh note
  // would.
  cache.note(l, 5);
  EXPECT_FALSE(cache.find(0.3)->leased());
  EXPECT_EQ(cache.find(0.3)->replicaCursor, 1u);
  EXPECT_EQ(cache.invalidations(), 0u);
}

TEST(LeafCacheUnit, ReNoteInAFullCacheDoesNotFlush) {
  LeafCache cache(2);
  cache.note(*Label::parse("#000"), 1);
  cache.note(*Label::parse("#001"), 1);
  ASSERT_EQ(cache.size(), 2u);
  cache.note(*Label::parse("#001"), 2);  // already cached: nothing to make room for
  EXPECT_EQ(cache.flushes(), 0u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(0.1)->epoch, 1u);
  EXPECT_EQ(cache.find(0.3)->epoch, 2u);
  EXPECT_EQ(cache.invalidations(), 0u);
}

TEST(LeafCacheUnit, TimeoutDropAccounting) {
  LeafCache cache(8);
  const Label l = *Label::parse("#001");
  cache.note(l, 1, /*leaseExpiresAtMs=*/100);
  EXPECT_EQ(cache.leaseTimeouts(), 0u);
  cache.noteLeaseTimeout();
  cache.dropLease(l.interval());
  EXPECT_EQ(cache.leaseTimeouts(), 1u);
  EXPECT_EQ(cache.leaseDrops(), 1u);
  // Location survives; only the lease is gone.
  auto e = cache.find(0.3);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->leased());
}

TEST(LeafCacheUnit, TilingCountsOneHitOrOneMiss) {
  LeafCache cache(8);
  cache.note(*Label::parse("#000"), 1);   // [0, 0.25)
  cache.note(*Label::parse("#001"), 1);   // [0.25, 0.5)
  cache.note(*Label::parse("#0110"), 1);  // [0.75, 0.875)
  cache.note(*Label::parse("#0111"), 1);  // [0.875, 1); [0.5, 0.75) uncached

  const auto labels = [](const std::vector<LeafCache::Entry>& tiles) {
    std::vector<std::string> out;
    for (const auto& e : tiles) out.push_back(e.label.str());
    return out;
  };
  using Names = std::vector<std::string>;
  EXPECT_EQ(labels(cache.tiling({0.1, 0.4})), (Names{"#000", "#001"}));
  EXPECT_EQ(labels(cache.tiling({0.25, 0.5})), (Names{"#001"}));
  EXPECT_EQ(labels(cache.tiling({0.8, 1.0})), (Names{"#0110", "#0111"}));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 0u);

  EXPECT_TRUE(cache.tiling({0.3, 0.8}).empty());   // the gap at 0.5
  EXPECT_TRUE(cache.tiling({0.55, 0.6}).empty());  // nothing covers 0.55
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(LeafCacheUnit, OverflowFlushesInsteadOfEvicting) {
  LeafCache cache(2);
  cache.note(*Label::parse("#000"), 1);
  cache.note(*Label::parse("#001"), 1);
  cache.note(*Label::parse("#01"), 1);  // third entry: capacity valve fires
  EXPECT_EQ(cache.flushes(), 1u);
  EXPECT_EQ(cache.size(), 1u);  // only the entry noted after the flush
}

// ---------------------------------------------------------------------------
// BucketStore in isolation
// ---------------------------------------------------------------------------

TEST(BucketStoreUnit, RevalidatesByRawBytes) {
  BucketStore store(/*enabled=*/true, 16);
  LeafBucket b;
  b.label = *Label::parse("#001");
  b.records = {{0.3, "x"}};
  const std::string raw = b.serialize();
  auto r1 = store.decode("k", raw);
  auto r2 = store.decode("k", raw);
  EXPECT_EQ(r1.get(), r2.get());  // same shared decoded value, no reparse
  EXPECT_EQ(store.hits(), 1u);

  b.records.push_back({0.31, "y"});
  auto r3 = store.decode("k", b.serialize());  // bytes changed: fresh decode
  EXPECT_NE(r1.get(), r3.get());
  EXPECT_EQ(r3->records.size(), 2u);
  EXPECT_EQ(r1->records.size(), 1u);  // the old shared value is untouched
}

TEST(BucketStoreUnit, DisabledStoreStillDecodes) {
  BucketStore store(/*enabled=*/false, 16);
  LeafBucket b;
  b.label = *Label::parse("#001");
  b.records = {{0.3, "x"}};
  const std::string raw = b.serialize();
  auto r1 = store.decode("k", raw);
  auto r2 = store.decode("k", raw);
  ASSERT_TRUE(r1 && r2);
  EXPECT_NE(r1.get(), r2.get());
  EXPECT_EQ(store.hits(), 0u);
  EXPECT_EQ(store.size(), 0u);
}

// ---------------------------------------------------------------------------
// Cache-enabled index behavior
// ---------------------------------------------------------------------------

TEST(LeafCacheIndex, WarmLookupCostsOneDhtLookup) {
  dht::LocalDht store;
  LhtIndex idx(store, cachedOpts());
  const auto recs = distinctRecords(200, 7);
  for (const auto& r : recs) idx.insert(r);

  // First pass self-corrects any entries staled by the splits above.
  for (const auto& r : recs) ASSERT_TRUE(idx.lookup(r.key).bucket.has_value());
  // Second pass: every lookup is a single validated get.
  for (const auto& r : recs) {
    auto out = idx.lookup(r.key);
    ASSERT_TRUE(out.bucket.has_value());
    EXPECT_TRUE(out.bucket->covers(common::clampToUnit(r.key)));
    EXPECT_EQ(out.stats.dhtLookups, 1u) << "key " << r.key;
  }
  EXPECT_GT(idx.leafCache().hits(), 0u);
  EXPECT_GT(idx.bucketStore().hits(), 0u);
}

TEST(LeafCacheIndex, StaleEntryAcrossForeignSplitSelfCorrects) {
  dht::LocalDht store;
  LhtIndex::Options writerOpts;
  writerOpts.thetaSplit = 8;
  LhtIndex writer(store, writerOpts);
  LhtIndex::Options readerOpts = cachedOpts(8);
  readerOpts.attachExisting = true;
  readerOpts.clientSeed = 99;
  LhtIndex reader(store, readerOpts);

  // Few records: one root leaf, which the reader caches for every key.
  std::map<double, std::string> oracle;
  for (const auto& r : distinctRecords(6, 3)) {
    writer.insert(r);
    oracle[r.key] = r.payload;
  }
  for (const auto& [k, v] : oracle) {
    auto f = reader.find(k);
    ASSERT_TRUE(f.record.has_value());
  }
  EXPECT_GT(reader.leafCache().size(), 0u);

  // The writer splits the tree out from under the reader's cache.
  for (const auto& r : distinctRecords(60, 4)) {
    writer.insert(r);
    oracle[r.key] = r.payload;
  }
  ASSERT_GT(writer.meters().maintenance.splits, 0u);

  // Every lookup still lands on the right record; stale entries are dropped
  // rather than trusted.
  for (const auto& [k, v] : oracle) {
    auto f = reader.find(k);
    ASSERT_TRUE(f.record.has_value()) << "key " << k;
    EXPECT_EQ(f.record->payload, v);
  }
  EXPECT_GE(reader.leafCache().invalidations(), 1u);
}

TEST(LeafCacheIndex, StaleEntryAcrossForeignMergeSelfCorrects) {
  dht::LocalDht store;
  LhtIndex::Options writerOpts;
  writerOpts.thetaSplit = 6;
  LhtIndex writer(store, writerOpts);
  LhtIndex::Options readerOpts = cachedOpts(6);
  readerOpts.attachExisting = true;
  readerOpts.clientSeed = 17;
  LhtIndex reader(store, readerOpts);

  std::map<double, std::string> oracle;
  const auto recs = distinctRecords(40, 11);
  for (const auto& r : recs) {
    writer.insert(r);
    oracle[r.key] = r.payload;
  }
  // Warm the reader's cache against the fully split tree.
  for (const auto& [k, v] : oracle) ASSERT_TRUE(reader.find(k).record.has_value());

  // Drain the tree: merges delete donor leaves the reader has cached.
  for (size_t i = 5; i < recs.size(); ++i) {
    writer.erase(recs[i].key);
    oracle.erase(recs[i].key);
  }
  ASSERT_GT(writer.meters().maintenance.merges, 0u);

  for (const auto& [k, v] : oracle) {
    auto f = reader.find(k);
    ASSERT_TRUE(f.record.has_value()) << "key " << k;
    EXPECT_EQ(f.record->payload, v);
  }
  // Erased keys stay gone through the reader's cache too.
  for (size_t i = 5; i < recs.size(); ++i) {
    EXPECT_FALSE(reader.find(recs[i].key).record.has_value());
  }
  EXPECT_GE(reader.leafCache().invalidations(), 1u);
}

TEST(LeafCacheIndex, OracleDifferentialWithAllFeaturesOn) {
  dht::LocalDht store;
  LhtIndex idx(store, cachedOpts(8));

  std::map<double, std::string> oracle;
  common::Pcg32 rng(21);
  for (int step = 0; step < 500; ++step) {
    const double roll = rng.nextDouble();
    const double key = common::clampToUnit(rng.nextDouble());
    if (roll < 0.55) {
      const std::string payload = common::numbered("p", step);
      idx.insert(index::Record{key, payload});
      oracle[key] = payload;
    } else if (roll < 0.75 && !oracle.empty()) {
      auto it = oracle.lower_bound(key);
      if (it == oracle.end()) it = oracle.begin();
      idx.erase(it->first);
      oracle.erase(it);
    } else if (roll < 0.9) {
      auto f = idx.find(key);
      auto it = oracle.find(key);
      EXPECT_EQ(f.record.has_value(), it != oracle.end());
      if (f.record && it != oracle.end()) {
        EXPECT_EQ(f.record->payload, it->second);
      }
    } else {
      const double lo = std::min(key, 0.9);
      const double hi = std::min(1.0, lo + rng.nextDouble() * 0.3);
      auto rr = idx.rangeQuery(lo, hi);
      std::vector<double> expect;
      for (auto it = oracle.lower_bound(lo); it != oracle.end() && it->first < hi; ++it) {
        expect.push_back(it->first);
      }
      ASSERT_EQ(rr.records.size(), expect.size()) << "[" << lo << "," << hi << ")";
      for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(rr.records[i].key, expect[i]);
      }
    }
  }
  // The features actually ran: cache hits and batch rounds both nonzero.
  EXPECT_GT(idx.leafCache().hits(), 0u);
  EXPECT_GT(store.stats().batchRounds, 0u);
}

// ---------------------------------------------------------------------------
// Cache-planned range queries
// ---------------------------------------------------------------------------

/// The writer/reader pair of StaleEntryAcrossForeignSplitSelfCorrects: a
/// writer without a cache changes the tree behind a cached reader, whose
/// cache a cold rangeQuery(0, 1) filled with every leaf. The writer goes
/// through a CrashDht, so a test can kill it in the middle of a split.
struct WarmReader {
  WarmReader()
      : crash(store), writer(crash, writerOptions()), reader(store, readerOptions()) {
    for (const auto& r : distinctRecords(200, 5)) insert(r.key, r.payload);
    reader.rangeQuery(0.0, 1.0);
  }

  static LhtIndex::Options writerOptions() {
    LhtIndex::Options o;
    o.thetaSplit = 8;
    o.crashConsistentSplits = true;
    return o;
  }
  static LhtIndex::Options readerOptions() {
    LhtIndex::Options o = cachedOpts(8);
    o.crashConsistentSplits = true;
    o.attachExisting = true;
    o.clientSeed = 99;
    return o;
  }

  void insert(double key, const std::string& payload) {
    writer.insert({key, payload});
    oracle[key] = payload;
  }
  void erase(double key) {
    writer.erase(key);
    oracle.erase(key);
  }

  /// Inserts fresh keys drawn from `iv` until the writer has split once.
  void splitWith(const common::Interval& iv) {
    const auto before = writer.meters().maintenance.splits;
    common::Pcg32 rng(17);
    while (writer.meters().maintenance.splits == before) {
      const double k = iv.lo + rng.nextDouble() * iv.width();
      if (iv.contains(k) && oracle.count(k) == 0) insert(k, common::numbered("s", k));
    }
  }

  /// The leaves left to right, read by a fresh client without a cache.
  std::vector<LeafBucket> leaves() {
    LhtIndex::Options o;
    o.attachExisting = true;
    o.clientSeed = 7;
    LhtIndex view(store, o);
    std::vector<LeafBucket> out;
    view.forEachBucket([&](const LeafBucket& b) { out.push_back(b); });
    return out;
  }
  LeafBucket leafAt(double key) {
    for (auto& b : leaves()) {
      if (b.covers(key)) return b;
    }
    ADD_FAILURE() << "no leaf covers " << key;
    return {};
  }
  size_t leavesOverlapping(const common::Interval& iv) {
    const auto all = leaves();
    return static_cast<size_t>(std::count_if(all.begin(), all.end(), [&](const LeafBucket& b) {
      return b.label.interval().overlaps(iv);
    }));
  }

  /// The reader's range query, checked against the oracle.
  index::RangeResult expectExactRange(double lo, double hi) {
    auto rr = reader.rangeQuery(lo, hi);
    std::vector<std::pair<double, std::string>> got;
    for (const auto& r : rr.records) got.emplace_back(r.key, r.payload);
    const std::vector<std::pair<double, std::string>> want(oracle.lower_bound(lo),
                                                           oracle.lower_bound(hi));
    EXPECT_EQ(got, want) << "[" << lo << ", " << hi << ")";
    return rr;
  }

  dht::LocalDht store;
  dht::CrashDht crash;
  LhtIndex writer;
  LhtIndex reader;
  std::map<double, std::string> oracle;
};

TEST(PlannedRange, WarmRangeCostsOneLookupPerLeafInOneRound) {
  WarmReader f;
  const std::vector<common::Interval> ranges{
      {0.1, 0.3}, {0.0, 1.0}, {0.42, 0.4205}, {0.6, 0.95}};
  for (const auto& range : ranges) {
    const common::u64 hits = f.reader.leafCache().hits();
    const common::u64 misses = f.reader.leafCache().misses();
    const auto rr = f.expectExactRange(range.lo, range.hi);
    EXPECT_EQ(rr.stats.dhtLookups, f.leavesOverlapping(range)) << range.str();
    EXPECT_EQ(rr.stats.parallelSteps, 1u) << range.str();
    // One planned range is one cache hit.
    EXPECT_EQ(f.reader.leafCache().hits(), hits + 1);
    EXPECT_EQ(f.reader.leafCache().misses(), misses);
  }
}

TEST(PlannedRange, UntiledRangeCostsWhatTheCacheOffPathCosts) {
  WarmReader f;
  LhtIndex::Options plain = WarmReader::writerOptions();
  plain.attachExisting = true;
  plain.clientSeed = 5;
  LhtIndex twin(f.store, plain);
  LhtIndex::Options cached = WarmReader::readerOptions();
  cached.clientSeed = 6;
  LhtIndex cold(f.store, cached);
  cached.clientSeed = 8;
  LhtIndex partial(f.store, cached);
  // Finds fill the partial client's cache below 0.5 only.
  for (const auto& [k, v] : f.oracle) {
    if (k < 0.5) {
      ASSERT_TRUE(partial.find(k).record.has_value());
    }
  }

  const auto expectSameAsTwin = [&](LhtIndex& idx, const common::Interval& range) {
    const common::u64 hits = idx.leafCache().hits();
    const common::u64 misses = idx.leafCache().misses();
    const auto got = idx.rangeQuery(range.lo, range.hi);
    const auto want = twin.rangeQuery(range.lo, range.hi);
    EXPECT_EQ(got.records, want.records) << range.str();
    EXPECT_EQ(got.stats.dhtLookups, want.stats.dhtLookups) << range.str();
    EXPECT_EQ(got.stats.parallelSteps, want.stats.parallelSteps) << range.str();
    // A range the cache cannot tile is one cache miss.
    EXPECT_EQ(idx.leafCache().hits(), hits);
    EXPECT_EQ(idx.leafCache().misses(), misses + 1);
  };
  expectSameAsTwin(cold, {0.0, 1.0});
  expectSameAsTwin(partial, {0.3, 0.8});
  expectSameAsTwin(partial, {0.55, 0.9});
}

TEST(PlannedRange, ForeignSplitOfAnInteriorTileCostsOneFanoutRound) {
  WarmReader f;
  const common::Interval range{0.2, 0.7};
  const LeafBucket tile = f.leafAt(0.45);
  ASSERT_TRUE(tile.label.interval().subsetOf(range));
  ASSERT_NE(tile.label.interval().lo, range.lo);
  ASSERT_NE(tile.label.interval().hi, range.hi);
  const size_t tiles = f.leavesOverlapping(range);

  f.splitWith(tile.label.interval());
  ASSERT_EQ(f.leavesOverlapping(range), tiles + 1);

  // name(tile) holds the child that kept it; the moved child is forwarded.
  const auto rr = f.expectExactRange(range.lo, range.hi);
  EXPECT_EQ(rr.stats.dhtLookups, tiles + 1);
  EXPECT_EQ(rr.stats.parallelSteps, 2u);
}

TEST(PlannedRange, EdgeTileWhoseNameHoldsTheFarChildIsReResolved) {
  // The leftmost leaf λ ends in 0: after it splits, name(λ) holds its left
  // child and the moved right child sits under λ. A range starting inside
  // the right child finds the left one under name(λ), wholly outside the
  // clip; expanded from there, it would forward the whole right child,
  // keys below lo included.
  WarmReader f;
  const Label tile = f.leaves().front().label;
  ASSERT_EQ(tile.lastBit(), 0);
  const common::Interval right = tile.child(1).interval();
  f.splitWith(right);
  const auto first = f.oracle.lower_bound(right.lo);
  ASSERT_TRUE(first != f.oracle.end() && right.contains(first->first));

  const common::Interval range{std::nextafter(first->first, 1.0),
                               tile.interval().hi + 0.1};
  const auto rr = f.expectExactRange(range.lo, range.hi);
  // The tile's fetch plus its re-resolving lookup.
  EXPECT_GT(rr.stats.dhtLookups, f.leavesOverlapping(range));
  EXPECT_GT(rr.stats.parallelSteps, 1u);
}

/// Drains two sibling leaves, the one that keeps their parent's name first,
/// until the writer merges them. Returns {absorber, donor}: the absorber's
/// name now holds the parent, the donor's name is gone.
std::pair<Label, Label> mergeSiblings(WarmReader& f) {
  const auto leaves = f.leaves();
  for (size_t i = 0; i + 1 < leaves.size(); ++i) {
    const Label& left = leaves[i].label;
    if (left.length() < 2 || left.sibling() != leaves[i + 1].label) continue;
    const bool leftAbsorbs = dhtKeyFor(left) == dhtKeyFor(left.parent());
    const LeafBucket& absorber = leaves[leftAbsorbs ? i : i + 1];
    const LeafBucket& donor = leaves[leftAbsorbs ? i + 1 : i];
    if (absorber.records.empty() || donor.records.size() < 2) continue;
    const auto before = f.writer.meters().maintenance.merges;
    std::vector<double> keys;
    for (const auto& r : absorber.records) keys.push_back(r.key);
    for (const auto& r : donor.records) keys.push_back(r.key);
    for (double k : keys) {
      f.erase(k);
      if (f.writer.meters().maintenance.merges != before) break;
    }
    EXPECT_EQ(f.writer.meters().maintenance.merges, before + 1);
    return {absorber.label, donor.label};
  }
  ADD_FAILURE() << "no sibling leaves to merge";
  return {};
}

TEST(PlannedRange, ForeignMergeReResolvesTheTileWhoseNameWasDeleted) {
  WarmReader f;
  const auto [absorber, donor] = mergeSiblings(f);
  const common::Interval range = donor.interval();
  const auto rr = f.expectExactRange(range.lo, range.hi);
  EXPECT_GT(rr.stats.dhtLookups, 1u);
  // Every lookup after the tile's is the re-resolve's sequential search:
  // the merged parent covers the clip, so nothing was forwarded.
  EXPECT_EQ(rr.stats.parallelSteps, rr.stats.dhtLookups);
  EXPECT_EQ(rr.stats.bucketsTouched, 1u);
}

TEST(PlannedRange, ForeignMergeClipsTheParentUnderTheTilesName) {
  WarmReader f;
  const auto [absorber, donor] = mergeSiblings(f);
  // The donor's records now sit in the parent, outside the clip.
  ASSERT_NE(f.oracle.lower_bound(donor.interval().lo),
            f.oracle.lower_bound(donor.interval().hi));
  const common::Interval range = absorber.interval();
  const auto rr = f.expectExactRange(range.lo, range.hi);
  EXPECT_EQ(rr.stats.dhtLookups, 1u);
  EXPECT_EQ(rr.stats.parallelSteps, 1u);
  EXPECT_EQ(rr.stats.bucketsTouched, 1u);
}

TEST(PlannedRange, HalfFinishedSplitIsAnsweredExactlyAndRepaired) {
  WarmReader f;
  const common::Interval range{0.2, 0.7};
  const LeafBucket tile = f.leafAt(0.45);
  ASSERT_TRUE(tile.label.interval().subsetOf(range));

  // Kill the writer between staging a split of the tile (the insert's own
  // apply) and shipping the moved child.
  const common::Interval iv = tile.label.interval();
  common::Pcg32 rng(23);
  for (bool crashed = false; !crashed;) {
    const double k = iv.lo + rng.nextDouble() * iv.width();
    if (!iv.contains(k) || f.oracle.count(k) != 0) continue;
    f.crash.armAfterWrites(1);
    try {
      f.writer.insert({k, "c"});
    } catch (const dht::CrashError&) {
      crashed = true;
    }
    f.oracle[k] = "c";  // the apply landed either way
  }
  const auto staged = f.store.get(dhtKeyFor(tile.label));
  ASSERT_TRUE(staged.has_value());
  ASSERT_TRUE(LeafBucket::deserialize(*staged)->splitIntent.has_value());

  f.expectExactRange(range.lo, range.hi);
  EXPECT_EQ(f.reader.repairStats().splitRepairs, 1u);
  for (const auto& b : f.leaves()) EXPECT_TRUE(b.clean()) << b.label.str();
}

// ---------------------------------------------------------------------------
// Read leases (DESIGN.md §13)
// ---------------------------------------------------------------------------

TEST(LeafCacheUnit, LeaseGrantRotateAndDropKeepLocation) {
  LeafCache cache(8);
  const Label l = *Label::parse("#001");  // [0.25, 0.5)

  // A plain note is a location only; a note with an expiry grants a lease.
  cache.note(l, 3);
  EXPECT_FALSE(cache.find(0.3)->leased());
  cache.note(l, 3, /*leaseExpiresAtMs=*/500);
  ASSERT_TRUE(cache.find(0.3)->leased());
  EXPECT_EQ(cache.find(0.3)->leaseExpiresAtMs, 500u);

  // The rotation cursor post-increments per read turn (find() never
  // advances it); a label with no entry reports slot 0 — the caller's
  // read then revalidates.
  EXPECT_EQ(cache.bumpReplicaCursor(l), 0u);
  EXPECT_EQ(cache.bumpReplicaCursor(l), 1u);
  EXPECT_EQ(cache.bumpReplicaCursor(l), 2u);
  EXPECT_EQ(cache.bumpReplicaCursor(*Label::parse("#01")), 0u);

  // dropLease revokes the lease but keeps the location: the leaf did not
  // move just because a replica holder died.
  cache.dropLease(l.interval());
  ASSERT_TRUE(cache.find(0.3).has_value());
  EXPECT_FALSE(cache.find(0.3)->leased());
  EXPECT_EQ(cache.leaseDrops(), 1u);

  // Served-read accounting is explicit and separate.
  cache.notePrimaryServed();
  cache.noteLeaseServed();
  cache.noteLeaseServed();
  cache.noteLeaseStale();
  cache.noteLeaseExpired();
  EXPECT_EQ(cache.primaryHits(), 1u);
  EXPECT_EQ(cache.leaseHits(), 2u);
  EXPECT_EQ(cache.leaseStale(), 1u);
  EXPECT_EQ(cache.leaseExpired(), 1u);
}

LhtIndex::Options leasedOpts(common::u32 theta = 16) {
  LhtIndex::Options o = cachedOpts(theta);
  o.leasedReads = true;
  o.leaseTtlMs = 60'000;
  return o;
}

TEST(LeafCacheIndex, LeaseHitsCountedSeparatelyFromPrimaryHits) {
  net::SimNetwork net;
  dht::ChordDht::Options copts;
  copts.initialPeers = 8;
  copts.seed = 9;
  copts.replication = 2;  // fanout 1: turns alternate replica / primary
  dht::ChordDht chord(net, copts);
  LhtIndex idx(chord, leasedOpts());
  const auto recs = distinctRecords(64, 21);
  for (const auto& r : recs) idx.insert(r);

  // Warm pass: primary reads re-anchor every leaf's entry at the current
  // epoch and grant leases. (During the inserts above, each insert bumps
  // its leaf's epoch ahead of the client's cached lease, so some earlier
  // replica turns legitimately went stale — cumulative counters include
  // those.)
  for (const auto& r : recs) ASSERT_TRUE(idx.find(r.key).record.has_value());
  const common::u64 primaryBefore = idx.leafCache().primaryHits();
  const common::u64 leaseBefore = idx.leafCache().leaseHits();
  const common::u64 staleBefore = idx.leafCache().leaseStale();
  const common::u64 dropsBefore = idx.leafCache().leaseDrops();
  for (int round = 0; round < 4; ++round) {
    for (const auto& r : recs) {
      ASSERT_TRUE(idx.find(r.key).record.has_value());
    }
  }
  const auto& cache = idx.leafCache();
  EXPECT_GT(cache.leaseHits(), leaseBefore);
  EXPECT_GT(cache.primaryHits(), primaryBefore);
  // Every location-cache hit resolved to exactly one of the two buckets.
  EXPECT_LE(cache.leaseHits() + cache.primaryHits(), cache.hits());
  // Read-only traffic: epochs never moved, so no lease went stale and
  // none was dropped during the rotation rounds.
  EXPECT_EQ(cache.leaseStale(), staleBefore);
  EXPECT_EQ(cache.leaseDrops(), dropsBefore);
}

TEST(LeafCacheIndex, DeadReplicaHolderDropsLeaseNotLocation) {
  net::SimNetwork net;
  dht::ChordDht::Options copts;
  copts.initialPeers = 8;
  copts.seed = 4;
  copts.replication = 3;
  dht::ChordDht chord(net, copts);
  LhtIndex idx(chord, leasedOpts());
  const auto recs = distinctRecords(48, 33);
  for (const auto& r : recs) idx.insert(r);
  const double hotKey = recs[0].key;
  ASSERT_TRUE(idx.find(hotKey).record.has_value());  // location + lease

  // Crash the first replica holder of the hot leaf (its owner's first
  // distinct ring successor — virtualNodes defaults to 1).
  const std::string leafKey = idx.lookup(hotKey).dhtKey;
  const common::u64 ownerId = chord.ownerOf(leafKey);
  const auto ids = chord.nodeIds();
  auto it = std::upper_bound(ids.begin(), ids.end(), ownerId);
  bool crashed = false;
  for (size_t probe = 0; probe + 1 < ids.size() && !crashed; ++probe) {
    if (it == ids.end()) it = ids.begin();
    const common::u64 victim = *it;
    ++it;
    if (victim == ownerId || chord.crashWouldLoseData(victim)) continue;
    chord.crash(victim);
    crashed = true;
  }
  ASSERT_TRUE(crashed);

  // Reads keep succeeding: a replica turn that hits the dark holder
  // drops the lease (not the location) and the primary serves instead.
  const common::u64 missesBefore = idx.leafCache().misses();
  for (int i = 0; i < 12; ++i) {
    auto r = idx.find(hotKey);
    ASSERT_TRUE(r.record.has_value()) << "read " << i << " failed";
    EXPECT_EQ(r.record->payload, recs[0].payload);
  }
  EXPECT_GT(idx.leafCache().leaseDrops(), 0u);
  // The location survived every drop: no full binary-search re-resolve
  // was ever needed (misses only grow when the location is gone).
  EXPECT_EQ(idx.leafCache().misses(), missesBefore);
}

// On substrates without replica-read support (Kademlia, Pastry, CAN keep
// replicas for durability but expose no getReplica path), enabling
// leasedReads must be safely inert: replicaFanout() == 0 means no lease
// is ever granted and every read is a correct primary read.
TEST(LeafCacheIndex, LeasesSafelyInertWithoutReplicaReadSupport) {
  const auto exercise = [](dht::Dht& d) {
    ASSERT_EQ(d.replicaFanout(), 0u);
    LhtIndex idx(d, leasedOpts());
    const auto recs = distinctRecords(48, 55);
    for (const auto& r : recs) idx.insert(r);
    for (int round = 0; round < 2; ++round) {
      for (const auto& r : recs) {
        auto res = idx.find(r.key);
        ASSERT_TRUE(res.record.has_value());
        EXPECT_EQ(res.record->payload, r.payload);
      }
    }
    EXPECT_EQ(idx.leafCache().leaseHits(), 0u);
    EXPECT_EQ(idx.leafCache().leaseDrops(), 0u);
    EXPECT_GT(idx.leafCache().primaryHits(), 0u);
  };
  {
    net::SimNetwork net;
    dht::KademliaDht::Options o;
    o.initialPeers = 8;
    o.replication = 2;
    dht::KademliaDht d(net, o);
    exercise(d);
  }
  {
    net::SimNetwork net;
    dht::PastryDht::Options o;
    o.initialPeers = 8;
    o.replication = 2;
    dht::PastryDht d(net, o);
    exercise(d);
  }
  {
    net::SimNetwork net;
    dht::CanDht::Options o;
    o.initialPeers = 8;
    o.replication = 2;
    dht::CanDht d(net, o);
    exercise(d);
  }
}

}  // namespace
}  // namespace lht::core
