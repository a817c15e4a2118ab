// Batched multi-key rounds end to end: the range fan-out, bulk load, and
// repair sweep return exactly what the per-key sequential paths (which
// this index used to run) returned, at exactly the same DHT-lookup cost —
// only the critical path (rounds of simultaneously issued requests)
// shrinks. Checked against results pinned from those sequential paths and
// against the paper's range bound (<= B + 3 rounds).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "dht/chord.h"
#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "lht/lht_index.h"
#include "net/sim_clock.h"
#include "net/sim_network.h"

namespace lht::core {
namespace {

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

LhtIndex::Options opts(common::u32 theta = 8) {
  LhtIndex::Options o;
  o.thetaSplit = theta;
  return o;
}

/// FNV-1a over each record's key bits and payload, in order.
common::u64 digest(const std::vector<index::Record>& recs) {
  common::u64 h = 1469598103934665603ull;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const auto& r : recs) {
    common::u64 bits = 0;
    std::memcpy(&bits, &r.key, sizeof bits);
    for (int i = 0; i < 8; ++i) mix(static_cast<unsigned char>(bits >> (8 * i)));
    for (char c : r.payload) mix(static_cast<unsigned char>(c));
    mix(0xFF);
  }
  return h;
}

TEST(BatchedRange, MatchesSequentialRecordsAndLookupsExactly) {
  // Per query, as the sequential recursion answered it: record count and
  // digest, DHT-lookups, critical-path steps, buckets touched.
  struct Expected {
    size_t records;
    common::u64 digest;
    common::u64 dhtLookups;
    common::u64 parallelSteps;
    common::u64 bucketsTouched;
  };
  const std::vector<Expected> sequential = {
      {128, 0xa5a883209b376832ull, 32, 6, 30},
      {12, 0x4ae08c0f5fbc22e8ull, 4, 3, 3},
      {229, 0x00a9875e90eb537dull, 56, 7, 53},
      {85, 0xcb690690903be69dull, 21, 5, 19},
      {120, 0xa3fd471facdde804ull, 31, 6, 30},
      {65, 0x311ec00fa4cdadb1ull, 17, 5, 15},
      {227, 0xd8c116f87ed032b1ull, 54, 7, 53},
      {228, 0xf0ebbf3cf590bae8ull, 53, 7, 52},
      {114, 0x18e836aff0a3b4e6ull, 28, 6, 27},
      {27, 0x9b49dbad249f0de9ull, 6, 3, 6},
      {117, 0x86087c4bc9e84838ull, 31, 7, 28},
      {31, 0x429a98a30bd9f955ull, 11, 5, 8},
      {189, 0xb91f8bd2f5be6cfaull, 47, 7, 45},
      {166, 0x1a99c0d06eb6388eull, 40, 7, 39},
      {5, 0x38b88fd10d114a36ull, 3, 2, 2},
      {39, 0x841309e8293e9767ull, 10, 5, 9},
      {39, 0x1aab75edab24dff1ull, 11, 5, 10},
      {181, 0x328523af45cac5bcull, 44, 7, 43},
      {30, 0x38bbc5d254c6a465ull, 10, 5, 8},
      {87, 0xfb03edbc9eb35557ull, 22, 5, 20},
      {158, 0xfa3637587600c440ull, 38, 6, 37},
      {10, 0x06f23a8c291903e0ull, 6, 4, 4},
      {121, 0xafcc17d8646c045aull, 32, 6, 30},
      {152, 0xd384cba703e20724ull, 39, 7, 37},
      {30, 0x8737cc9ae1e1b421ull, 12, 5, 9},
      {13, 0x5cefacf0e9acd4a3ull, 3, 2, 3},
      {14, 0xf59a4f59688318a7ull, 5, 4, 4},
      {96, 0xff3e4b48fe50aeb5ull, 25, 6, 24},
      {65, 0xf41e58b502f29d7full, 19, 5, 17},
      {52, 0x12c8408e05dd18a2ull, 15, 5, 14},
      {1, 0x33aeabae8000e293ull, 1, 1, 1},
      {47, 0x9e1b4693f9408eecull, 13, 5, 11},
      {143, 0xfa325ac7fecfab87ull, 36, 6, 34},
      {228, 0xdc6f768f4b087d11ull, 56, 7, 54},
      {21, 0xe398a1c333b7ecfeull, 8, 5, 6},
      {108, 0x154765d5983a2fc8ull, 25, 5, 24},
      {18, 0x0f13eeef74b0d027ull, 5, 3, 4},
      {233, 0xeb463a90ba0e4a9bull, 54, 7, 54},
      {24, 0x145a57e1c4089619ull, 10, 5, 8},
      {250, 0xbf82e25225f5f7a1ull, 60, 8, 57},
      {35, 0xa08d654e5fb85920ull, 11, 5, 9},
      {197, 0x9e5385ead6e530f5ull, 49, 7, 47},
      {4, 0x52c3998b3f1d6f5eull, 3, 3, 2},
      {24, 0x3230f2a868276862ull, 8, 4, 6},
      {197, 0x1f8731aa071e8ae3ull, 48, 7, 46},
      {53, 0xd1b1503bee6cd8ddull, 15, 5, 13},
      {83, 0xd8e89f3a840f11daull, 22, 6, 19},
      {108, 0xdd92d6c03b21ba3cull, 29, 7, 27},
      {209, 0xfc46f9ab337de296ull, 51, 7, 49},
      {1, 0xdc73438941cfd966ull, 4, 3, 2},
      {39, 0xc50a4369ee679205ull, 13, 5, 10},
      {56, 0xe5f5c9c44c774c7full, 15, 5, 13},
      {157, 0x91d0ca6c2ca2abf5ull, 39, 7, 37},
      {273, 0xed84959f7930fa3eull, 62, 7, 62},
      {193, 0x5c74bf7ba91c9a15ull, 47, 7, 46},
      {139, 0x2d3f06a29c0e9d64ull, 35, 6, 33},
      {156, 0xfa815bf311f8c26bull, 39, 7, 36},
      {130, 0xb3253cdadbbc29d9ull, 32, 7, 31},
      {62, 0xb30a092ee3debc76ull, 17, 5, 15},
      {258, 0x9753f8f78ba663feull, 59, 7, 59},
  };

  dht::LocalDht store;
  LhtIndex idx(store, opts());
  const auto recs = distinctRecords(300, 5);
  for (const auto& r : recs) idx.insert(r);

  common::Pcg32 rng(9);
  for (const Expected& want : sequential) {
    const double a = rng.nextDouble();
    const double b = rng.nextDouble();
    const double lo = std::min(a, b);
    const double hi = std::max(a, b);
    auto rr = idx.rangeQuery(lo, hi);
    SCOPED_TRACE(testing::Message() << "[" << lo << "," << hi << ")");
    std::vector<index::Record> oracle;
    for (const auto& r : recs) {
      if (r.key >= lo && r.key < hi) oracle.push_back(r);
    }
    std::sort(oracle.begin(), oracle.end(), index::recordLess);
    EXPECT_EQ(rr.records, oracle);
    EXPECT_EQ(rr.records.size(), want.records);
    EXPECT_EQ(digest(rr.records), want.digest);
    // Same bandwidth (the paper's cost unit), same critical path: lockstep
    // BFS rounds equal the longest dependent-fetch chain of the recursion.
    EXPECT_EQ(rr.stats.dhtLookups, want.dhtLookups);
    EXPECT_EQ(rr.stats.parallelSteps, want.parallelSteps);
    EXPECT_EQ(rr.stats.bucketsTouched, want.bucketsTouched);
  }
  EXPECT_GT(store.stats().batchRounds, 0u);
}

TEST(BatchedRange, RoundsStayWithinPaperBound) {
  dht::LocalDht store;
  LhtIndex idx(store, opts(6));
  for (const auto& r : distinctRecords(400, 13)) idx.insert(r);

  common::Pcg32 rng(31);
  for (int trial = 0; trial < 40; ++trial) {
    const double lo = rng.nextDouble() * 0.8;
    const double hi = lo + rng.nextDouble() * (1.0 - lo);
    if (hi <= lo) continue;
    auto rr = idx.rangeQuery(lo, hi);
    // Theorem/range bound: B buckets answered in at most B + 3 rounds
    // (parallelSteps counts the LCA entry fetch plus the fan-out rounds).
    EXPECT_LE(rr.stats.parallelSteps, rr.stats.bucketsTouched + 3)
        << "[" << lo << "," << hi << ")";
  }
}

TEST(BatchedInsertBatch, BuildsTheIdenticalTree) {
  // The leaves (label:record count, left to right) the per-leaf sequential
  // bulk load built from this batch.
  const std::string sequentialShape =
      "#0000000:3 #00000010:2 #00000011:3 #00000100:2 #000001010:1 "
      "#000001011:4 #0000011:3 #0000100:2 #00001010:2 #00001011:3 "
      "#00001100:4 #00001101:2 #0000111:3 #00010000:2 #00010001:4 "
      "#0001001:3 #0001010:2 #0001011:4 #00011000:2 #00011001:3 "
      "#0001101:4 #0001110:2 #0001111:4 #001000000:3 #001000001:3 "
      "#00100001:0 #0010001:2 #00100100:2 #001001010:4 #001001011:3 "
      "#00100110:3 #00100111:4 #00101000:2 #00101001:3 #0010101:2 "
      "#0010110:4 #0010111:3 #0011000:2 #0011001:4 #00110100:3 "
      "#00110101:3 #0011011:4 #0011100:3 #0011101:2 #001111:2 "
      "#010000000:3 #010000001:2 #01000001:4 #010000100:4 #010000101:2 "
      "#01000011:3 #0100010:3 #0100011:2 #0100100:4 #0100101:1 "
      "#0100110:4 #01001110:4 #01001111:2 #01010000:3 #01010001:2 "
      "#0101001:3 #0101010:1 #0101011:4 #0101100:3 #0101101:3 #0101110:1 "
      "#0101111:4 #0110000:1 #01100010:2 #01100011:3 #0110010:3 "
      "#01100110:1 #01100111:4 #0110100:3 #01101010:3 #01101011:3 "
      "#0110110:2 #01101110:2 #01101111:4 #011100:4 #0111010:3 "
      "#011101100:1 #0111011010:3 #0111011011:3 #01110111:3 #0111100:4 "
      "#0111101:4 #0111110:3 #0111111:4";

  const auto recs = distinctRecords(250, 17);
  dht::LocalDht store;
  LhtIndex idx(store, opts(6));
  auto result = idx.insertBatch(recs);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.splitOrMerged);

  std::ostringstream shape;
  size_t leaves = 0;
  idx.forEachBucket([&](const LeafBucket& b) {
    shape << (leaves++ == 0 ? "" : " ") << b.label.str() << ":" << b.records.size();
    // Each leaf holds exactly the batch's records inside its interval.
    std::vector<index::Record> want;
    for (const auto& r : recs) {
      if (b.label.interval().contains(r.key)) want.push_back(r);
    }
    std::sort(want.begin(), want.end(), index::recordLess);
    auto got = b.records;
    std::sort(got.begin(), got.end(), index::recordLess);
    EXPECT_EQ(got, want) << "leaf " << b.label.str();
  });
  EXPECT_EQ(shape.str(), sequentialShape);
  // All records land, findable afterwards.
  for (const auto& r : recs) {
    auto f = idx.find(r.key);
    ASSERT_TRUE(f.record.has_value());
    EXPECT_EQ(f.record->payload, r.payload);
  }
}

TEST(BatchedInsertBatch, ShipsGroupsAndChildrenInTwoRounds) {
  dht::LocalDht store;
  LhtIndex idx(store, opts(6));
  auto result = idx.insertBatch(distinctRecords(120, 23));
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.splitOrMerged);  // 120 records at theta 6 must split
  // One multiApply round for the groups, one for the split-off children.
  EXPECT_EQ(store.stats().batchRounds, 2u);
}

TEST(BatchedLatency, SimulatedTimeIsStepsTimesRoundTrip) {
  net::SimClock clock;
  dht::LocalDht store;
  dht::LatencyDht lat(store, clock, {.baseMs = 10, .jitterMs = 0, .seed = 1});
  LhtIndex idx(lat, opts());
  for (const auto& r : distinctRecords(200, 41)) idx.insert(r);

  common::Pcg32 rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const double lo = rng.nextDouble() * 0.7;
    const double hi = lo + 0.25;
    const common::u64 before = clock.nowMs();
    auto rr = idx.rangeQuery(lo, hi);
    const common::u64 elapsed = clock.nowMs() - before;
    // Every sequential probe costs one round-trip; every batch round costs
    // ONE round-trip no matter how many keys it carries. parallelSteps is
    // exactly the number of round-trips on the critical path.
    EXPECT_EQ(elapsed, 10u * rr.stats.parallelSteps)
        << "[" << lo << "," << hi << ")";
  }
}

TEST(BatchedRepairSweep, CleanTreeSweepsWithoutRepairs) {
  dht::LocalDht store;
  LhtIndex idx(store, opts(6));
  for (const auto& r : distinctRecords(150, 53)) idx.insert(r);
  EXPECT_EQ(idx.repairSweep(), 0u);
  EXPECT_GT(store.stats().batchRounds, 0u);  // the sweep probed in rounds
}

TEST(BatchedSubstrate, ChordMultiGetChargesCriticalPathOnly) {
  net::SimNetwork net;
  net::SimClock clock;
  net.attachClock(&clock, /*perHopLatencyMs=*/5);
  dht::ChordDht::Options co;
  co.initialPeers = 16;
  co.seed = 3;
  dht::ChordDht chord(net, co);

  chord.put("alpha", "1");
  chord.put("beta", "2");

  // Per-key sequential cost first.
  common::u64 t0 = clock.nowMs();
  ASSERT_EQ(chord.get("alpha"), std::optional<dht::Value>("1"));
  const common::u64 costA = clock.nowMs() - t0;
  t0 = clock.nowMs();
  ASSERT_EQ(chord.get("beta"), std::optional<dht::Value>("2"));
  const common::u64 costB = clock.nowMs() - t0;
  ASSERT_GT(costA + costB, 0u);

  // The batched round returns the same values but advances simulated time
  // by the slowest entry, not the sum.
  t0 = clock.nowMs();
  auto out = chord.multiGet({"alpha", "beta"});
  const common::u64 costRound = clock.nowMs() - t0;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].ok);
  EXPECT_TRUE(out[1].ok);
  EXPECT_EQ(out[0].value, std::optional<dht::Value>("1"));
  EXPECT_EQ(out[1].value, std::optional<dht::Value>("2"));
  EXPECT_EQ(costRound, std::max(costA, costB));
}

}  // namespace
}  // namespace lht::core
