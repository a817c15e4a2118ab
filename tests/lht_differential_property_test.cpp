// Property-based differential test: LhtIndex with EVERY opt-in feature
// enabled (leaf cache, crash-consistent splits, decoded-bucket cache) and
// its batched fan-out behind a fault-injecting decorator stack must stay
// observably equivalent to the in-memory ReferenceIndex on random mixed
// workloads. Seeds are PCG32-derived and printed on failure so any
// divergence replays deterministically.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "workload/trace.h"

namespace lht {
namespace {

using common::u64;
using workload::Operation;

std::string describeKeys(const index::RangeResult& r) {
  std::ostringstream os;
  for (const auto& rec : r.records) os << rec.key << " ";
  return os.str();
}

void runSeed(u64 seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " (rerun: LhtDifferentialProperty with this seed)");

  dht::LocalDht store;
  dht::FaultDht flaky(store, dht::FaultDht::Point::Request, 0.02,
                      seed ^ 0xF1A6u);
  dht::FaultDht lossy(flaky, dht::FaultDht::Point::Reply, 0.05,
                      seed ^ 0x10057u);
  dht::RetryingDht retrying(lossy, /*maxAttempts=*/16);

  core::LhtIndex::Options opts;
  opts.thetaSplit = 8;  // small leaves: plenty of splits and merges
  opts.useLeafCache = true;
  opts.crashConsistentSplits = true;
  opts.cacheDecodedBuckets = true;
  opts.clientSeed = seed;
  core::LhtIndex idx(retrying, opts);
  index::ReferenceIndex ref;

  // Bulk phase: exercise the batched insert path with a seed dataset.
  workload::TraceMix bulkMix;
  bulkMix.insert = 1.0;
  bulkMix.erase = bulkMix.find = bulkMix.range = 0.0;
  std::vector<index::Record> bulk;
  for (const Operation& op :
       workload::makeMixedTrace(workload::Distribution::Uniform, 64, bulkMix,
                                seed ^ 0xB01Du)) {
    bulk.push_back(index::Record{op.key, op.payload});
  }
  idx.insertBatch(bulk);
  for (const auto& r : bulk) ref.insert(r);

  // Mixed phase: one op at a time, compared after every step.
  workload::TraceMix mix;
  mix.insert = 0.45;
  mix.erase = 0.20;
  mix.find = 0.20;
  mix.range = 0.10;
  mix.minmax = 0.05;
  const auto ops = workload::makeMixedTrace(workload::Distribution::Uniform,
                                            500, mix, seed);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE("op=" + std::to_string(i));
    const Operation& op = ops[i];
    switch (op.kind) {
      case Operation::Kind::Insert: {
        idx.insert(index::Record{op.key, op.payload});
        ref.insert(index::Record{op.key, op.payload});
        break;
      }
      case Operation::Kind::Erase: {
        auto mine = idx.erase(op.key);
        auto oracle = ref.erase(op.key);
        EXPECT_EQ(mine.ok, oracle.ok) << "erase " << op.key;
        break;
      }
      case Operation::Kind::Find: {
        auto mine = idx.find(op.key);
        auto oracle = ref.find(op.key);
        ASSERT_EQ(mine.record.has_value(), oracle.record.has_value())
            << "find " << op.key;
        if (mine.record) {
          EXPECT_EQ(mine.record->key, oracle.record->key);
          EXPECT_EQ(mine.record->payload, oracle.record->payload);
        }
        break;
      }
      case Operation::Kind::Range: {
        auto mine = idx.rangeQuery(op.key, op.hi);
        auto oracle = ref.rangeQuery(op.key, op.hi);
        ASSERT_EQ(mine.records.size(), oracle.records.size())
            << "range [" << op.key << ", " << op.hi << ") mine: "
            << describeKeys(mine) << "oracle: " << describeKeys(oracle);
        for (size_t k = 0; k < mine.records.size(); ++k) {
          EXPECT_EQ(mine.records[k].key, oracle.records[k].key) << k;
        }
        break;
      }
      case Operation::Kind::Min:
      case Operation::Kind::Max: {
        const bool isMin = op.kind == Operation::Kind::Min;
        auto mine = isMin ? idx.minRecord() : idx.maxRecord();
        auto oracle = isMin ? ref.minRecord() : ref.maxRecord();
        ASSERT_EQ(mine.record.has_value(), oracle.record.has_value());
        if (mine.record) {
          EXPECT_EQ(mine.record->key, oracle.record->key);
        }
        break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(idx.recordCount(), ref.recordCount());

  // Faults must actually have fired for the run to mean anything.
  EXPECT_GT(flaky.injected() + lossy.injected(), 0u);
}

TEST(LhtDifferentialProperty, AllFeaturesOnUnderFaultsMatchesReference) {
  // PCG32-derived seed schedule: deterministic, and each seed is printed by
  // SCOPED_TRACE on any failure.
  common::Pcg32 seeder(0xD1FFu);
  for (int run = 0; run < 8; ++run) {
    runSeed(seeder.next64());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lht
