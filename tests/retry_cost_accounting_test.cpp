// Regression for the retry double-counting bug: a retried operation is ONE
// logical DHT-lookup no matter how many attempts it takes. The Retrying
// decorator splits the ledger into three series per op type:
//
//   dht.<op>.logical   caller-visible operations (the cost-model unit)
//   dht.<op>.attempts  issues against the inner DHT (logical + retries)
//   dht.<op>.raw       executions that reached a routed substrate
//
// Lost *replies* execute before failing (raw == attempts); lost *requests*
// fail before executing (raw == logical successes only).
#include <gtest/gtest.h>

#include <string>

#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "obs/obs.h"

namespace lht::dht {
namespace {

using common::u64;

TEST(RetryCostAccounting, LostRepliesDoNotInflateLogicalCount) {
  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);

  LocalDht store;
  FaultDht lossy(store, FaultDht::Point::Reply, 0.25, /*seed=*/3);
  RetryingDht retrying(lossy, /*maxAttempts=*/12);

  const size_t kOps = 200;
  for (size_t i = 0; i < kOps; ++i) {
    retrying.put(common::numbered("k", i), "v");
  }
  for (size_t i = 0; i < kOps; ++i) {
    auto v = retrying.get(common::numbered("k", i));
    ASSERT_TRUE(v.has_value()) << i;
  }
  ASSERT_GT(retrying.retries(), 0u);

  // Logical counts are pinned to the caller-visible op count.
  EXPECT_EQ(reg.counterValue("dht.put.logical"), kOps);
  EXPECT_EQ(reg.counterValue("dht.get.logical"), kOps);

  // Attempts = logical + retries, per op type.
  EXPECT_EQ(reg.counterValue("dht.put.attempts"),
            kOps + retrying.retriesFor(DhtOp::Put));
  EXPECT_EQ(reg.counterValue("dht.get.attempts"),
            kOps + retrying.retriesFor(DhtOp::Get));

  // A lost reply executes on the substrate before the failure surfaces, so
  // every attempt shows up in the raw (substrate-side) series.
  EXPECT_EQ(reg.counterValue("dht.put.raw"),
            reg.counterValue("dht.put.attempts"));
  EXPECT_EQ(reg.counterValue("dht.get.raw"),
            reg.counterValue("dht.get.attempts"));

  EXPECT_EQ(reg.counterValue("dht.retries"),
            static_cast<u64>(retrying.retries()));
  EXPECT_EQ(reg.counterValue("dht.retries_exhausted"), 0u);
  EXPECT_EQ(reg.counterValue("fault.lost_reply"),
            static_cast<u64>(lossy.injected()));
}

TEST(RetryCostAccounting, LostRequestsNeverReachTheSubstrate) {
  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);

  LocalDht store;
  FaultDht flaky(store, FaultDht::Point::Request, 0.25, /*seed=*/9);
  RetryingDht retrying(flaky, /*maxAttempts=*/12);

  const size_t kOps = 200;
  for (size_t i = 0; i < kOps; ++i) {
    retrying.put(common::numbered("k", i), "v");
  }
  ASSERT_GT(flaky.injected(), 0u);

  EXPECT_EQ(reg.counterValue("dht.put.logical"), kOps);
  EXPECT_EQ(reg.counterValue("dht.put.attempts"),
            kOps + retrying.retriesFor(DhtOp::Put));
  // A lost request fails before execution: only the successful attempt per
  // op reaches the substrate.
  EXPECT_EQ(reg.counterValue("dht.put.raw"), kOps);
  EXPECT_EQ(reg.counterValue("fault.lost_request"),
            static_cast<u64>(flaky.injected()));
}

TEST(RetryCostAccounting, BatchRoundsCountLogicalPerEntry) {
  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);

  LocalDht store;
  FaultDht lossy(store, FaultDht::Point::Reply, 0.25, /*seed=*/17);
  RetryingDht retrying(lossy, /*maxAttempts=*/12);

  std::vector<Key> keys;
  for (size_t i = 0; i < 64; ++i) {
    const Key k = common::numbered("k", i);
    store.storeDirect(k, "v");
    keys.push_back(k);
  }
  auto out = retrying.multiGet(keys);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_TRUE(out[i].ok) << i;

  // One logical get per entry, attempts grow with the re-issued subsets.
  EXPECT_EQ(reg.counterValue("dht.get.logical"), keys.size());
  EXPECT_GT(reg.counterValue("dht.get.attempts"), keys.size());
  EXPECT_EQ(reg.counterValue("dht.get.raw"),
            reg.counterValue("dht.get.attempts"));
}

TEST(RetryCostAccounting, ExhaustionIsCountedSeparately) {
  obs::MetricsRegistry reg;
  obs::ScopedObservability install(&reg, nullptr);

  LocalDht store;
  // Every reply lost.
  FaultDht lossy(store, FaultDht::Point::Reply, 1.0, /*seed=*/1);
  RetryingDht retrying(lossy, /*maxAttempts=*/3);

  EXPECT_THROW(retrying.put("k", "v"), DhtRetriesExhausted);
  EXPECT_EQ(reg.counterValue("dht.put.logical"), 1u);
  EXPECT_EQ(reg.counterValue("dht.put.attempts"), 3u);
  EXPECT_EQ(reg.counterValue("dht.retries_exhausted"), 1u);
}

}  // namespace
}  // namespace lht::dht
