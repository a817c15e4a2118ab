// Tests for failure injection (FaultDht) and recovery (RetryingDht), and
// for the index's behaviour over an unreliable-but-retried substrate.
#include "dht/decorators.h"

#include <gtest/gtest.h>

#include "dht/local_dht.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "workload/generators.h"

namespace lht::dht {
namespace {

TEST(FlakyDht, InjectsFailuresAtTheConfiguredRate) {
  LocalDht inner;
  FaultDht flaky(inner, FaultDht::Point::Request, 0.3, /*seed=*/1);
  size_t failures = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    try {
      flaky.put(common::numbered("k", i), "v");
    } catch (const DhtError&) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, flaky.injected());
  EXPECT_NEAR(static_cast<double>(failures) / n, 0.3, 0.04);
  // Failed puts must not have reached the inner store.
  EXPECT_EQ(inner.size(), static_cast<size_t>(n) - failures);
}

TEST(FlakyDht, ZeroProbabilityNeverFails) {
  LocalDht inner;
  FaultDht flaky(inner, FaultDht::Point::Request, 0.0);
  for (int i = 0; i < 100; ++i) flaky.put(common::numbered("k", i), "v");
  EXPECT_EQ(flaky.injected(), 0u);
  EXPECT_EQ(flaky.size(), 100u);
}

TEST(FlakyDht, FailuresHappenBeforeExecution) {
  // A lost apply must not have executed its mutation (at-most-once).
  LocalDht inner;
  inner.storeDirect("k", "original");
  FaultDht flaky(inner, FaultDht::Point::Request, 0.5, /*seed=*/3);
  int mutations = 0;
  int successes = 0;
  for (int i = 0; i < 200; ++i) {
    try {
      flaky.apply("k", [&](std::optional<Value>& v) {
        ++mutations;
        *v = common::numbered("m", i);
      });
      ++successes;
    } catch (const DhtError&) {
    }
  }
  EXPECT_EQ(mutations, successes);
}

TEST(RetryingDht, AbsorbsFailures) {
  LocalDht inner;
  FaultDht flaky(inner, FaultDht::Point::Request, 0.4, /*seed=*/5);
  RetryingDht retrying(flaky, /*maxAttempts=*/32);
  for (int i = 0; i < 500; ++i) retrying.put(common::numbered("k", i), "v");
  EXPECT_EQ(inner.size(), 500u);
  EXPECT_GT(retrying.retries(), 100u);  // ~0.4/(1-0.4) * 500
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(retrying.get(common::numbered("k", i)).has_value());
  }
}

TEST(RetryingDht, GivesUpAfterMaxAttempts) {
  LocalDht inner;
  FaultDht flaky(inner, FaultDht::Point::Request, 0.99, /*seed=*/7);
  RetryingDht retrying(flaky, /*maxAttempts=*/3);
  EXPECT_THROW(
      {
        for (int i = 0; i < 50; ++i) retrying.put(common::numbered("k", i), "v");
      },
      DhtError);
}

TEST(LhtOverFlakySubstrate, RetriesMakeItExactlyCorrect) {
  // The paper's robustness split: index integrity is the DHT's job. With
  // client-side retries over a 25%-lossy substrate, every index operation
  // behaves exactly as over a reliable one.
  LocalDht inner;
  FaultDht flaky(inner, FaultDht::Point::Request, 0.25, /*seed=*/11);
  RetryingDht retrying(flaky, /*maxAttempts=*/64);
  core::LhtIndex idx(retrying, {.thetaSplit = 8, .maxDepth = 24});
  index::ReferenceIndex oracle;

  auto data = workload::makeDataset(workload::Distribution::Uniform, 600, 13);
  for (const auto& r : data) {
    idx.insert(r);
    oracle.insert(r);
  }
  EXPECT_GT(flaky.injected(), 200u);

  auto mine = idx.rangeQuery(0.0, 1.0);
  ASSERT_EQ(mine.records.size(), oracle.recordCount());
  common::Pcg32 rng(17);
  for (int q = 0; q < 50; ++q) {
    auto spec = workload::makeRange(0.1, rng);
    EXPECT_EQ(idx.rangeQuery(spec.lo, spec.hi).records.size(),
              oracle.rangeQuery(spec.lo, spec.hi).records.size());
  }
  EXPECT_DOUBLE_EQ(idx.minRecord().record->key, oracle.minRecord().record->key);
}

}  // namespace
}  // namespace lht::dht
