// Google-benchmark micro-benchmarks on the hot primitives: the naming
// functions, label algebra, bucket serialization, and end-to-end index
// operations on a warm LocalDht. These quantify the CPU-side cost of the
// scheme (the paper's metrics are bandwidth; this shows compute is trivial).
#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "common/random.h"
#include "dht/local_dht.h"
#include "lht/bucket.h"
#include "lht/lht_index.h"
#include "lht/naming.h"
#include "lht/zorder.h"
#include "obs/obs.h"
#include "pht/pht_index.h"
#include "workload/generators.h"

using namespace lht;
using common::Label;

namespace {

Label randomLeaf(common::Pcg32& rng, common::u32 depth) {
  Label l = Label::root();
  while (l.length() < depth) l = l.child(static_cast<int>(rng.below(2)));
  return l;
}

void BM_NamingFunction(benchmark::State& state) {
  common::Pcg32 rng(1);
  std::vector<Label> leaves;
  for (int i = 0; i < 1024; ++i) leaves.push_back(randomLeaf(rng, 20));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::name(leaves[i++ & 1023]));
  }
}
BENCHMARK(BM_NamingFunction);

void BM_RightNeighbor(benchmark::State& state) {
  common::Pcg32 rng(2);
  std::vector<Label> leaves;
  for (int i = 0; i < 1024; ++i) leaves.push_back(randomLeaf(rng, 20));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rightNeighbor(leaves[i++ & 1023]));
  }
}
BENCHMARK(BM_RightNeighbor);

void BM_LabelFromKey(benchmark::State& state) {
  common::Pcg32 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Label::fromKey(rng.nextDouble(), 20));
  }
}
BENCHMARK(BM_LabelFromKey);

void BM_XxHash64Key(benchmark::State& state) {
  std::string key = "#01101001110";
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::hash::xxhash64(key));
  }
}
BENCHMARK(BM_XxHash64Key);

void BM_BucketSerializeRoundTrip(benchmark::State& state) {
  core::LeafBucket b{*Label::parse("#0110"), {}};
  common::Pcg32 rng(4);
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    b.records.push_back({0.75 + rng.nextDouble() / 8, "payload-" + std::to_string(i)});
  }
  for (auto _ : state) {
    auto bytes = b.serialize();
    auto back = core::LeafBucket::deserialize(bytes);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_BucketSerializeRoundTrip)->Arg(10)->Arg(100);

void BM_LhtInsert(benchmark::State& state) {
  dht::LocalDht d;
  core::LhtIndex idx(d, {.thetaSplit = 100, .maxDepth = 24});
  common::Pcg32 rng(5);
  for (auto _ : state) {
    idx.insert({rng.nextDouble(), "x"});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LhtInsert);

void BM_LhtFindWarm(benchmark::State& state) {
  dht::LocalDht d;
  core::LhtIndex idx(d, {.thetaSplit = 100, .maxDepth = 24});
  auto data = workload::makeDataset(workload::Distribution::Uniform, 1 << 14, 6);
  for (const auto& r : data) idx.insert(r);
  common::Pcg32 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.find(rng.nextDouble()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LhtFindWarm);

// Same workload as BM_LhtFindWarm with observability sinks installed:
// the delta against the plain bench is the enabled-instrumentation cost
// (metrics only, then metrics + span tracing). BM_LhtFindWarm itself runs
// with nothing installed and must stay within 2% of its pre-obs baseline.
void BM_LhtFindWarmObs(benchmark::State& state) {
  dht::LocalDht d;
  core::LhtIndex idx(d, {.thetaSplit = 100, .maxDepth = 24});
  auto data = workload::makeDataset(workload::Distribution::Uniform, 1 << 14, 6);
  for (const auto& r : data) idx.insert(r);
  common::Pcg32 rng(7);
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  const bool trace = state.range(0) != 0;
  obs::ScopedObservability install(&reg, trace ? &tracer : nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.find(rng.nextDouble()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LhtFindWarmObs)->Arg(0)->Arg(1);

// A range over Alg. 3/4 with the leaf cache off: the LCA jump plus one
// forwarding round per dependency level, every time.
void BM_LhtRangeQueryUncached(benchmark::State& state) {
  dht::LocalDht d;
  core::LhtIndex idx(d, {.thetaSplit = 100, .maxDepth = 24});
  auto data = workload::makeDataset(workload::Distribution::Uniform, 1 << 14, 8);
  for (const auto& r : data) idx.insert(r);
  common::Pcg32 rng(9);
  for (auto _ : state) {
    auto spec = workload::makeRange(0.05, rng);
    benchmark::DoNotOptimize(idx.rangeQuery(spec.lo, spec.hi));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LhtRangeQueryUncached);

// A warm range planned from the leaf cache, with perfbench's client options,
// preload size and span (100k records, span 0.005: ~500 records over ~7
// leaves). Arg 0 bulk-loads the records, which leaves every bucket sorted;
// arg 1 inserts them one at a time, which leaves buckets unsorted.
void BM_LhtRangeQueryPlanned(benchmark::State& state) {
  dht::LocalDht d;
  core::LhtIndex::Options o;
  o.useLeafCache = true;
  o.cacheDecodedBuckets = true;
  o.crashConsistentSplits = true;
  core::LhtIndex idx(d, o);
  auto data = workload::makeDataset(workload::Distribution::Uniform, 100'000, 8);
  if (state.range(0) == 0) {
    idx.insertBatch(std::move(data));
  } else {
    for (const auto& r : data) idx.insert(r);
  }
  (void)idx.rangeQuery(0.0, 1.0);  // warms the leaf cache and bucket store
  constexpr double kSpan = 0.005;
  common::Pcg32 rng(9);
  for (auto _ : state) {
    auto spec = workload::makeRange(kSpan, rng);
    benchmark::DoNotOptimize(idx.rangeQuery(spec.lo, spec.hi));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LhtRangeQueryPlanned)->ArgName("single_inserts")->Arg(0)->Arg(1);

void BM_ZOrderEncode(benchmark::State& state) {
  common::Pcg32 rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::zEncode(rng.nextDouble(), rng.nextDouble(), 12));
  }
}
BENCHMARK(BM_ZOrderEncode);

void BM_NextName(benchmark::State& state) {
  common::Pcg32 rng(12);
  std::vector<Label> mus;
  for (int i = 0; i < 1024; ++i) mus.push_back(Label::fromKey(rng.nextDouble(), 24));
  size_t i = 0;
  for (auto _ : state) {
    const Label& mu = mus[i++ & 1023];
    benchmark::DoNotOptimize(core::nextName(mu.prefix(6), mu));
  }
}
BENCHMARK(BM_NextName);

void BM_PhtInsert(benchmark::State& state) {
  dht::LocalDht d;
  pht::PhtIndex::Options o;
  o.thetaSplit = 100;
  o.maxDepth = 24;
  pht::PhtIndex idx(d, o);
  common::Pcg32 rng(10);
  for (auto _ : state) {
    idx.insert({rng.nextDouble(), "x"});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PhtInsert);

}  // namespace
