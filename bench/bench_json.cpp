// Machine-readable perf baseline for the client-side caches: the
// leaf-location cache and the decoded-bucket store. Runs the SAME workload
// twice in one process — once with both off (paper-faithful engine) and
// once with both on — and emits both sides plus the speedups as JSON, so
// CI can diff against the committed BENCH_PR2.json without parsing
// tables. Both sides run the batched range fan-out and bulk load, the
// index's only path for them.
//
// Metrics per phase:
//   lookup    exact-match finds: avg DHT-lookups, avg rounds, wall ns/op.
//             The two sides are timed in alternating slices (baseline
//             slice i, then optimized slice i), so a machine-wide slowdown
//             lands on both sides of a slice; speedup.lookup_ns is the
//             median of the per-slice ratios.
//   range     fixed-span queries: avg DHT-lookups, avg rounds, max rounds,
//             max B+3 bound (rounds must stay within it), wall ns/op
//   bulk      one insertBatch of fresh records into a built index: wall
//             ns/record and DHT batch rounds used
//
// Each side also carries a "cost_attribution" block: the ambient metrics
// registry (per-op counters/histograms, see DESIGN.md §9) plus the paper's
// cost model pricing of the measured category meters. With --trace=PATH the
// whole run additionally records a causal op trace and writes it as Chrome
// trace-event JSON (load in chrome://tracing or ui.perfetto.dev). Tracing
// adds per-op span bookkeeping, so traced ns/op numbers are for inspection,
// not for baseline comparison.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "cost/cost_model.h"
#include "dht/local_dht.h"
#include "lht/lht_index.h"
#include "obs/obs.h"
#include "workload/generators.h"

using namespace lht;

namespace {

using Clock = std::chrono::steady_clock;

struct PhaseStats {
  double dhtLookups = 0.0;  ///< mean per operation
  double rounds = 0.0;      ///< mean parallelSteps per operation
  double nsPerOp = 0.0;
  common::u64 maxRounds = 0;
  common::u64 maxBound = 0;  ///< max over queries of bucketsTouched + 3
};

struct Config {
  size_t n = 0;
  common::u32 theta = 0;
  size_t lookups = 0;
  size_t rangeQueries = 0;
  double span = 0.0;
  size_t bulk = 0;
  common::u64 seed = 0;
};

core::LhtIndex::Options indexOpts(const Config& cfg, bool optimized) {
  core::LhtIndex::Options o;
  o.thetaSplit = cfg.theta;
  o.useLeafCache = optimized;
  o.cacheDecodedBuckets = optimized;
  return o;
}

/// Slices per side of the lookup phase.
constexpr size_t kLookupSlices = 10;

/// Times `cfg.lookups` finds on each side in alternating slices, each side
/// under its own registry and running the same finds in the same order.
/// Fills each side's stats and returns the median over slices of
/// baseline ns / optimized ns.
double measureLookups(std::unique_ptr<core::LhtIndex> (&idx)[2],
                      obs::MetricsRegistry (&reg)[2], obs::Tracer* tracer,
                      const Config& cfg, PhaseStats (&out)[2]) {
  common::Pcg32 rng[2] = {common::Pcg32(cfg.seed ^ 0xF00Dull, /*stream=*/7),
                          common::Pcg32(cfg.seed ^ 0xF00Dull, /*stream=*/7)};
  const size_t slices = std::min(kLookupSlices, cfg.lookups);
  double ns[2] = {0.0, 0.0};
  std::vector<double> ratios;
  for (size_t slice = 0; slice < slices; ++slice) {
    double sliceNs[2];
    for (int side = 0; side < 2; ++side) {
      obs::ScopedObservability install(&reg[side], tracer);
      const auto t0 = Clock::now();
      for (size_t i = cfg.lookups * slice / slices;
           i < cfg.lookups * (slice + 1) / slices; ++i) {
        auto res = idx[side]->find(rng[side].nextDouble());
        out[side].dhtLookups += static_cast<double>(res.stats.dhtLookups);
        out[side].rounds += static_cast<double>(res.stats.parallelSteps);
      }
      const auto t1 = Clock::now();
      sliceNs[side] = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      ns[side] += sliceNs[side];
    }
    ratios.push_back(sliceNs[0] / sliceNs[1]);
  }
  const double n = static_cast<double>(cfg.lookups);
  for (int side = 0; side < 2; ++side) {
    out[side].dhtLookups /= n;
    out[side].rounds /= n;
    out[side].nsPerOp = ns[side] / n;
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  return ratios.size() % 2 == 1 ? ratios[mid]
                                : (ratios[mid - 1] + ratios[mid]) / 2.0;
}

PhaseStats measureRanges(core::LhtIndex& idx, const Config& cfg) {
  common::Pcg32 rng(cfg.seed ^ 0xBEEFull, /*stream=*/11);
  PhaseStats out;
  const auto t0 = Clock::now();
  for (size_t i = 0; i < cfg.rangeQueries; ++i) {
    const auto spec = workload::makeRange(cfg.span, rng);
    auto res = idx.rangeQuery(spec.lo, spec.hi);
    out.dhtLookups += static_cast<double>(res.stats.dhtLookups);
    out.rounds += static_cast<double>(res.stats.parallelSteps);
    out.maxRounds = std::max(out.maxRounds, res.stats.parallelSteps);
    out.maxBound = std::max(out.maxBound, res.stats.bucketsTouched + 3);
  }
  const auto t1 = Clock::now();
  const double n = static_cast<double>(cfg.rangeQueries);
  out.dhtLookups /= n;
  out.rounds /= n;
  out.nsPerOp = static_cast<double>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                        .count()) /
                n;
  return out;
}

/// Bulk-loads `cfg.bulk` fresh records into an index already holding the
/// base dataset. Returns {ns per record, DHT batch rounds used}.
std::pair<double, common::u64> measureBulk(const Config& cfg, bool optimized) {
  dht::LocalDht store;
  core::LhtIndex idx(store, indexOpts(cfg, optimized));
  for (const auto& r : workload::makeDataset(workload::Distribution::Uniform,
                                             cfg.n, cfg.seed)) {
    idx.insert(r);
  }
  auto fresh = workload::makeDataset(workload::Distribution::Uniform, cfg.bulk,
                                     cfg.seed ^ 0xB01Dull);
  const auto before = store.stats().batchRounds;
  const auto t0 = Clock::now();
  auto result = idx.insertBatch(std::move(fresh));
  const auto t1 = Clock::now();
  if (!result.ok) {
    std::cerr << "bench_json: bulk load failed\n";
    std::exit(1);
  }
  const double ns = static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t1 - t0)
                            .count()) /
                    static_cast<double>(cfg.bulk);
  return {ns, store.stats().batchRounds - before};
}

/// Rebuilds the category meters from the ambient registry's lht.cost.*
/// counters; the conformance suite asserts these track MeterSet exactly.
cost::MeterSet metersFromRegistry(const obs::MetricsRegistry& reg) {
  cost::MeterSet m;
  m.insertion.dhtLookups = reg.counterValue("lht.cost.insertion.dht_lookups");
  m.insertion.recordsMoved =
      reg.counterValue("lht.cost.insertion.records_moved");
  m.maintenance.dhtLookups =
      reg.counterValue("lht.cost.maintenance.dht_lookups");
  m.maintenance.recordsMoved =
      reg.counterValue("lht.cost.maintenance.records_moved");
  m.maintenance.splits = reg.counterValue("lht.cost.maintenance.splits");
  m.maintenance.merges = reg.counterValue("lht.cost.maintenance.merges");
  m.query.dhtLookups = reg.counterValue("lht.cost.query.dht_lookups");
  return m;
}

void emitCostAttribution(std::ostream& os, const obs::MetricsRegistry& reg,
                         const Config& cfg) {
  const cost::CostModel model{1.0, 1.0, cfg.theta};
  const auto b = model.breakdown(metersFromRegistry(reg));
  os << "    \"cost_attribution\": {\n"
     << "      \"model\": {\"i\": " << model.i << ", \"j\": " << model.j
     << ", \"theta\": " << model.thetaSplit
     << ", \"psi_lht\": " << model.psiLht() << "},\n"
     << "      \"breakdown\": {\"insertion\": " << b.insertion
     << ", \"maintenance\": " << b.maintenance << ", \"query\": " << b.query
     << ", \"total\": " << b.total
     << ", \"maintenance_per_split\": " << b.maintenancePerSplit << "},\n"
     << "      \"metrics\":\n";
  reg.writeJson(os, "      ");
  os << "\n    }\n";
}

void emitPhase(std::ostream& os, const char* indent, const PhaseStats& s,
               bool withBound) {
  os << indent << "\"dht_lookups_per_op\": " << s.dhtLookups << ",\n"
     << indent << "\"rounds_per_op\": " << s.rounds << ",\n";
  if (withBound) {
    os << indent << "\"max_rounds\": " << s.maxRounds << ",\n"
       << indent << "\"max_b_plus_3\": " << s.maxBound << ",\n";
  }
  os << indent << "\"ns_per_op\": " << s.nsPerOp << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags("bench_json",
                      "Emits BENCH_PR2.json: baseline vs cached client, "
                      "measured in one run");
  flags.define("n", "16384", "records in the base dataset");
  flags.define("theta", "100", "bucket split threshold");
  flags.define("lookups", "20000", "exact-match finds per side");
  flags.define("ranges", "300", "range queries per side");
  flags.define("span", "0.05", "range-query span");
  flags.define("bulk", "8192", "records per insertBatch for the bulk phase");
  flags.define("seed", "1", "workload seed");
  flags.define("out", "BENCH_PR2.json", "output path");
  flags.define("trace", "",
               "write a Chrome trace-event JSON of the whole run to this "
               "path (empty = tracing off)");
  if (!flags.parse(argc, argv)) return 1;

  Config cfg;
  cfg.n = static_cast<size_t>(flags.getInt("n"));
  cfg.theta = static_cast<common::u32>(flags.getInt("theta"));
  cfg.lookups = static_cast<size_t>(flags.getInt("lookups"));
  cfg.rangeQueries = static_cast<size_t>(flags.getInt("ranges"));
  cfg.span = flags.getDouble("span");
  cfg.bulk = static_cast<size_t>(flags.getInt("bulk"));
  cfg.seed = static_cast<common::u64>(flags.getInt("seed"));

  const auto dataset =
      workload::makeDataset(workload::Distribution::Uniform, cfg.n, cfg.seed);

  const std::string tracePath = flags.getString("trace");
  obs::Tracer tracerStore;
  obs::Tracer* tracerPtr = tracePath.empty() ? nullptr : &tracerStore;

  PhaseStats lookup[2], range[2];
  double bulkNs[2];
  common::u64 bulkRounds[2];
  obs::MetricsRegistry reg[2];
  dht::LocalDht store[2];
  std::unique_ptr<core::LhtIndex> idx[2];
  const auto sideName = [](int side) {
    return side == 1 ? "bench.optimized" : "bench.baseline";
  };
  for (int side = 0; side < 2; ++side) {
    obs::ScopedObservability install(&reg[side], tracerPtr);
    obs::SpanScope sideSpan(sideName(side), "bench");
    idx[side] =
        std::make_unique<core::LhtIndex>(store[side], indexOpts(cfg, side == 1));
    for (const auto& r : dataset) idx[side]->insert(r);
    // One untimed warm pass so the optimized side measures the steady
    // state (cache populated), not the fill; the baseline is unaffected.
    common::Pcg32 warm(cfg.seed ^ 0xF00Dull, /*stream=*/7);
    for (size_t i = 0; i < cfg.lookups; ++i) idx[side]->find(warm.nextDouble());
  }
  const double lookupSpeedup =
      measureLookups(idx, reg, tracerPtr, cfg, lookup);
  for (int side = 0; side < 2; ++side) {
    obs::ScopedObservability install(&reg[side], tracerPtr);
    obs::SpanScope sideSpan(sideName(side), "bench");
    range[side] = measureRanges(*idx[side], cfg);
    std::tie(bulkNs[side], bulkRounds[side]) = measureBulk(cfg, side == 1);
  }

  std::ostringstream os;
  os.precision(6);
  os << "{\n"
     << "  \"bench\": \"lht_client_features\",\n"
     << "  \"config\": {\"n\": " << cfg.n << ", \"theta\": " << cfg.theta
     << ", \"lookups\": " << cfg.lookups << ", \"ranges\": " << cfg.rangeQueries
     << ", \"span\": " << cfg.span << ", \"bulk\": " << cfg.bulk
     << ", \"seed\": " << cfg.seed << "},\n";
  for (int side = 0; side < 2; ++side) {
    const char* name = side == 0 ? "baseline" : "optimized";
    os << "  \"" << name << "\": {\n"
       << "    \"lookup\": {\n";
    emitPhase(os, "      ", lookup[side], false);
    os << "    },\n"
       << "    \"range\": {\n";
    emitPhase(os, "      ", range[side], true);
    os << "    },\n"
       << "    \"bulk\": {\"ns_per_record\": " << bulkNs[side]
       << ", \"batch_rounds\": " << bulkRounds[side] << "},\n";
    emitCostAttribution(os, reg[side], cfg);
    os << "  },\n";
  }
  os << "  \"speedup\": {\n"
     << "    \"lookup_ns\": " << lookupSpeedup << ",\n"
     << "    \"lookup_dht\": " << lookup[0].dhtLookups / lookup[1].dhtLookups
     << ",\n"
     << "    \"range_ns\": " << range[0].nsPerOp / range[1].nsPerOp << ",\n"
     << "    \"range_rounds\": " << range[0].rounds / range[1].rounds << ",\n"
     << "    \"bulk_ns\": " << bulkNs[0] / bulkNs[1] << "\n"
     << "  },\n"
     << "  \"range_bound_holds\": "
     << (range[1].maxRounds <= range[1].maxBound ? "true" : "false") << "\n"
     << "}\n";

  const std::string path = flags.getString("out");
  std::ofstream f(path);
  if (!f) {
    std::cerr << "bench_json: cannot write " << path << "\n";
    return 1;
  }
  f << os.str();
  std::cout << os.str();
  std::cout << "wrote " << path << "\n";

  if (tracerPtr != nullptr) {
    std::ofstream tf(tracePath);
    if (!tf) {
      std::cerr << "bench_json: cannot write " << tracePath << "\n";
      return 1;
    }
    tracerPtr->writeChromeTrace(tf);
    std::cout << "wrote " << tracePath << " ("
              << tracerPtr->spans().size() << " spans)\n";
  }
  return 0;
}
