// Reproduces Fig. 10 (paper Sec. 9.4): range-query latency measured in
// *paralleled DHT-lookup steps* (the longest dependent lookup chain), for
// LHT, PHT(sequential) and PHT(parallel).
//
//  Fig. 10a: vs data size at a fixed span (uniform and gaussian).
//  Fig. 10b: vs range span at a fixed data size.
//
// Paper claims: PHT(sequential) is an order of magnitude slower (the axis
// breaks in the figure); LHT is the fastest, ~18% below PHT(parallel),
// whose latency deteriorates on skewed (gaussian) data.
//
// --trace=PATH additionally records one LHT build + range-query run (at the
// span-sweep data size) with the causal op tracer installed and writes it as
// Chrome trace-event JSON — load in chrome://tracing or ui.perfetto.dev to
// see the fan-out rounds under each rangeQuery span.
#include <fstream>
#include <iostream>

#include "common/csv.h"
#include "common/flags.h"
#include "obs/obs.h"
#include "sim/experiment.h"

using namespace lht;

namespace {

double avgRangeSteps(sim::IndexKind kind, workload::Distribution dist, size_t n,
                     double span, size_t queries, int repeats) {
  double sum = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    sim::ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.dist = dist;
    cfg.dataSize = n;
    cfg.theta = 100;
    cfg.maxDepth = 24;
    cfg.seed = static_cast<common::u64>(rep + 1);
    sim::Experiment exp(cfg);
    exp.build();
    sum += exp.measureRanges(span, queries).parallelSteps;
  }
  return sum / repeats;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags("fig10_range_latency", "Fig. 10: range-query latency");
  flags.define("repeats", "3", "independent datasets per point");
  flags.define("queries", "100", "range queries per dataset");
  flags.define("span", "0.1", "fixed span for the data-size sweep");
  flags.define("minpow", "10", "smallest data size = 2^minpow");
  flags.define("maxpow", "15", "largest data size = 2^maxpow");
  flags.define("sizepow", "14", "fixed data size = 2^sizepow for the span sweep");
  flags.define("csv", "false", "emit CSV instead of a pretty table");
  flags.define("trace", "",
               "write a Chrome trace-event JSON of one traced LHT run to "
               "this path (empty = off)");
  if (!flags.parse(argc, argv)) return 1;
  const int repeats = static_cast<int>(flags.getInt("repeats"));
  const auto queries = static_cast<size_t>(flags.getInt("queries"));
  const double span = flags.getDouble("span");

  const std::string tracePath = flags.getString("trace");
  if (!tracePath.empty()) {
    obs::MetricsRegistry reg;
    obs::Tracer tracer;
    {
      obs::ScopedObservability install(&reg, &tracer);
      sim::ExperimentConfig cfg;
      cfg.kind = sim::IndexKind::Lht;
      cfg.dist = workload::Distribution::Uniform;
      cfg.dataSize = size_t{1} << flags.getInt("sizepow");
      cfg.theta = 100;
      cfg.maxDepth = 24;
      cfg.seed = 1;
      sim::Experiment exp(cfg);
      exp.build();
      exp.measureRanges(span, queries);
    }
    std::ofstream tf(tracePath);
    if (!tf) {
      std::cerr << "fig10_range_latency: cannot write " << tracePath << "\n";
      return 1;
    }
    tracer.writeChromeTrace(tf);
    std::cout << "wrote " << tracePath << " (" << tracer.spans().size()
              << " spans; load in chrome://tracing or ui.perfetto.dev)\n\n";
  }

  for (auto dist : {workload::Distribution::Uniform, workload::Distribution::Gaussian}) {
    common::Table a({"data_size", "lht", "pht_seq", "pht_par", "lht_vs_par"});
    for (int p = static_cast<int>(flags.getInt("minpow"));
         p <= static_cast<int>(flags.getInt("maxpow")); ++p) {
      const size_t n = size_t{1} << p;
      const double lht = avgRangeSteps(sim::IndexKind::Lht, dist, n, span, queries, repeats);
      const double seq = avgRangeSteps(sim::IndexKind::PhtSequential, dist, n, span, queries, repeats);
      const double par = avgRangeSteps(sim::IndexKind::PhtParallel, dist, n, span, queries, repeats);
      a.row()
          .add(static_cast<common::i64>(n))
          .add(lht)
          .add(seq)
          .add(par)
          .add(par > 0 ? 1.0 - lht / par : 0.0);
    }
    if (flags.getBool("csv")) {
      a.printCsv(std::cout);
    } else {
      a.printPretty(std::cout, "Fig. 10a (" + workload::distributionName(dist) +
                                   "): parallel steps per range query, span=" +
                                   flags.getString("span"));
    }
    std::cout << "\n";
  }

  common::Table b({"span", "lht", "pht_seq", "pht_par"});
  const size_t fixedN = size_t{1} << flags.getInt("sizepow");
  for (double s : {0.015625, 0.03125, 0.0625, 0.125, 0.25, 0.5}) {
    b.row()
        .add(s)
        .add(avgRangeSteps(sim::IndexKind::Lht, workload::Distribution::Uniform, fixedN, s, queries, repeats))
        .add(avgRangeSteps(sim::IndexKind::PhtSequential, workload::Distribution::Uniform, fixedN, s, queries, repeats))
        .add(avgRangeSteps(sim::IndexKind::PhtParallel, workload::Distribution::Uniform, fixedN, s, queries, repeats));
  }
  if (flags.getBool("csv")) {
    b.printCsv(std::cout);
  } else {
    b.printPretty(std::cout, "Fig. 10b (uniform): parallel steps vs span, n=2^" +
                                 flags.getString("sizepow"));
  }
  std::cout << "\npaper claim: pht_seq ~10x worse; lht fastest (~18% below "
               "pht_par), pht_par degrades on gaussian data\n";
  return 0;
}
