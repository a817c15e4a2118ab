#include "sim/experiment.h"

#include "common/types.h"
#include "dst/dst_index.h"
#include "lht/lht_index.h"
#include "obs/obs.h"
#include "pht/pht_index.h"
#include "rst/rst_index.h"

namespace lht::sim {

IndexKind parseIndexKind(const std::string& name) {
  if (name == "lht") return IndexKind::Lht;
  if (name == "pht-seq") return IndexKind::PhtSequential;
  if (name == "pht-par") return IndexKind::PhtParallel;
  if (name == "dst") return IndexKind::Dst;
  if (name == "rst") return IndexKind::Rst;
  throw common::InvariantError("unknown index kind: " + name);
}

std::string indexKindName(IndexKind k) {
  switch (k) {
    case IndexKind::Lht: return "LHT";
    case IndexKind::PhtSequential: return "PHT(sequential)";
    case IndexKind::PhtParallel: return "PHT(parallel)";
    case IndexKind::Dst: return "DST";
    case IndexKind::Rst: return "RST";
  }
  return "?";
}

Experiment::Experiment(ExperimentConfig cfg) : cfg_(cfg) {
  switch (cfg_.kind) {
    case IndexKind::Lht: {
      core::LhtIndex::Options o;
      o.thetaSplit = cfg_.theta;
      o.maxDepth = cfg_.maxDepth;
      o.countLabelSlot = cfg_.countLabelSlot;
      o.useLeafCache = cfg_.lhtUseLeafCache;
      o.cacheDecodedBuckets = cfg_.lhtCacheDecodedBuckets;
      index_ = std::make_unique<core::LhtIndex>(dht_, o);
      break;
    }
    case IndexKind::PhtSequential:
    case IndexKind::PhtParallel: {
      pht::PhtIndex::Options o;
      o.thetaSplit = cfg_.theta;
      o.maxDepth = cfg_.maxDepth;
      o.countLabelSlot = cfg_.countLabelSlot;
      o.rangeMode = cfg_.kind == IndexKind::PhtSequential
                        ? pht::PhtIndex::RangeMode::Sequential
                        : pht::PhtIndex::RangeMode::Parallel;
      index_ = std::make_unique<pht::PhtIndex>(dht_, o);
      break;
    }
    case IndexKind::Dst: {
      dst::DstIndex::Options o;
      o.depth = cfg_.maxDepth;
      index_ = std::make_unique<dst::DstIndex>(dht_, o);
      break;
    }
    case IndexKind::Rst: {
      rst::RstIndex::Options o;
      o.thetaSplit = cfg_.theta;
      o.maxDepth = cfg_.maxDepth;
      o.countLabelSlot = cfg_.countLabelSlot;
      o.peerCount = cfg_.rstPeerCount;
      index_ = std::make_unique<rst::RstIndex>(dht_, o);
      break;
    }
  }
}

void Experiment::build() {
  // Phase spans let a trace of a fig driver attribute every nested DHT/net
  // span to build vs measurement time.
  obs::SpanScope span("sim.build", "sim");
  span.arg("index", indexKindName(cfg_.kind));
  span.arg("n", static_cast<common::u64>(cfg_.dataSize));
  auto dataset = workload::makeDataset(cfg_.dist, cfg_.dataSize, cfg_.seed);
  for (const auto& r : dataset) index_->insert(r);
}

AvgStats Experiment::measureLookups(size_t count) {
  obs::SpanScope span("sim.measureLookups", "sim");
  span.arg("count", static_cast<common::u64>(count));
  common::Pcg32 rng(cfg_.seed ^ 0xF00Dull, /*stream=*/7);
  AvgStats avg;
  for (size_t i = 0; i < count; ++i) {
    auto res = index_->find(rng.nextDouble());
    avg.dhtLookups += static_cast<double>(res.stats.dhtLookups);
    avg.parallelSteps += static_cast<double>(res.stats.parallelSteps);
    avg.records += res.record ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(count);
  avg.dhtLookups /= n;
  avg.parallelSteps /= n;
  avg.records /= n;
  return avg;
}

AvgStats Experiment::measureRanges(double span, size_t count) {
  obs::SpanScope phase("sim.measureRanges", "sim");
  phase.arg("span", span);
  phase.arg("count", static_cast<common::u64>(count));
  common::Pcg32 rng(cfg_.seed ^ 0xBEEFull, /*stream=*/11);
  AvgStats avg;
  for (size_t i = 0; i < count; ++i) {
    auto spec = workload::makeRange(span, rng);
    auto res = index_->rangeQuery(spec.lo, spec.hi);
    avg.dhtLookups += static_cast<double>(res.stats.dhtLookups);
    avg.parallelSteps += static_cast<double>(res.stats.parallelSteps);
    avg.records += static_cast<double>(res.records.size());
  }
  const double n = static_cast<double>(count);
  avg.dhtLookups /= n;
  avg.parallelSteps /= n;
  avg.records /= n;
  return avg;
}

}  // namespace lht::sim
