// Experiment harness shared by the bench binaries.
//
// One Experiment = one index instance (LHT, PHT-sequential, PHT-parallel,
// or DST) over a fresh substrate, loaded with one generated dataset. The
// bench binaries sweep parameters, average across seeds, and print each
// paper figure as a table. All randomness is seeded: identical flags give
// identical output.
#pragma once

#include <memory>
#include <string>

#include "cost/meter.h"
#include "dht/local_dht.h"
#include "index/ordered_index.h"
#include "workload/generators.h"

namespace lht::sim {

enum class IndexKind { Lht, PhtSequential, PhtParallel, Dst, Rst };

IndexKind parseIndexKind(const std::string& name);
std::string indexKindName(IndexKind k);

struct ExperimentConfig {
  IndexKind kind = IndexKind::Lht;
  workload::Distribution dist = workload::Distribution::Uniform;
  size_t dataSize = 1 << 12;
  common::u32 theta = 100;
  common::u32 maxDepth = 20;
  common::u64 seed = 1;
  bool countLabelSlot = true;
  size_t rstPeerCount = 32;  ///< broadcast fan-out for IndexKind::Rst

  /// LHT client-side performance features (IndexKind::Lht only; the other
  /// indexes ignore them). Default-off, matching LhtIndex::Options.
  bool lhtUseLeafCache = false;
  bool lhtCacheDecodedBuckets = false;
};

/// Mean per-operation statistics over a measured workload.
struct AvgStats {
  double dhtLookups = 0.0;
  double parallelSteps = 0.0;
  double records = 0.0;  ///< records returned (range) / found (lookup)
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  /// Inserts the configured dataset (index meters record the cost).
  void build();

  [[nodiscard]] index::OrderedIndex& idx() { return *index_; }
  [[nodiscard]] const cost::MeterSet& meters() const { return index_->meters(); }
  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }

  /// Runs `count` exact-match finds on uniformly random keys (paper Sec.
  /// 9.3) and averages the per-operation stats.
  AvgStats measureLookups(size_t count);

  /// Runs `count` range queries of fixed `span` with random lower bounds
  /// (paper Sec. 9.4) and averages the per-operation stats.
  AvgStats measureRanges(double span, size_t count);

 private:
  ExperimentConfig cfg_;
  dht::LocalDht dht_;
  std::unique_ptr<index::OrderedIndex> index_;
};

}  // namespace lht::sim
