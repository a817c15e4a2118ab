// PHT — the Prefix Hash Tree baseline ([16, 4]; paper Secs. 2, 8.2, 9).
//
// The state-of-the-art over-DHT index the paper compares against. Same
// space-partition trie as LHT, but mapped naively: every node (leaves *and*
// internal markers) sits in the DHT under its own label, and leaves keep
// B+-tree links to their neighbors. Consequences measured in the paper:
//
//  * a split re-keys both children, so both buckets move (theta records)
//    and the neighbor links must be patched: Psi_PHT = theta i + 4 j;
//  * lookup binary-searches all D prefix lengths: ~log D DHT-lookups;
//  * two range algorithms: PHT(sequential) [16] walks the leaf links
//    (near-optimal bandwidth, terrible latency) and PHT(parallel) [4]
//    fans out from the range's LCA through internal markers (good latency,
//    ~2x bandwidth).
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "common/label.h"
#include "dht/dht.h"
#include "index/ordered_index.h"
#include "pht/pht_node.h"

namespace lht::pht {

class PhtIndex final : public index::OrderedIndex {
 public:
  /// Which range-query algorithm rangeQuery() runs.
  enum class RangeMode { Sequential, Parallel };

  struct Options {
    common::u32 thetaSplit = 100;
    common::u32 maxDepth = 20;
    bool countLabelSlot = true;  ///< same capacity accounting as LhtIndex
    bool enableMerge = true;  ///< merge siblings below thetaSplit combined
    RangeMode rangeMode = RangeMode::Sequential;
  };

  PhtIndex(dht::Dht& dht, Options options);

  // OrderedIndex ------------------------------------------------------------
  index::UpdateResult insert(const index::Record& record) override;
  index::UpdateResult erase(double key) override;
  index::FindResult find(double key) override;
  index::RangeResult rangeQuery(double lo, double hi) override;
  index::FindResult minRecord() override;
  index::FindResult maxRecord() override;
  [[nodiscard]] size_t recordCount() const override { return recordCount_; }

  // PHT-specific ------------------------------------------------------------
  struct LookupOutcome {
    std::optional<PhtNode> leaf;
    cost::OpStats stats;
  };

  /// PHT binary-search lookup over prefix lengths 1..D (~log D lookups).
  LookupOutcome lookup(double key);

  /// Explicit-mode range queries (rangeQuery() dispatches on options).
  index::RangeResult rangeSequential(double lo, double hi);
  index::RangeResult rangeParallel(double lo, double hi);

  /// Visits every leaf left-to-right along the B+ links (tests only).
  void forEachLeaf(const std::function<void(const PhtNode&)>& fn);

  [[nodiscard]] const Options& options() const { return opts_; }

 private:
  std::optional<PhtNode> getNode(const std::string& key, cost::OpStats& st);
  [[nodiscard]] bool shouldSplit(const PhtNode& n) const;
  [[nodiscard]] common::Label computeLca(const common::Interval& range) const;
  bool tryMerge(const common::Label& leafLabel);

  /// Parallel descent for rangeParallel; returns the latency of the subtree.
  common::u64 descend(const common::Label& label, const common::Interval& range,
                      std::vector<index::Record>& out, cost::OpStats& st);

  dht::Dht& dht_;
  Options opts_;
  size_t recordCount_ = 0;
};

}  // namespace lht::pht
