// Operation histories for concurrency checking (DESIGN.md §10).
//
// Each fleet client (or test thread) records one History: an append-only
// log of invoke/return intervals in *simulated* time plus the observed
// outcome. Histories are single-writer during the run and merged/read
// after the threads join, so no synchronization is needed on the append
// path — exactly the same ownership discipline as the per-thread obs
// registries.
//
// Two op vocabularies share the record type:
//  * raw DHT register ops (Put/Get/Remove on one DHT key) — checked by the
//    single-key linearizability checker;
//  * LHT index ops (Insert/Erase/Find/Range/MinMax) — checked by the
//    grow-only set checker, the range-answer checker and the atomic-split
//    scan.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace lht::exec {

enum class OpKind : common::u8 {
  // DHT register vocabulary
  Put = 0,
  Get = 1,
  Remove = 2,
  // LHT index vocabulary
  Insert = 10,
  Erase = 11,
  Find = 12,
  Range = 13,
  MinMax = 14,  ///< min/max probes: recorded, not checked
};

struct OpRecord {
  OpKind kind = OpKind::Get;
  /// DHT key (register ops) — empty for index ops.
  std::string dhtKey;
  /// Index-op data key (or range lower bound).
  double key = 0.0;
  double hi = 0.0;  ///< range upper bound
  /// Invocation/response stamps from the process-wide monotonic tick
  /// (nextTick below). Per-client SimClocks advance independently, so
  /// simulated instants are NOT comparable across clients; the global
  /// tick captures true execution order, which is what linearizability's
  /// real-time precedence needs. (Per-op simulated latency lives in the
  /// obs histograms, not here.)
  common::u64 invokeMs = 0;
  common::u64 returnMs = 0;
  /// Whether the op returned successfully. A false write is
  /// *indeterminate*: it may or may not have taken effect (lost reply,
  /// crash) — the checkers treat it as "maybe applied", never "not
  /// applied".
  bool ok = false;
  /// Observed value: Get -> stored value (nullopt = absent); Find ->
  /// payload (nullopt = not found); Put -> the written value.
  std::optional<std::string> value;
  /// Range -> the returned record keys, in answer order.
  std::vector<double> keys;
  size_t clientId = 0;
};

/// Per-client append-only op log (single writer; read after join).
class History {
 public:
  explicit History(size_t clientId = 0) : clientId_(clientId) {}

  OpRecord& append(OpRecord r) {
    r.clientId = clientId_;
    ops_.push_back(std::move(r));
    return ops_.back();
  }

  [[nodiscard]] const std::vector<OpRecord>& ops() const { return ops_; }
  [[nodiscard]] size_t clientId() const { return clientId_; }
  [[nodiscard]] bool empty() const { return ops_.empty(); }
  [[nodiscard]] size_t size() const { return ops_.size(); }

 private:
  size_t clientId_;
  std::vector<OpRecord> ops_;
};

/// Concatenates several per-client histories (order irrelevant to the
/// checkers — they order by invoke/return times).
std::vector<OpRecord> mergeHistories(const std::vector<History>& histories);

/// Process-wide monotonic stamp (atomic increment): use for OpRecord
/// invoke/return so real-time precedence is meaningful across threads.
common::u64 nextTick();


}  // namespace lht::exec
