#include "exec/linearizability.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/interval.h"
#include "lht/lht_index.h"

namespace lht::exec {

namespace {

constexpr common::u64 kNeverReturned = std::numeric_limits<common::u64>::max();

/// One event of the register search, with values interned to indices.
/// State index 0 is "absent"; writes of "absent" model Remove.
struct Event {
  bool isWrite = false;
  bool droppable = false;  ///< failed write: may never have taken effect
  size_t writeState = 0;   ///< isWrite: the state the write installs
  size_t readState = 0;    ///< !isWrite: the state the read observed
  common::u64 invoke = 0;
  common::u64 ret = 0;  ///< kNeverReturned for failed writes
  size_t sourceIndex = 0;  ///< index into the caller's op vector
};

std::string describeOp(const OpRecord& op) {
  std::ostringstream os;
  switch (op.kind) {
    case OpKind::Put:
      os << "Put(" << op.dhtKey << " = "
         << (op.value ? *op.value : std::string("<none>")) << ")";
      break;
    case OpKind::Get:
      os << "Get(" << op.dhtKey << ") -> "
         << (op.value ? *op.value : std::string("<absent>"));
      break;
    case OpKind::Remove:
      os << "Remove(" << op.dhtKey << ")";
      break;
    default:
      os << "op#" << static_cast<int>(op.kind);
  }
  os << " [client " << op.clientId << ", t=" << op.invokeMs << ".."
     << (op.returnMs == kNeverReturned ? std::string("inf")
                                       : std::to_string(op.returnMs))
     << (op.ok ? "" : ", failed") << "]";
  return os.str();
}

/// Depth-first linearization search over <=64 events with memoization on
/// (linearized-mask, register state): the classic Wing & Gong check. The
/// mask alone does not determine the state because droppable writes may
/// or may not have applied, hence the pair.
class RegisterSearch {
 public:
  explicit RegisterSearch(std::vector<Event> events)
      : events_(std::move(events)) {}

  bool run() {
    const common::u64 full =
        events_.size() == 64 ? ~common::u64{0}
                             : ((common::u64{1} << events_.size()) - 1);
    return dfs(0, /*state=*/0, full);
  }

 private:
  bool dfs(common::u64 mask, size_t state, common::u64 full) {
    if (mask == full) return true;
    if (!visited_[mask].insert(state).second) return false;
    // An op is a legal next linearization point iff no other pending op
    // finished before it started.
    common::u64 minRet = kNeverReturned;
    for (size_t i = 0; i < events_.size(); ++i) {
      if ((mask >> i) & 1) continue;
      minRet = std::min(minRet, events_[i].ret);
    }
    for (size_t i = 0; i < events_.size(); ++i) {
      if ((mask >> i) & 1) continue;
      const Event& e = events_[i];
      if (e.invoke > minRet) continue;  // some pending op precedes it
      const common::u64 next = mask | (common::u64{1} << i);
      if (e.isWrite) {
        if (dfs(next, e.writeState, full)) return true;
        // A failed write may also have evaporated: linearize it as a no-op.
        if (e.droppable && dfs(next, state, full)) return true;
      } else {
        if (e.readState == state && dfs(next, state, full)) return true;
      }
    }
    return false;
  }

  std::vector<Event> events_;
  // mask -> register states already explored (and failed) at that mask.
  std::unordered_map<common::u64, std::set<size_t>> visited_;
};

}  // namespace

CheckResult checkLinearizableRegister(std::vector<OpRecord> ops,
                                      size_t maxOps) {
  maxOps = std::min<size_t>(maxOps, 64);
  // Interned register states; index 0 = absent.
  std::vector<std::string> states{"<absent>"};
  const auto intern = [&](const std::optional<std::string>& v) -> size_t {
    if (!v) return 0;
    for (size_t i = 1; i < states.size(); ++i) {
      if (states[i] == *v) return i;
    }
    states.push_back(*v);
    return states.size() - 1;
  };

  std::vector<Event> events;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (!ops.empty() && op.dhtKey != ops.front().dhtKey) {
      return {false, "checkLinearizableRegister: mixed keys ('" +
                         ops.front().dhtKey + "' vs '" + op.dhtKey + "')"};
    }
    Event e;
    e.invoke = op.invokeMs;
    e.ret = op.ok ? op.returnMs : kNeverReturned;
    e.sourceIndex = i;
    switch (op.kind) {
      case OpKind::Put:
        e.isWrite = true;
        e.droppable = !op.ok;
        e.writeState = intern(op.value);
        break;
      case OpKind::Remove:
        e.isWrite = true;
        e.droppable = !op.ok;
        e.writeState = 0;  // removal installs "absent"
        break;
      case OpKind::Get:
        if (!op.ok) continue;  // failed read observed nothing
        e.readState = intern(op.value);
        break;
      default:
        return {false, "checkLinearizableRegister: non-register op " +
                           describeOp(op)};
    }
    events.push_back(e);
  }
  if (events.size() > maxOps) {
    return {false, "checkLinearizableRegister: " +
                       std::to_string(events.size()) + " ops on key '" +
                       (ops.empty() ? std::string() : ops.front().dhtKey) +
                       "' exceeds the checker cap of " +
                       std::to_string(maxOps) +
                       " — partition the workload, don't trust a truncated "
                       "check"};
  }
  if (RegisterSearch(events).run()) return {};
  std::ostringstream os;
  os << "history on key '" << (ops.empty() ? std::string() : ops.front().dhtKey)
     << "' is NOT linearizable; ops:";
  for (const auto& e : events) os << "\n  " << describeOp(ops[e.sourceIndex]);
  return {false, os.str()};
}

CheckResult checkSingleKeyHistories(const std::vector<OpRecord>& merged,
                                    size_t maxOpsPerKey) {
  std::map<std::string, std::vector<OpRecord>> byKey;
  for (const auto& op : merged) byKey[op.dhtKey].push_back(op);
  for (auto& [key, ops] : byKey) {
    CheckResult r = checkLinearizableRegister(std::move(ops), maxOpsPerKey);
    if (!r.ok) return r;
  }
  return {};
}

CheckResult checkGrowOnlySet(const std::vector<OpRecord>& merged) {
  // inserts[key] -> (invoke, return, ok) tuples; finds checked against them.
  struct InsertSpan {
    common::u64 invoke = 0;
    common::u64 ret = 0;
    bool ok = false;
  };
  std::map<double, std::vector<InsertSpan>> inserts;
  std::map<double, common::u64> earliestSeenReturn;
  for (const auto& op : merged) {
    switch (op.kind) {
      case OpKind::Insert:
        inserts[op.key].push_back({op.invokeMs, op.returnMs, op.ok});
        break;
      case OpKind::Find:
        if (op.ok && op.value) {
          auto [it, fresh] = earliestSeenReturn.emplace(op.key, op.returnMs);
          if (!fresh) it->second = std::min(it->second, op.returnMs);
        }
        break;
      case OpKind::Erase:
      case OpKind::Range:
      case OpKind::MinMax:
        return {false,
                "checkGrowOnlySet: history contains erase/range ops — this "
                "checker covers insert/find workloads only"};
      default:
        return {false, "checkGrowOnlySet: unexpected DHT-level op " +
                           describeOp(op)};
    }
  }
  for (const auto& op : merged) {
    if (op.kind != OpKind::Find) continue;
    if (!op.ok) continue;  // the find threw: it observed nothing
    const auto it = inserts.find(op.key);
    if (op.ok && op.value) {
      // A found record needs a justifying insert that started before the
      // find finished (no reads from the future).
      bool justified = false;
      if (it != inserts.end()) {
        for (const auto& ins : it->second) {
          if (ins.invoke < op.returnMs) {
            justified = true;
            break;
          }
        }
      }
      if (!justified) {
        return {false, "checkGrowOnlySet: find observed key " +
                           std::to_string(op.key) +
                           " with no insert invoked before it returned "
                           "(client " +
                           std::to_string(op.clientId) + ", t=" +
                           std::to_string(op.invokeMs) + ")"};
      }
      continue;
    }
    // An absent result must not contradict grow-only visibility: any
    // insert that *completed* before the find began, or any other find
    // that already observed the key before this one began, makes absence
    // a monotonic-read violation.
    if (it != inserts.end()) {
      for (const auto& ins : it->second) {
        if (ins.ok && ins.ret < op.invokeMs) {
          return {false, "checkGrowOnlySet: find missed key " +
                             std::to_string(op.key) +
                             " although an insert completed at t=" +
                             std::to_string(ins.ret) +
                             " before the find began at t=" +
                             std::to_string(op.invokeMs)};
        }
      }
    }
    const auto seen = earliestSeenReturn.find(op.key);
    if (seen != earliestSeenReturn.end() && seen->second < op.invokeMs) {
      return {false, "checkGrowOnlySet: non-monotonic reads on key " +
                         std::to_string(op.key) +
                         " — observed present by t=" +
                         std::to_string(seen->second) +
                         " but absent to a find starting at t=" +
                         std::to_string(op.invokeMs)};
    }
  }
  return {};
}

CheckResult checkRangeAnswers(const std::vector<OpRecord>& merged,
                              const std::set<double>& preloaded) {
  std::set<double> produced = preloaded;
  std::set<double> erased;
  for (const auto& op : merged) {
    if (op.kind == OpKind::Insert) produced.insert(op.key);
    if (op.kind == OpKind::Erase) erased.insert(op.key);
  }
  for (const auto& op : merged) {
    if (op.kind != OpKind::Range || !op.ok) continue;  // a throw saw nothing
    const common::Interval range{op.key, op.hi};
    const auto fail = [&](const std::string& what, double key) {
      std::ostringstream os;
      os.precision(17);
      os << "checkRangeAnswers: range " << range.lo << ".." << range.hi
         << " of client " << op.clientId << " (t=" << op.invokeMs << ") "
         << what << " " << key;
      return CheckResult{false, os.str()};
    };
    for (size_t i = 0; i < op.keys.size(); ++i) {
      const double k = op.keys[i];
      if (!range.contains(k)) return fail("returned out-of-range key", k);
      if (i > 0 && k <= op.keys[i - 1]) {
        return fail("is not sorted and distinct at key", k);
      }
      if (produced.count(k) == 0) {
        return fail("returned a key neither preloaded nor inserted:", k);
      }
    }
    for (auto it = preloaded.lower_bound(range.lo);
         it != preloaded.end() && *it < range.hi; ++it) {
      if (erased.count(*it) != 0) continue;  // not stable
      if (!std::binary_search(op.keys.begin(), op.keys.end(), *it)) {
        return fail("missed the stable key", *it);
      }
    }
  }
  return {};
}

std::set<double> definiteKeys(const std::vector<OpRecord>& merged) {
  std::set<double> out;
  for (const auto& op : merged) {
    if (op.kind == OpKind::Insert && op.ok) out.insert(op.key);
  }
  return out;
}

std::set<double> maybeKeys(const std::vector<OpRecord>& merged) {
  std::set<double> out;
  for (const auto& op : merged) {
    if (op.kind == OpKind::Insert && !op.ok) out.insert(op.key);
  }
  return out;
}

SplitScanResult scanAtomicSplits(core::LhtIndex& index,
                                 const std::set<double>& definite,
                                 const std::set<double>& maybe) {
  SplitScanResult result;
  struct LeafInfo {
    common::Interval iv;
    std::string label;
    bool clean = true;
  };
  std::vector<LeafInfo> leaves;
  std::set<double> scanned;
  index.forEachBucket([&](const core::LeafBucket& b) {
    leaves.push_back({b.label.interval(), b.label.str(), b.clean()});
    for (const auto& r : b.records) scanned.insert(r.key);
    result.records += b.records.size();
  });
  result.leaves = leaves.size();
  for (const auto& leaf : leaves) {
    if (!leaf.clean) {
      result.ok = false;
      result.explanation = "leaf " + leaf.label +
                           " still carries a split/merge intent (torn "
                           "structural change)";
      return result;
    }
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const LeafInfo& a, const LeafInfo& b) {
              return a.iv.lo < b.iv.lo;
            });
  double cursor = 0.0;
  for (const auto& leaf : leaves) {
    if (leaf.iv.lo != cursor) {
      result.ok = false;
      result.explanation =
          "leaves do not tile [0,1): gap/overlap at " + std::to_string(cursor) +
          " (next leaf " + leaf.label + " starts at " +
          std::to_string(leaf.iv.lo) + ")";
      return result;
    }
    cursor = leaf.iv.hi;
  }
  if (cursor != 1.0) {
    result.ok = false;
    result.explanation =
        "leaves stop at " + std::to_string(cursor) + ", not 1.0";
    return result;
  }
  for (double k : definite) {
    if (scanned.count(k) == 0) {
      result.ok = false;
      result.explanation = "definite key " + std::to_string(k) +
                           " (insert acknowledged) missing after the run";
      return result;
    }
  }
  for (double k : scanned) {
    if (definite.count(k) == 0 && maybe.count(k) == 0) {
      result.ok = false;
      result.explanation = "stored key " + std::to_string(k) +
                           " was never inserted by any client";
      return result;
    }
  }
  return result;
}

}  // namespace lht::exec
