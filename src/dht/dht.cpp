#include "dht/dht.h"

#include <optional>

#include "common/hash.h"
#include "common/types.h"
#include "net/sim_network.h"
#include "obs/obs.h"

namespace lht::dht {

Dht::RoutedOpScope::RoutedOpScope(Dht& dht, const char* spanName,
                                  const Key& key)
    : dht_(dht), hops0_(dht.stats_.hops), span_(spanName, "dht") {
  if (span_.enabled()) span_.arg("key", key);
  if (obs::metrics() != nullptr) {
    obs::count(std::string(spanName) + ".raw");
  }
}

Dht::RoutedOpScope::~RoutedOpScope() {
  const u64 hops = dht_.stats_.hops - hops0_;
  if (obs::metrics() != nullptr) {
    if (hops != 0) obs::count("dht.hops", hops);
    obs::observe("dht.hops_per_op", static_cast<double>(hops));
  }
  span_.arg("hops", hops);
}

std::optional<Value> Dht::getReplica(const Key& key, size_t replicaIndex) {
  (void)key;
  throw DhtError("Dht: replica " + std::to_string(replicaIndex) +
                 " read unsupported by this substrate");
}

// The one per-entry batch loop. DhtError becomes a failed entry; CrashError
// and everything else propagates. Each entry gets its own span flow-linked
// to the round span, so a trace shows which logical batch a routed op
// belonged to even after wrappers re-send entries. On a simulated network
// the entries run as one parallel round (critical-path RTT).

namespace {

template <typename Outcome, typename Item, typename Call>
std::vector<Outcome> perEntryRound(const char* spanName,
                                   net::SimNetwork* network,
                                   const std::vector<Item>& items,
                                   Call call) {
  std::vector<Outcome> out;
  out.reserve(items.size());
  obs::SpanScope round(spanName, "dht");
  round.arg("entries", static_cast<u64>(items.size()));
  obs::count("dht.round.count");
  obs::count("dht.round.entries", items.size());
  std::optional<net::SimNetwork::ParallelRound> parallel;
  if (network != nullptr) parallel.emplace(*network);
  for (const Item& item : items) {
    if (parallel) parallel->nextEntry();
    obs::SpanScope entry("dht.round.entry", "dht");
    obs::flow(round.id(), entry.id());
    Outcome o;
    try {
      call(item, o);
      o.ok = true;
    } catch (const DhtError& e) {
      o.error = e.what();
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// The entries `which` of `all`, in that order.
template <typename T>
std::vector<T> pick(const std::vector<T>& all, const std::vector<size_t>& which) {
  std::vector<T> out;
  out.reserve(which.size());
  for (size_t i : which) out.push_back(all[i]);
  return out;
}

/// Stores outcome j of an inner round of the entries `which` as entry
/// which[j] of `all`.
template <typename T>
void scatter(std::vector<T>& all, const std::vector<size_t>& which,
             std::vector<T> got) {
  for (size_t j = 0; j < which.size(); ++j) all[which[j]] = std::move(got[j]);
}

}  // namespace

void settleHeld(GetOutcome& o, u64 held) {
  if (held != 0 && o.value.has_value() &&
      common::hash::valueDigest(*o.value) == held) {
    o.value.reset();
    o.unchanged = true;
  }
}

std::vector<GetOutcome> Dht::multiGet(const std::vector<Key>& keys) {
  if (keys.empty()) return {};
  stats_.batchRounds += 1;
  return perEntryRound<GetOutcome>(
      "dht.multiGet", roundNetwork_, keys,
      [this](const Key& key, GetOutcome& o) { o.value = get(key); });
}

bool Dht::applyFrom(const Key& key, const Value& start, const Mutator& fn) {
  (void)start;
  return apply(key, fn);
}

GetOutcome Dht::getIfChanged(const Key& key, u64 held) {
  GetOutcome o;
  o.value = get(key);
  o.ok = true;
  settleHeld(o, held);
  return o;
}

std::vector<GetOutcome> Dht::multiGetIfChanged(const std::vector<Key>& keys,
                                               const std::vector<u64>& held) {
  common::checkInvariant(held.size() == keys.size(),
                         "Dht::multiGetIfChanged: one held digest per key");
  std::vector<GetOutcome> out = multiGet(keys);
  for (size_t i = 0; i < out.size(); ++i) settleHeld(out[i], held[i]);
  return out;
}

std::vector<ApplyOutcome> Dht::multiApply(const std::vector<ApplyRequest>& reqs) {
  if (reqs.empty()) return {};
  stats_.batchRounds += 1;
  return perEntryRound<ApplyOutcome>(
      "dht.multiApply", roundNetwork_, reqs,
      [this](const ApplyRequest& req, ApplyOutcome& o) {
        o.existed = apply(req.key, req.fn);
      });
}

// ---------------------------------------------------------------------------
// ForwardingDht: each routed verb once, through the two hooks
// ---------------------------------------------------------------------------

void ForwardingDht::put(const Key& key, Value value) {
  Call call{.op = DhtOp::Put, .key = key, .value = std::move(value)};
  onCall(call, [&] { inner_.put(call.key, call.value); });
}

std::optional<Value> ForwardingDht::get(const Key& key) {
  Call call{.op = DhtOp::Get, .key = key};
  onCall(call, [&] { call.read.value = inner_.get(call.key); });
  return std::move(call.read.value);
}

bool ForwardingDht::remove(const Key& key) {
  Call call{.op = DhtOp::Remove, .key = key};
  onCall(call, [&] { call.existed = inner_.remove(call.key); });
  return call.existed;
}

bool ForwardingDht::apply(const Key& key, const Mutator& fn) {
  Call call{.op = DhtOp::Apply, .key = key, .fn = fn};
  onCall(call, [&] { call.existed = inner_.apply(call.key, call.fn); });
  return call.existed;
}

bool ForwardingDht::applyFrom(const Key& key, const Value& start,
                              const Mutator& fn) {
  Call call{.op = DhtOp::Apply, .key = key, .fn = fn};
  onCall(call,
         [&] { call.existed = inner_.applyFrom(call.key, start, call.fn); });
  return call.existed;
}

GetOutcome ForwardingDht::getIfChanged(const Key& key, u64 held) {
  Call call{.op = DhtOp::Get, .key = key, .held = held};
  onCall(call, [&] { call.read = inner_.getIfChanged(call.key, call.held); });
  return std::move(call.read);
}

std::optional<Value> ForwardingDht::getReplica(const Key& key,
                                               size_t replicaIndex) {
  Call call{.op = DhtOp::GetReplica, .key = key};
  onCall(call, [&] {
    call.read.value = inner_.getReplica(call.key, replicaIndex);
  });
  return std::move(call.read.value);
}

std::vector<GetOutcome> ForwardingDht::multiGet(const std::vector<Key>& keys) {
  return getRound(keys, std::vector<u64>(keys.size(), 0), false);
}

std::vector<GetOutcome> ForwardingDht::multiGetIfChanged(
    const std::vector<Key>& keys, const std::vector<u64>& held) {
  common::checkInvariant(held.size() == keys.size(),
                         "Dht::multiGetIfChanged: one held digest per key");
  return getRound(keys, held, true);
}

std::vector<GetOutcome> ForwardingDht::getRound(const std::vector<Key>& keys,
                                                std::vector<u64> held,
                                                bool conditional) {
  if (keys.empty()) return {};
  Round round{.op = DhtOp::Get, .keys = keys, .held = std::move(held)};
  round.gets.resize(keys.size());
  onRound(round, [&](const std::vector<size_t>& which) {
    std::vector<Key> sub = pick(round.keys, which);
    scatter(round.gets, which,
            conditional
                ? inner_.multiGetIfChanged(sub, pick(round.held, which))
                : inner_.multiGet(sub));
  });
  return std::move(round.gets);
}

std::vector<ApplyOutcome> ForwardingDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  if (reqs.empty()) return {};
  Round round{.op = DhtOp::Apply};
  for (const ApplyRequest& req : reqs) {
    round.keys.push_back(req.key);
    round.fns.push_back(req.fn);
  }
  round.applies.resize(reqs.size());
  onRound(round, [&](const std::vector<size_t>& which) {
    std::vector<ApplyRequest> sub;
    sub.reserve(which.size());
    for (size_t i : which) sub.push_back({round.keys[i], round.fns[i]});
    scatter(round.applies, which, inner_.multiApply(sub));
  });
  return std::move(round.applies);
}

std::vector<size_t> ForwardingDht::Round::all() const {
  std::vector<size_t> every(size());
  for (size_t i = 0; i < every.size(); ++i) every[i] = i;
  return every;
}

bool ForwardingDht::Round::ok(size_t i) const {
  return op == DhtOp::Apply ? applies[i].ok : gets[i].ok;
}

const std::string& ForwardingDht::Round::error(size_t i) const {
  return op == DhtOp::Apply ? applies[i].error : gets[i].error;
}

void ForwardingDht::Round::fail(size_t i, std::string error) {
  if (op == DhtOp::Apply) {
    applies[i].ok = false;
    applies[i].error = std::move(error);
    return;
  }
  gets[i] = GetOutcome{false, std::nullopt, std::move(error)};
}

}  // namespace lht::dht
