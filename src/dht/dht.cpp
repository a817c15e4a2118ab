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

/// Settles a conditional read locally: a fetched value that still has the
/// held digest is dropped and the outcome reads `unchanged`.
void settleHeld(GetOutcome& o, u64 held) {
  if (held != 0 && o.value.has_value() &&
      common::hash::valueDigest(*o.value) == held) {
    o.value.reset();
    o.unchanged = true;
  }
}

}  // namespace

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

}  // namespace lht::dht
