#include "dht/decorators.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>

#include "common/types.h"
#include "obs/obs.h"

namespace lht::dht {

const char* dhtOpName(DhtOp op) {
  switch (op) {
    case DhtOp::Put: return "put";
    case DhtOp::Get: return "get";
    case DhtOp::Remove: return "remove";
    case DhtOp::Apply: return "apply";
  }
  return "?";
}

namespace {

// Retry accounting feeds two distinct counter families: "<op>.logical" is
// bumped once per caller-visible operation, "<op>.attempts" once per issue
// of the request. The cost model prices logical operations only — retries
// are resilience overhead, not index cost — so the two must never be mixed.
const char* logicalCounterName(DhtOp op) {
  switch (op) {
    case DhtOp::Put: return "dht.put.logical";
    case DhtOp::Get: return "dht.get.logical";
    case DhtOp::Remove: return "dht.remove.logical";
    case DhtOp::Apply: return "dht.apply.logical";
  }
  return "dht.?.logical";
}

const char* attemptCounterName(DhtOp op) {
  switch (op) {
    case DhtOp::Put: return "dht.put.attempts";
    case DhtOp::Get: return "dht.get.attempts";
    case DhtOp::Remove: return "dht.remove.attempts";
    case DhtOp::Apply: return "dht.apply.attempts";
  }
  return "dht.?.attempts";
}

// A failed batch entry: the reply never arrived, so a read carries no value.
void failEntry(GetOutcome& o, const std::string& error) {
  o.ok = false;
  o.value.reset();
  o.error = error;
}

void failEntry(ApplyOutcome& o, const std::string& error) {
  o.ok = false;
  o.error = error;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultDht — lost requests and lost replies
// ---------------------------------------------------------------------------

FaultDht::FaultDht(Dht& inner, Point point, double probability,
                   common::u64 seed)
    : ForwardingDht(inner),
      point_(point),
      probability_(probability),
      // One RNG stream per fault point, so a point's schedule depends only
      // on (seed, call sequence).
      rng_(seed, point == Point::Request ? 0xF1A6u : 0x105Eu) {
  common::checkInvariant(probability >= 0.0 && probability <= 1.0,
                         "FaultDht: probability must be in [0, 1]");
}

bool FaultDht::shouldFault() {
  bool fault;
  {
    std::lock_guard<std::mutex> lock(rngMutex_);
    fault = rng_.nextDouble() < probability_;
  }
  if (fault) {
    injected_ += 1;
    const char* event =
        point_ == Point::Request ? "fault.lost_request" : "fault.lost_reply";
    obs::count(event);
    obs::instantEvent(event, "fault");
  }
  return fault;
}

std::string FaultDht::message(const char* op) const {
  return std::string("FaultDht: lost ") + op +
         (point_ == Point::Request ? " request" : " reply");
}

void FaultDht::maybeFault(Point point, const char* op) {
  if (point == point_ && shouldFault()) throw DhtError(message(op));
}

void FaultDht::put(const Key& key, Value value) {
  maybeFault(Point::Request, "put");
  inner_.put(key, std::move(value));
  maybeFault(Point::Reply, "put");
}

std::optional<Value> FaultDht::get(const Key& key) {
  maybeFault(Point::Request, "get");
  auto v = inner_.get(key);
  maybeFault(Point::Reply, "get");
  return v;
}

bool FaultDht::remove(const Key& key) {
  maybeFault(Point::Request, "remove");
  const bool existed = inner_.remove(key);
  maybeFault(Point::Reply, "remove");
  return existed;
}

bool FaultDht::apply(const Key& key, const Mutator& fn) {
  maybeFault(Point::Request, "apply");
  const bool existed = inner_.apply(key, fn);
  maybeFault(Point::Reply, "apply");
  return existed;
}

std::optional<Value> FaultDht::getReplica(const Key& key, size_t replicaIndex) {
  maybeFault(Point::Request, "getReplica");
  auto v = inner_.getReplica(key, replicaIndex);
  maybeFault(Point::Reply, "getReplica");
  return v;
}

template <typename Outcome, typename Item, typename Round>
std::vector<Outcome> FaultDht::faultRound(const char* op,
                                          const std::vector<Item>& items,
                                          Round round) {
  if (items.empty()) return {};
  if (point_ == Point::Reply) {
    auto out = round(items);
    for (auto& o : out) {
      if (o.ok && shouldFault()) failEntry(o, message(op));
    }
    return out;
  }
  std::vector<Outcome> out(items.size());
  std::vector<size_t> surviving;
  std::vector<Item> sub;
  for (size_t i = 0; i < items.size(); ++i) {
    if (shouldFault()) {
      out[i].error = message(op);
    } else {
      surviving.push_back(i);
      sub.push_back(items[i]);
    }
  }
  if (!sub.empty()) {
    auto innerOut = round(sub);
    for (size_t j = 0; j < surviving.size(); ++j) {
      out[surviving[j]] = std::move(innerOut[j]);
    }
  }
  return out;
}

std::vector<GetOutcome> FaultDht::multiGet(const std::vector<Key>& keys) {
  return faultRound<GetOutcome>("get", keys, [this](const std::vector<Key>& k) {
    return inner_.multiGet(k);
  });
}

std::vector<ApplyOutcome> FaultDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  return faultRound<ApplyOutcome>(
      "apply", reqs, [this](const std::vector<ApplyRequest>& r) {
        return inner_.multiApply(r);
      });
}

// ---------------------------------------------------------------------------
// LatencyDht
// ---------------------------------------------------------------------------

LatencyDht::LatencyDht(Dht& inner, net::SimClock& clock, Options options)
    : ForwardingDht(inner),
      clock_(clock),
      opts_(options),
      rng_(options.seed, 0x1A7Eu) {}

void LatencyDht::charge() {
  common::u64 ms = opts_.baseMs;
  if (opts_.jitterMs > 0) {
    std::lock_guard<std::mutex> lock(rngMutex_);
    ms += rng_.below(static_cast<common::u32>(
        std::min<common::u64>(opts_.jitterMs, 0xFFFFFFFEull) + 1));
  }
  injectedMs_ += ms;
  obs::observeMs("net.rtt_ms", static_cast<double>(ms));
  clock_.advance(ms);
}

void LatencyDht::put(const Key& key, Value value) {
  charge();
  inner_.put(key, std::move(value));
}

std::optional<Value> LatencyDht::get(const Key& key) {
  charge();
  return inner_.get(key);
}

bool LatencyDht::remove(const Key& key) {
  charge();
  return inner_.remove(key);
}

bool LatencyDht::apply(const Key& key, const Mutator& fn) {
  charge();
  return inner_.apply(key, fn);
}

std::vector<GetOutcome> LatencyDht::multiGet(const std::vector<Key>& keys) {
  if (keys.empty()) return {};
  charge();  // one critical-path RTT for the whole round
  return inner_.multiGet(keys);
}

std::vector<ApplyOutcome> LatencyDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  if (reqs.empty()) return {};
  charge();
  return inner_.multiApply(reqs);
}

std::optional<Value> LatencyDht::getReplica(const Key& key,
                                            size_t replicaIndex) {
  charge();
  return inner_.getReplica(key, replicaIndex);
}

// ---------------------------------------------------------------------------
// TimeoutDht
// ---------------------------------------------------------------------------

TimeoutDht::TimeoutDht(Dht& inner, net::SimClock& clock, common::u64 deadlineMs)
    : ForwardingDht(inner), clock_(clock), deadlineMs_(deadlineMs) {
  common::checkInvariant(deadlineMs >= 1, "TimeoutDht: deadline must be >= 1ms");
}

std::optional<std::string> TimeoutDht::missedDeadline(common::u64 startMs,
                                                      const char* op,
                                                      const char* what) {
  const common::u64 elapsed = clock_.nowMs() - startMs;
  if (elapsed <= deadlineMs_) return std::nullopt;
  timeouts_ += 1;  // one deadline, one miss — a round is not one per entry
  obs::count("dht.timeouts");
  obs::instantEvent("dht.timeout", "dht",
                    {obs::arg("op", op), obs::arg("elapsed_ms", elapsed)});
  return std::string("TimeoutDht: ") + what + " took " +
         std::to_string(elapsed) + "ms > " + std::to_string(deadlineMs_) +
         "ms deadline";
}

template <typename F>
auto TimeoutDht::timed(const char* op, F&& call) -> decltype(call()) {
  const common::u64 t0 = clock_.nowMs();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    if (auto err = missedDeadline(t0, op, op)) throw DhtTimeoutError(*err);
  } else {
    auto r = call();
    if (auto err = missedDeadline(t0, op, op)) throw DhtTimeoutError(*err);
    return r;
  }
}

void TimeoutDht::put(const Key& key, Value value) {
  timed("put", [&] { inner_.put(key, std::move(value)); });
}

std::optional<Value> TimeoutDht::get(const Key& key) {
  return timed("get", [&] { return inner_.get(key); });
}

bool TimeoutDht::remove(const Key& key) {
  return timed("remove", [&] { return inner_.remove(key); });
}

bool TimeoutDht::apply(const Key& key, const Mutator& fn) {
  return timed("apply", [&] { return inner_.apply(key, fn); });
}

std::optional<Value> TimeoutDht::getReplica(const Key& key,
                                            size_t replicaIndex) {
  return timed("getReplica",
               [&] { return inner_.getReplica(key, replicaIndex); });
}

// The deadline applies to the whole round. A missed one fails every entry,
// but the round has executed: only the acknowledgements are late.
template <typename Outcome, typename Round>
std::vector<Outcome> TimeoutDht::timedRound(const char* op, const char* what,
                                            Round round) {
  const common::u64 t0 = clock_.nowMs();
  auto out = round();
  if (auto err = missedDeadline(t0, op, what)) {
    for (auto& o : out) failEntry(o, *err);
  }
  return out;
}

std::vector<GetOutcome> TimeoutDht::multiGet(const std::vector<Key>& keys) {
  if (keys.empty()) return {};
  return timedRound<GetOutcome>("multiGet", "batch get round",
                                [&] { return inner_.multiGet(keys); });
}

std::vector<ApplyOutcome> TimeoutDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  if (reqs.empty()) return {};
  return timedRound<ApplyOutcome>("multiApply", "batch apply round",
                                  [&] { return inner_.multiApply(reqs); });
}

// ---------------------------------------------------------------------------
// RetryingDht
// ---------------------------------------------------------------------------

RetryingDht::RetryingDht(Dht& inner, size_t maxAttempts)
    : RetryingDht(inner, Options{.maxAttempts = maxAttempts}) {}

RetryingDht::RetryingDht(Dht& inner, Options options)
    : ForwardingDht(inner), opts_(options), rng_(options.seed, 0xBACC0FFu) {
  common::checkInvariant(opts_.maxAttempts >= 1, "RetryingDht: need >= 1 attempt");
  common::checkInvariant(opts_.jitter >= 0.0 && opts_.jitter <= 1.0,
                         "RetryingDht: jitter must be in [0, 1]");
  common::checkInvariant(opts_.backoffMultiplier >= 1.0,
                         "RetryingDht: multiplier must be >= 1");
}

common::u64 RetryingDht::backoffDelayMs(size_t attempt) {
  if (opts_.baseBackoffMs == 0) return 0;
  // Exponential growth capped at maxBackoffMs: base * mult^(attempt-1).
  double d = static_cast<double>(opts_.baseBackoffMs) *
             std::pow(opts_.backoffMultiplier, static_cast<double>(attempt - 1));
  d = std::min(d, static_cast<double>(opts_.maxBackoffMs));
  // Deterministic jitter: keep (1-jitter) of the delay, re-draw the rest.
  const double fixed = d * (1.0 - opts_.jitter);
  const double jittered = d * opts_.jitter * rng_.nextDouble();
  return static_cast<common::u64>(fixed + jittered);
}

template <typename F>
auto RetryingDht::withRetries(DhtOp op, F&& f) -> decltype(f()) {
  obs::count(logicalCounterName(op));
  for (size_t attempt = 1;; ++attempt) {
    obs::count(attemptCounterName(op));
    try {
      auto done = [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        histogram_[std::min(attempt, kHistogramBins) - 1] += 1;
      };
      if constexpr (std::is_void_v<decltype(f())>) {
        f();
        done();
        return;
      } else {
        auto r = f();
        done();
        return r;
      }
    } catch (const DhtError& e) {
      if (attempt >= opts_.maxAttempts) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          lastError_ = e.what();
          exhausted_ += 1;
        }
        obs::count("dht.retries_exhausted");
        obs::instantEvent("dht.retries_exhausted", "dht",
                          {obs::arg("op", dhtOpName(op)),
                           obs::arg("attempts", static_cast<common::u64>(attempt))});
        throw DhtRetriesExhausted(
            std::string("RetryingDht: ") + dhtOpName(op) + " failed after " +
                std::to_string(attempt) + " attempts (last: " + e.what() + ")",
            dhtOpName(op), attempt, e.what());
      }
      common::u64 wait;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        lastError_ = e.what();
        retries_ += 1;
        retriesPerOp_[static_cast<size_t>(op)] += 1;
        wait = backoffDelayMs(attempt);
        backoffWaitedMs_ += wait;
      }
      obs::count("dht.retries");
      obs::instantEvent("dht.retry", "dht",
                        {obs::arg("op", dhtOpName(op)),
                         obs::arg("attempt", static_cast<common::u64>(attempt))});
      if (opts_.clock != nullptr && wait > 0) opts_.clock->advance(wait);
    }
  }
}

void RetryingDht::put(const Key& key, Value value) {
  withRetries(DhtOp::Put, [&] { inner_.put(key, value); });
}

std::optional<Value> RetryingDht::get(const Key& key) {
  return withRetries(DhtOp::Get, [&] { return inner_.get(key); });
}

bool RetryingDht::remove(const Key& key) {
  return withRetries(DhtOp::Remove, [&] { return inner_.remove(key); });
}

bool RetryingDht::apply(const Key& key, const Mutator& fn) {
  return withRetries(DhtOp::Apply, [&] { return inner_.apply(key, fn); });
}

// Retries only the entries that failed; an exhausted entry stays failed so
// the rest of the batch still lands.
template <typename Outcome, typename Item, typename Round>
std::vector<Outcome> RetryingDht::retryRound(DhtOp op,
                                             const std::vector<Item>& items,
                                             Round round) {
  std::vector<Outcome> out(items.size());
  if (items.empty()) return out;
  obs::count(logicalCounterName(op), items.size());
  std::vector<size_t> pending(items.size());
  for (size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  for (size_t attempt = 1; !pending.empty(); ++attempt) {
    std::vector<Item> sub;
    sub.reserve(pending.size());
    for (size_t idx : pending) sub.push_back(items[idx]);
    obs::count(attemptCounterName(op), sub.size());
    auto results = round(sub);
    std::vector<size_t> still;
    common::u64 wait = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (size_t j = 0; j < pending.size(); ++j) {
        const size_t idx = pending[j];
        if (results[j].ok) {
          histogram_[std::min(attempt, kHistogramBins) - 1] += 1;
          out[idx] = std::move(results[j]);
          continue;
        }
        lastError_ = results[j].error;
        if (attempt >= opts_.maxAttempts) {
          exhausted_ += 1;
          obs::count("dht.retries_exhausted");
          out[idx].ok = false;
          out[idx].error = std::string("RetryingDht: ") + dhtOpName(op) +
                           " failed after " + std::to_string(attempt) +
                           " attempts (last: " + results[j].error + ")";
          continue;
        }
        retries_ += 1;
        retriesPerOp_[static_cast<size_t>(op)] += 1;
        obs::count("dht.retries");
        still.push_back(idx);
      }
      pending = std::move(still);
      if (!pending.empty()) {
        wait = backoffDelayMs(attempt);
        backoffWaitedMs_ += wait;
      }
    }
    if (opts_.clock != nullptr && wait > 0) opts_.clock->advance(wait);
  }
  return out;
}

std::vector<GetOutcome> RetryingDht::multiGet(const std::vector<Key>& keys) {
  return retryRound<GetOutcome>(
      DhtOp::Get, keys,
      [this](const std::vector<Key>& sub) { return inner_.multiGet(sub); });
}

std::vector<ApplyOutcome> RetryingDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  return retryRound<ApplyOutcome>(
      DhtOp::Apply, reqs,
      [this](const std::vector<ApplyRequest>& sub) {
        return inner_.multiApply(sub);
      });
}

// ---------------------------------------------------------------------------
// CircuitBreakerDht
// ---------------------------------------------------------------------------

CircuitBreakerDht::CircuitBreakerDht(Dht& inner, net::SimClock& clock,
                                     Options options)
    : ForwardingDht(inner), clock_(clock), opts_(options) {
  common::checkInvariant(opts_.failureThreshold >= 1,
                         "CircuitBreakerDht: threshold must be >= 1");
}

void CircuitBreakerDht::onSuccess() {
  std::lock_guard<std::mutex> lock(mutex_);
  consecutiveFailures_ = 0;
  state_ = State::Closed;
}

void CircuitBreakerDht::onFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == State::HalfOpen) {
    // The probe failed: straight back to open, cooldown restarts.
    state_ = State::Open;
    openedAtMs_ = clock_.nowMs();
    obs::instantEvent("breaker.reopened", "breaker");
    return;
  }
  consecutiveFailures_ += 1;
  if (consecutiveFailures_ >= opts_.failureThreshold) {
    state_ = State::Open;
    openedAtMs_ = clock_.nowMs();
    timesOpened_ += 1;
    obs::count("breaker.opened");
    obs::instantEvent("breaker.opened", "breaker",
                      {obs::arg("failures", consecutiveFailures_)});
  }
}

void CircuitBreakerDht::admit(const char* op, size_t rejectedOps) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ != State::Open) return;
  if (clock_.nowMs() - openedAtMs_ < opts_.cooldownMs) {
    fastFailures_ += rejectedOps;
    obs::count("breaker.fast_fail", rejectedOps);
    throw DhtCircuitOpenError(std::string("CircuitBreakerDht: ") + op +
                              " rejected (circuit open)");
  }
  state_ = State::HalfOpen;  // cooldown elapsed: allow a probe through
  obs::instantEvent("breaker.half_open", "breaker");
}

template <typename F>
auto CircuitBreakerDht::guarded(const char* op, F&& f) -> decltype(f()) {
  admit(op, 1);
  try {
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      onSuccess();
      return;
    } else {
      auto r = f();
      onSuccess();
      return r;
    }
  } catch (const DhtError&) {
    onFailure();
    throw;
  }
}

void CircuitBreakerDht::put(const Key& key, Value value) {
  guarded("put", [&] { inner_.put(key, value); });
}

std::optional<Value> CircuitBreakerDht::get(const Key& key) {
  return guarded("get", [&] { return inner_.get(key); });
}

bool CircuitBreakerDht::remove(const Key& key) {
  return guarded("remove", [&] { return inner_.remove(key); });
}

bool CircuitBreakerDht::apply(const Key& key, const Mutator& fn) {
  return guarded("apply", [&] { return inner_.apply(key, fn); });
}

// While open, the whole round fast-fails (every entry rejected, no inner
// call). Otherwise the round is one observation, success iff fully clean.
template <typename Outcome, typename Round>
std::vector<Outcome> CircuitBreakerDht::guardedRound(const char* op,
                                                     size_t entries,
                                                     Round round) {
  if (entries == 0) return {};
  try {
    admit(op, entries);
  } catch (const DhtCircuitOpenError& e) {
    std::vector<Outcome> out(entries);
    for (auto& o : out) o.error = e.what();
    return out;
  }
  auto out = round();
  const bool allOk = std::all_of(out.begin(), out.end(),
                                 [](const Outcome& o) { return o.ok; });
  if (allOk) {
    onSuccess();
  } else {
    onFailure();
  }
  return out;
}

std::vector<GetOutcome> CircuitBreakerDht::multiGet(
    const std::vector<Key>& keys) {
  return guardedRound<GetOutcome>("get", keys.size(),
                                  [&] { return inner_.multiGet(keys); });
}

std::vector<ApplyOutcome> CircuitBreakerDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  return guardedRound<ApplyOutcome>("apply", reqs.size(),
                                    [&] { return inner_.multiApply(reqs); });
}

// ---------------------------------------------------------------------------
// FailoverDht
// ---------------------------------------------------------------------------

FailoverDht::FailoverDht(Dht& inner, net::SimClock& clock, Options options)
    : ForwardingDht(inner), clock_(clock), opts_(options) {
  common::checkInvariant(
      opts_.hedgeQuantile > 0.0 && opts_.hedgeQuantile <= 1.0,
      "FailoverDht: hedge quantile must be in (0, 1]");
}

common::u64 FailoverDht::hedgeThresholdMs() const {
  common::u64 t = opts_.hedgeMinMs;
  if (const auto* reg = obs::metrics()) {
    if (const auto* h = reg->findHistogram("dht.get.latency_ms")) {
      const double q = h->quantile(opts_.hedgeQuantile);
      if (q > static_cast<double>(t)) t = static_cast<common::u64>(q);
    }
  }
  return t;
}

std::optional<Value> FailoverDht::rescueRead(const Key& key, bool hedged) {
  const size_t fanout = std::min(inner_.replicaFanout(), opts_.maxReplicas);
  for (size_t i = 0; i < fanout; ++i) {
    failoverAttempts_ += 1;
    obs::count("dht.failover.attempts");
    // A rescue is another issue of the same logical get: it joins the
    // attempt ledger but never the logical one.
    obs::count(attemptCounterName(DhtOp::Get));
    try {
      auto v = inner_.getReplica(key, i);
      rescues_ += 1;
      obs::count("dht.failover.rescues");
      obs::instantEvent("dht.failover.rescue", "dht",
                        {obs::arg("replica", static_cast<common::u64>(i))});
      if (hedged) {
        hedgeWins_ += 1;
        obs::count("dht.hedge.wins");
      }
      return v;
    } catch (const CrashError&) {
      throw;  // the dying client, not the substrate — never absorbed
    } catch (const DhtError&) {
      // This holder is down or unreachable too: try the next one.
    }
  }
  // Every holder failed (or there are none): surface the PRIMARY failure —
  // it names the owner, which is what the caller's error handling keys on.
  throw;
}

std::optional<Value> FailoverDht::get(const Key& key) {
  // The threshold is sampled before the read so the read's own latency
  // cannot move its trigger.
  const common::u64 threshold = opts_.hedging ? hedgeThresholdMs() : 0;
  const common::u64 t0 = clock_.nowMs();
  try {
    auto v = inner_.get(key);
    const common::u64 elapsed = clock_.nowMs() - t0;
    obs::observeMs("dht.get.latency_ms", static_cast<double>(elapsed));
    if (opts_.hedging && elapsed >= threshold) {
      // The backup read was in flight when the primary answered: it is
      // cancelled, but it fired — the accounting must show the overhead.
      hedgesFired_ += 1;
      hedgesCancelled_ += 1;
      obs::count("dht.hedge.fired");
      obs::count("dht.hedge.cancelled");
    }
    return v;
  } catch (const CrashError&) {
    throw;
  } catch (const DhtError&) {
    const common::u64 elapsed = clock_.nowMs() - t0;
    obs::observeMs("dht.get.latency_ms", static_cast<double>(elapsed));
    // A failed primary is rescued when failover is on, or when the hedge
    // had already fired (its backup read IS the rescue read).
    const bool hedged = opts_.hedging && elapsed >= threshold;
    if (hedged) {
      hedgesFired_ += 1;
      obs::count("dht.hedge.fired");
    }
    if (!opts_.failover && !hedged) throw;
    return rescueRead(key, hedged);
  }
}

std::vector<GetOutcome> FailoverDht::multiGet(const std::vector<Key>& keys) {
  if (keys.empty()) return {};
  auto out = inner_.multiGet(keys);
  if (!opts_.failover) return out;
  const size_t fanout = std::min(inner_.replicaFanout(), opts_.maxReplicas);
  if (fanout == 0) return out;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i].ok) continue;
    for (size_t r = 0; r < fanout; ++r) {
      failoverAttempts_ += 1;
      obs::count("dht.failover.attempts");
      obs::count(attemptCounterName(DhtOp::Get));
      try {
        out[i].value = inner_.getReplica(keys[i], r);
        out[i].ok = true;
        out[i].error.clear();
        rescues_ += 1;
        obs::count("dht.failover.rescues");
        break;
      } catch (const CrashError&) {
        throw;
      } catch (const DhtError&) {
        // Next holder; the entry keeps its original failure if all fail.
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// CrashDht
// ---------------------------------------------------------------------------

CrashDht::CrashDht(Dht& inner) : ForwardingDht(inner) {}

void CrashDht::armAfterWrites(size_t allowedWrites) {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = true;
  crashed_ = false;
  allowedWrites_ = allowedWrites;
  writesCompleted_ = 0;
}

void CrashDht::disarm() {
  std::lock_guard<std::mutex> lock(mutex_);
  armed_ = false;
  crashed_ = false;
  writesCompleted_ = 0;
}

void CrashDht::beforeRead() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_) throw CrashError("CrashDht: client is down");
}

void CrashDht::beforeWrite() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_) throw CrashError("CrashDht: client is down");
  if (armed_ && writesCompleted_ >= allowedWrites_) {
    crashed_ = true;
    obs::count("fault.crash");
    obs::instantEvent("fault.crash", "fault",
                      {obs::arg("writes_completed", writesCompleted_)});
    throw CrashError("CrashDht: client crashed after " +
                     std::to_string(writesCompleted_) + " writes");
  }
}

void CrashDht::noteWriteCompleted() {
  std::lock_guard<std::mutex> lock(mutex_);
  writesCompleted_ += 1;
}

void CrashDht::put(const Key& key, Value value) {
  beforeWrite();
  inner_.put(key, std::move(value));
  noteWriteCompleted();
}

std::optional<Value> CrashDht::get(const Key& key) {
  beforeRead();
  return inner_.get(key);
}

bool CrashDht::remove(const Key& key) {
  beforeWrite();
  const bool existed = inner_.remove(key);
  noteWriteCompleted();
  return existed;
}

bool CrashDht::apply(const Key& key, const Mutator& fn) {
  beforeWrite();
  const bool existed = inner_.apply(key, fn);
  noteWriteCompleted();
  return existed;
}

std::vector<GetOutcome> CrashDht::multiGet(const std::vector<Key>& keys) {
  if (keys.empty()) return {};
  beforeRead();
  return inner_.multiGet(keys);
}

std::vector<ApplyOutcome> CrashDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  if (reqs.empty()) return {};
  size_t allowed = reqs.size();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (crashed_) throw CrashError("CrashDht: client is down");
    if (armed_) {
      const size_t budget = allowedWrites_ > writesCompleted_
                                ? allowedWrites_ - writesCompleted_
                                : 0;
      allowed = std::min(allowed, budget);
    }
    // Reserve the budget before the inner round runs (lock is not held
    // across it); a concurrent batch sees the budget already consumed.
    writesCompleted_ += allowed;
  }
  if (allowed == reqs.size()) {
    return inner_.multiApply(reqs);
  }
  // The crash strikes mid-round: the allowed prefix is already in flight
  // and executes; the client dies before observing any outcome.
  if (allowed > 0) {
    std::vector<ApplyRequest> prefix(reqs.begin(),
                                     reqs.begin() + static_cast<long>(allowed));
    inner_.multiApply(prefix);
  }
  size_t completed = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    crashed_ = true;
    completed = writesCompleted_;
  }
  obs::count("fault.crash");
  obs::instantEvent("fault.crash", "fault",
                    {obs::arg("writes_completed", completed)});
  throw CrashError("CrashDht: client crashed after " +
                   std::to_string(completed) + " writes (mid-batch)");
}

}  // namespace lht::dht
