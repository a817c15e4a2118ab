#include "dht/decorators.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/types.h"
#include "obs/obs.h"

namespace lht::dht {

const char* dhtOpName(DhtOp op) {
  static constexpr const char* kNames[kDhtOpCount] = {"put", "get", "remove",
                                                      "apply", "getReplica"};
  return kNames[static_cast<size_t>(op)];
}

namespace {

// Retry accounting feeds two distinct counter families: "<op>.logical" is
// bumped once per caller-visible operation, "<op>.attempts" once per issue
// of the request. The cost model prices logical operations only — retries
// are resilience overhead, not index cost — so the two must never be mixed.
// Replica reads are never retried, so they have neither.
const char* logicalCounterName(DhtOp op) {
  static constexpr const char* kNames[kDhtOpCount] = {
      "dht.put.logical", "dht.get.logical", "dht.remove.logical",
      "dht.apply.logical", nullptr};
  return kNames[static_cast<size_t>(op)];
}

const char* attemptCounterName(DhtOp op) {
  static constexpr const char* kNames[kDhtOpCount] = {
      "dht.put.attempts", "dht.get.attempts", "dht.remove.attempts",
      "dht.apply.attempts", nullptr};
  return kNames[static_cast<size_t>(op)];
}

// Each retry waits baseBackoffMs * kBackoffMultiplier^(attempt-1), capped.
constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffMs = 10'000;
// The quantile of "dht.get.latency_ms" that arms a hedge ("the 95th
// percentile rule").
constexpr double kHedgeQuantile = 0.95;

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

std::string FaultDht::message(DhtOp op) const {
  return std::string("FaultDht: lost ") + dhtOpName(op) +
         (point_ == Point::Request ? " request" : " reply");
}

void FaultDht::maybeFault(Point point, DhtOp op) {
  if (point == point_ && shouldFault()) throw DhtError(message(op));
}

void FaultDht::onCall(Call& call, const Forward& forward) {
  maybeFault(Point::Request, call.op);
  forward();
  maybeFault(Point::Reply, call.op);
}

void FaultDht::onRound(Round& round, const Issue& issue) {
  if (point_ == Point::Reply) {
    issue(round.all());
    for (size_t i = 0; i < round.size(); ++i) {
      if (round.ok(i) && shouldFault()) round.fail(i, message(round.op));
    }
    return;
  }
  std::vector<size_t> surviving;
  for (size_t i = 0; i < round.size(); ++i) {
    if (shouldFault()) {
      round.fail(i, message(round.op));
    } else {
      surviving.push_back(i);
    }
  }
  if (!surviving.empty()) issue(surviving);
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

void LatencyDht::onCall(Call& /*call*/, const Forward& forward) {
  charge();
  forward();
}

void LatencyDht::onRound(Round& round, const Issue& issue) {
  charge();  // one critical-path RTT for the whole round
  issue(round.all());
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
}

common::u64 RetryingDht::backoffDelayMs(size_t attempt) {
  if (opts_.baseBackoffMs == 0) return 0;
  double d = static_cast<double>(opts_.baseBackoffMs) *
             std::pow(kBackoffMultiplier, static_cast<double>(attempt - 1));
  d = std::min(d, kMaxBackoffMs);
  // Deterministic jitter: keep (1-jitter) of the delay, re-draw the rest.
  const double fixed = d * (1.0 - opts_.jitter);
  const double jittered = d * opts_.jitter * rng_.nextDouble();
  return static_cast<common::u64>(fixed + jittered);
}

void RetryingDht::onCall(Call& call, const Forward& forward) {
  if (call.op == DhtOp::GetReplica) return forward();
  const DhtOp op = call.op;
  obs::count(logicalCounterName(op));
  for (size_t attempt = 1;; ++attempt) {
    obs::count(attemptCounterName(op));
    try {
      forward();
      std::lock_guard<std::mutex> lock(mutex_);
      histogram_[std::min(attempt, kHistogramBins) - 1] += 1;
      return;
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

void RetryingDht::onRound(Round& round, const Issue& issue) {
  const DhtOp op = round.op;
  obs::count(logicalCounterName(op), round.size());
  std::vector<size_t> pending = round.all();
  for (size_t attempt = 1; !pending.empty(); ++attempt) {
    obs::count(attemptCounterName(op), pending.size());
    issue(pending);
    std::vector<size_t> still;
    common::u64 wait = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (size_t idx : pending) {
        if (round.ok(idx)) {
          histogram_[std::min(attempt, kHistogramBins) - 1] += 1;
          continue;
        }
        lastError_ = round.error(idx);
        if (attempt >= opts_.maxAttempts) {
          exhausted_ += 1;
          obs::count("dht.retries_exhausted");
          round.fail(idx, std::string("RetryingDht: ") + dhtOpName(op) +
                              " failed after " + std::to_string(attempt) +
                              " attempts (last: " + round.error(idx) + ")");
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
}

// ---------------------------------------------------------------------------
// FailoverDht
// ---------------------------------------------------------------------------

FailoverDht::FailoverDht(Dht& inner, net::SimClock& clock, Options options)
    : ForwardingDht(inner), clock_(clock), opts_(options) {}

common::u64 FailoverDht::hedgeThresholdMs() const {
  common::u64 t = opts_.hedgeMinMs;
  if (const auto* reg = obs::metrics()) {
    if (const auto* h = reg->findHistogram("dht.get.latency_ms")) {
      const double q = h->quantile(kHedgeQuantile);
      if (q > static_cast<double>(t)) t = static_cast<common::u64>(q);
    }
  }
  return t;
}

std::optional<Value> FailoverDht::rescueRead(const Key& key, bool hedged) {
  const size_t fanout = inner_.replicaFanout();
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

void FailoverDht::onCall(Call& call, const Forward& forward) {
  if (call.op != DhtOp::Get) return forward();
  // The threshold is sampled before the read so the read's own latency
  // cannot move its trigger.
  const common::u64 threshold = opts_.hedging ? hedgeThresholdMs() : 0;
  const common::u64 t0 = clock_.nowMs();
  try {
    forward();
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
    call.read = GetOutcome{true, rescueRead(call.key, hedged), ""};
    settleHeld(call.read, call.held);
  }
}

void FailoverDht::onRound(Round& round, const Issue& issue) {
  issue(round.all());
  if (round.op != DhtOp::Get || !opts_.failover) return;
  const size_t fanout = inner_.replicaFanout();
  for (size_t i = 0; i < round.size(); ++i) {
    if (round.ok(i)) continue;
    for (size_t r = 0; r < fanout; ++r) {
      failoverAttempts_ += 1;
      obs::count("dht.failover.attempts");
      obs::count(attemptCounterName(DhtOp::Get));
      try {
        round.gets[i] = GetOutcome{true, inner_.getReplica(round.keys[i], r), ""};
        settleHeld(round.gets[i], round.held[i]);
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

void CrashDht::onCall(Call& call, const Forward& forward) {
  if (call.op == DhtOp::Get || call.op == DhtOp::GetReplica) {
    beforeRead();
    return forward();
  }
  beforeWrite();
  forward();
  noteWriteCompleted();
}

void CrashDht::onRound(Round& round, const Issue& issue) {
  if (round.op == DhtOp::Get) {
    beforeRead();
    return issue(round.all());
  }
  size_t allowed = round.size();
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
  std::vector<size_t> prefix = round.all();
  if (allowed == prefix.size()) return issue(prefix);
  // The crash strikes mid-round: the allowed prefix is already in flight
  // and executes; the client dies before observing any outcome.
  prefix.resize(allowed);
  if (allowed > 0) issue(prefix);
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
