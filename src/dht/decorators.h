// DHT decorators: failure injection and client-side recovery.
//
// Real DHT requests get lost; over-DHT indexes assume the substrate
// resolves that (the paper leaves robustness "to and well done by [the]
// underlying DHT"). These decorators make the assumption testable. Each
// is a ForwardingDht (dht/dht.h) that overrides only the calls it
// changes. FaultDht separates the two fundamentally different loss modes
// by where the fault strikes:
//
//  * FaultDht at Point::Request injects lost *requests*: with probability
//    p an operation throws DhtError *before* executing. Retries are always
//    safe — no mutation happened.
//  * FaultDht at Point::Reply injects lost *replies*: the operation
//    executes at the storing peer, then the acknowledgement is dropped and
//    the caller sees DhtError. A naive retry re-executes the mutation —
//    this is the fault that makes idempotence (bucket op tokens,
//    lht/bucket.h) necessary rather than theoretical.
//  * LatencyDht charges each routed operation simulated time on a shared
//    SimClock (base + deterministic jitter).
//  * TimeoutDht enforces a deadline against that clock: an operation
//    whose inner call consumed more than the deadline throws
//    DhtTimeoutError *after* executing — a timeout on a write that in
//    fact landed is exactly a lost reply.
//  * RetryingDht retries failed operations with exponential backoff and
//    deterministic jitter, advancing the clock while "waiting", and keeps
//    full diagnostics (per-op retry counts, attempt histogram, last
//    error) instead of a bare rethrow.
//  * CircuitBreakerDht fails fast after a run of consecutive failures and
//    re-probes after a cooldown (half-open), protecting a client from
//    hammering a dead substrate.
//  * FailoverDht rescues failed reads from the key's replica holders
//    (Dht::getReplica) and optionally hedges tail-latency reads against a
//    replica — first answer wins. This is what keeps queries answerable
//    while the substrate is mid-churn.
//  * CrashDht kills the *client* between DHT writes: after a configured
//    number of writes complete, every further operation throws
//    CrashError (not a DhtError — no retry layer may absorb it). The
//    fault campaign uses it to abandon multi-step index protocols at
//    every intermediate step.
//
// Stack them: RetryingDht over CircuitBreakerDht over TimeoutDht over
// LatencyDht over a reply-point FaultDht over a real substrate.
//
// Thread safety (DESIGN.md §10): every decorator is re-entrant, so one
// stack may be shared by many threads — inner calls run outside any
// decorator lock; only the small mutable islands (rng draws, diagnostics,
// breaker/crash state machines) are mutex-guarded, and event counters are
// relaxed atomics (SharedDecoratorStack.* runs a shared stack under
// ThreadSanitizer). Diagnostic accessors that return references
// (lastError, attemptHistogram) are exact only once concurrent callers
// have quiesced (e.g. after a fleet join).
#pragma once

#include <array>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/relaxed_counter.h"
#include "dht/dht.h"
#include "net/sim_clock.h"

namespace lht::dht {

// The failure taxonomy (DhtError, DhtTimeoutError, DhtRetriesExhausted,
// DhtCircuitOpenError, CrashError) lives in dht/dht.h next to the batch
// outcome types that carry the same errors per entry.

/// Operation categories for per-op diagnostics.
enum class DhtOp : size_t { Put = 0, Get = 1, Remove = 2, Apply = 3 };
inline constexpr size_t kDhtOpCount = 4;
const char* dhtOpName(DhtOp op);

class FaultDht final : public ForwardingDht {
 public:
  /// Where an injected fault strikes a routed call.
  enum class Point {
    /// Lost request: the call throws DhtError *before* it executes. A
    /// retry is always safe, no mutation happened.
    Request,
    /// Lost reply: the call executes at the storing peer, then its
    /// acknowledgement is dropped and the caller sees DhtError. A naive
    /// retry re-executes the mutation.
    Reply,
  };

  /// Faults each routed call (put, get, remove, apply, every batch entry,
  /// getReplica) with probability `probability` at `point`, deterministic
  /// given `seed`. storeDirect never fails (bootstrap).
  FaultDht(Dht& inner, Point point, double probability, common::u64 seed = 1);

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;

  /// Per-entry faults. Request: each entry independently fails before
  /// execution and the survivors travel to the inner DHT as one round.
  /// Reply: the whole round executes, then each answered entry's reply is
  /// independently dropped (ok=false, value discarded).
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;

  /// Replica reads are routed calls too: they fault like any other.
  std::optional<Value> getReplica(const Key& key, size_t replicaIndex) override;

  /// Faults injected so far (lost requests, or lost replies each of which
  /// is a successfully executed call).
  [[nodiscard]] size_t injected() const { return injected_; }

 private:
  bool shouldFault();
  [[nodiscard]] std::string message(const char* op) const;
  /// Throws the fault for `op` when it strikes at `point`.
  void maybeFault(Point point, const char* op);
  template <typename Outcome, typename Item, typename Round>
  std::vector<Outcome> faultRound(const char* op,
                                  const std::vector<Item>& items, Round round);

  Point point_;
  double probability_;
  common::Pcg32 rng_;
  mutable std::mutex rngMutex_;
  common::RelaxedCounter injected_;
};

class LatencyDht final : public ForwardingDht {
 public:
  struct Options {
    common::u64 baseMs = 10;    ///< charged to every routed operation
    common::u64 jitterMs = 0;   ///< plus uniform [0, jitterMs], deterministic
    common::u64 seed = 1;
  };

  /// Advances `clock` by a sampled latency for each routed operation
  /// (before it executes). storeDirect costs nothing.
  LatencyDht(Dht& inner, net::SimClock& clock, Options options);

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;

  /// A batch round is dispatched concurrently: it is charged ONE sampled
  /// latency (the critical-path RTT), not one per entry.
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;

  /// Each replica read is its own round trip and is charged like one.
  std::optional<Value> getReplica(const Key& key, size_t replicaIndex) override;

  /// Total simulated milliseconds injected so far.
  [[nodiscard]] common::u64 injectedLatencyMs() const { return injectedMs_; }

 private:
  void charge();

  net::SimClock& clock_;
  Options opts_;
  common::Pcg32 rng_;
  mutable std::mutex rngMutex_;
  common::RelaxedCounter injectedMs_;
};

class TimeoutDht final : public ForwardingDht {
 public:
  /// Throws DhtTimeoutError when an inner operation consumed more than
  /// `deadlineMs` of simulated time. The throw happens *after* the inner
  /// call returns: a timed-out write has still executed (lost reply).
  TimeoutDht(Dht& inner, net::SimClock& clock, common::u64 deadlineMs);

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;

  /// The deadline applies to the whole round (it is one critical-path
  /// RTT). A missed deadline fails every entry in the round — but the
  /// round has executed (lost-reply semantics), and counts as ONE timeout.
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;

  /// Each replica read gets its own deadline (it is an independent
  /// request, not part of the primary's budget).
  std::optional<Value> getReplica(const Key& key, size_t replicaIndex) override;

  /// Deadline misses so far.
  [[nodiscard]] size_t timeouts() const { return timeouts_; }

 private:
  /// Runs `call` and throws DhtTimeoutError when it overran the deadline.
  template <typename F>
  auto timed(const char* op, F&& call) -> decltype(call());
  template <typename Outcome, typename Round>
  std::vector<Outcome> timedRound(const char* op, const char* what,
                                  Round round);
  /// Counts and describes a missed deadline of a call that started at
  /// `startMs`; nullopt when the call made it.
  std::optional<std::string> missedDeadline(common::u64 startMs,
                                            const char* op, const char* what);

  net::SimClock& clock_;
  common::u64 deadlineMs_;
  common::RelaxedCounter timeouts_;
};

class RetryingDht final : public ForwardingDht {
 public:
  struct Options {
    size_t maxAttempts = 8;
    /// First retry delay; 0 disables backoff entirely (immediate retry).
    common::u64 baseBackoffMs = 0;
    double backoffMultiplier = 2.0;
    common::u64 maxBackoffMs = 10'000;
    /// Fraction of each delay replaced by deterministic jitter: the delay
    /// becomes d*(1-jitter) + uniform[0, d*jitter]. Avoids retry
    /// synchronization across clients while staying reproducible.
    double jitter = 0.5;
    common::u64 seed = 1;
    /// Backoff waits advance this clock when set (nullptr: waits are
    /// tracked in backoffWaitedMs() but no clock moves).
    net::SimClock* clock = nullptr;
  };

  /// Legacy shape: immediate retries, no backoff.
  RetryingDht(Dht& inner, size_t maxAttempts = 8);
  RetryingDht(Dht& inner, Options options);

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;

  /// Retries only the entries that failed: each attempt re-issues the
  /// still-failing subset as one inner round, with backoff between
  /// rounds. Unlike the single-op path this never throws
  /// DhtRetriesExhausted — an exhausted entry stays ok=false so the rest
  /// of the batch still lands.
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;

  // Replica reads forward untouched: FailoverDht owns the iteration over
  // holders, so wrapping each rescue in this decorator's retry loop would
  // multiply the recovery machinery against itself.

  // Diagnostics --------------------------------------------------------------
  /// Retries performed so far (failures absorbed), total and per op type.
  [[nodiscard]] size_t retries() const { return retries_; }
  [[nodiscard]] size_t retriesFor(DhtOp op) const {
    return retriesPerOp_[static_cast<size_t>(op)];
  }
  /// attemptHistogram()[k] = operations that succeeded on attempt k+1.
  /// Attempts beyond the last bin are clamped into it.
  static constexpr size_t kHistogramBins = 16;
  [[nodiscard]] const std::array<common::u64, kHistogramBins>& attemptHistogram()
      const {
    return histogram_;
  }
  /// Operations that ran out of attempts, and the last error seen (from
  /// any operation, most recent first).
  [[nodiscard]] size_t exhausted() const { return exhausted_; }
  [[nodiscard]] const std::string& lastError() const { return lastError_; }
  /// Total simulated milliseconds spent in backoff waits.
  [[nodiscard]] common::u64 backoffWaitedMs() const { return backoffWaitedMs_; }

 private:
  template <typename F>
  auto withRetries(DhtOp op, F&& f) -> decltype(f());
  template <typename Outcome, typename Item, typename Round>
  std::vector<Outcome> retryRound(DhtOp op, const std::vector<Item>& items,
                                  Round round);
  /// Caller must hold mutex_ (rng draw).
  common::u64 backoffDelayMs(size_t attempt);

  Options opts_;
  common::Pcg32 rng_;
  /// Guards rng_ and all diagnostics below. Inner DHT calls never run
  /// under it, so the decorator is re-entrant.
  mutable std::mutex mutex_;
  size_t retries_ = 0;
  std::array<size_t, kDhtOpCount> retriesPerOp_{};
  std::array<common::u64, kHistogramBins> histogram_{};
  size_t exhausted_ = 0;
  std::string lastError_;
  common::u64 backoffWaitedMs_ = 0;
};

class CircuitBreakerDht final : public ForwardingDht {
 public:
  struct Options {
    /// Consecutive failures that trip the breaker open.
    size_t failureThreshold = 5;
    /// Simulated time the breaker stays open before a half-open probe.
    common::u64 cooldownMs = 1'000;
  };

  enum class State { Closed, Open, HalfOpen };

  CircuitBreakerDht(Dht& inner, net::SimClock& clock, Options options);

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;

  /// While open, the whole round fast-fails (every entry rejected, no
  /// inner call). Otherwise the round counts as a single observation:
  /// success iff every entry succeeded.
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;

  // Replica rescues bypass the breaker: a rescue read is what *prevents*
  // a primary failure from becoming a client-visible one, so it must run
  // exactly when the substrate looks unhealthy. The primary op's outcome
  // still feeds the state machine (FailoverDht sits below this layer).

  [[nodiscard]] State state() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
  }
  /// Times the breaker tripped open.
  [[nodiscard]] size_t timesOpened() const { return timesOpened_; }
  /// Operations rejected without touching the inner DHT.
  [[nodiscard]] size_t fastFailures() const { return fastFailures_; }

 private:
  template <typename F>
  auto guarded(const char* op, F&& f) -> decltype(f());
  template <typename Outcome, typename Round>
  std::vector<Outcome> guardedRound(const char* op, size_t entries,
                                    Round round);
  void onSuccess();
  void onFailure();
  /// Admission decision under mutex_: throws when open and cooling down,
  /// moves Open -> HalfOpen when the cooldown elapsed. Under concurrency
  /// several probes may pass the half-open gate together; the state
  /// machine stays consistent (first completion decides), it is only the
  /// single-probe property that is relaxed.
  void admit(const char* op, size_t rejectedOps);

  net::SimClock& clock_;
  Options opts_;
  /// Guards the state machine; never held across inner DHT calls.
  mutable std::mutex mutex_;
  State state_ = State::Closed;
  size_t consecutiveFailures_ = 0;
  common::u64 openedAtMs_ = 0;
  common::RelaxedCounter timesOpened_;
  common::RelaxedCounter fastFailures_;
};

/// Availability layer for reads: when the primary lookup fails (its owner
/// crashed, the request or reply was lost, the deadline passed), the read
/// is retried against the key's replica holders via Dht::getReplica — the
/// first holder that answers wins and the caller never sees the failure.
/// Optionally hedges slow reads: once the primary has consumed more
/// simulated time than a configured quantile of the observed
/// "dht.get.latency_ms" histogram, a backup read is (conceptually) in
/// flight at a replica; if the primary still answers first the hedge is
/// cancelled, if the primary fails the hedge's answer is the rescue.
///
/// Accounting discipline: a rescued read stays ONE logical operation.
/// Rescue reads bump dht.get.attempts and dht.failover.attempts (plus the
/// substrate's own dht.get_replica.raw); successes bump
/// dht.failover.rescues; hedging bumps dht.hedge.{fired,wins,cancelled}.
/// The cost model prices logical ops only, so failover overhead is visible
/// but never inflates the paper's DHT-lookup metric.
///
/// Stack position: below RetryingDht and CircuitBreakerDht (a rescued read
/// is a success — it must not trip the breaker or burn retry attempts) and
/// above TimeoutDht/LatencyDht (each rescue is charged and deadlined like
/// the independent request it models).
class FailoverDht final : public ForwardingDht {
 public:
  struct Options {
    /// Rescue failed reads from replicas. Off = pure pass-through (the
    /// baseline configuration storm campaigns compare against).
    bool failover = true;
    /// Hedge slow reads once their latency crosses the quantile below.
    bool hedging = false;
    /// Quantile of the ambient "dht.get.latency_ms" histogram that arms
    /// the hedge (tail-latency trigger, "the 95th percentile rule").
    double hedgeQuantile = 0.95;
    /// Floor under the sampled threshold: with an empty histogram (cold
    /// start) the hedge arms at this latency.
    common::u64 hedgeMinMs = 1;
    /// Cap on rescue fan-out (default: every available replica).
    size_t maxReplicas = static_cast<size_t>(-1);
  };

  FailoverDht(Dht& inner, net::SimClock& clock, Options options);

  std::optional<Value> get(const Key& key) override;

  /// Batch reads: the round executes once, then each failed entry is
  /// individually rescued from replicas (batches are not hedged — the
  /// round already costs one critical-path RTT).
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;

  // Diagnostics --------------------------------------------------------------
  /// Replica reads issued while rescuing failed primaries.
  [[nodiscard]] size_t failoverAttempts() const { return failoverAttempts_; }
  /// Failed primary reads a replica answered (caller saw success).
  [[nodiscard]] size_t rescues() const { return rescues_; }
  /// Hedges armed (primary latency crossed the threshold).
  [[nodiscard]] size_t hedgesFired() const { return hedgesFired_; }
  /// Hedges whose replica answer was the one returned.
  [[nodiscard]] size_t hedgeWins() const { return hedgeWins_; }
  /// Hedges cancelled because the primary answered after all.
  [[nodiscard]] size_t hedgesCancelled() const { return hedgesCancelled_; }
  /// The latency threshold a hedge currently arms at (quantile sample
  /// with the hedgeMinMs floor; exposed for tests and dashboards).
  [[nodiscard]] common::u64 hedgeThresholdMs() const;

 private:
  /// Rescue loop over the replica holders; returns the first answer.
  /// Rethrows the in-flight primary failure when every holder fails.
  /// `hedged` routes the success accounting to hedge wins.
  std::optional<Value> rescueRead(const Key& key, bool hedged);

  net::SimClock& clock_;
  Options opts_;
  common::RelaxedCounter failoverAttempts_;
  common::RelaxedCounter rescues_;
  common::RelaxedCounter hedgesFired_;
  common::RelaxedCounter hedgeWins_;
  common::RelaxedCounter hedgesCancelled_;
};

class CrashDht final : public ForwardingDht {
 public:
  explicit CrashDht(Dht& inner);

  /// Arms the crash: exactly `allowedWrites` more writes (put/apply/
  /// remove) are allowed to complete; the next write after that — and
  /// every operation once crashed — throws CrashError before executing.
  /// `allowedWrites = 0` kills the very next write.
  void armAfterWrites(size_t allowedWrites);
  void disarm();

  [[nodiscard]] bool crashed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return crashed_;
  }
  /// Writes completed since the last arm/disarm (counts while disarmed
  /// too, so callers can measure a protocol's write footprint).
  [[nodiscard]] size_t writesCompleted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return writesCompleted_;
  }
  void resetWriteCount() {
    std::lock_guard<std::mutex> lock(mutex_);
    writesCompleted_ = 0;
  }

  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;

  /// A crash can strike mid-round: if the armed write budget runs out
  /// inside a multiApply, only the allowed prefix of entries is forwarded
  /// (as one inner round) before CrashError — modelling a client that
  /// dies while its batch is in flight.
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;

  /// A dead client cannot issue rescue reads either.
  std::optional<Value> getReplica(const Key& key, size_t replicaIndex) override {
    beforeRead();
    return inner_.getReplica(key, replicaIndex);
  }

 private:
  void beforeWrite();
  void beforeRead();
  void noteWriteCompleted();

  /// Guards the crash state machine; never held across inner DHT calls,
  /// so the budget counts exactly the writes that completed (a write in
  /// flight when the budget empties is not retroactively crashed).
  mutable std::mutex mutex_;
  bool armed_ = false;
  bool crashed_ = false;
  size_t allowedWrites_ = 0;
  size_t writesCompleted_ = 0;
};

}  // namespace lht::dht
