// DHT decorators: failure injection and client-side recovery.
//
// Real DHT requests get lost; over-DHT indexes assume the substrate
// resolves that (the paper leaves robustness "to and well done by [the]
// underlying DHT"). These decorators make the assumption testable. Each
// is a ForwardingDht (dht/dht.h) that overrides its two hooks: one sees
// every single-key call, the other every round. A conditional read passes
// them as a get and a start as an apply, and the inner call still carries
// the caller's digest or start. FaultDht separates the two fundamentally
// different loss modes by where the fault strikes:
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
//  * RetryingDht retries failed operations with exponential backoff and
//    deterministic jitter, advancing the clock while "waiting", and keeps
//    full diagnostics (per-op retry counts, attempt histogram, last
//    error) instead of a bare rethrow.
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
// Stack them: RetryingDht over LatencyDht over a reply-point FaultDht over
// a real substrate.
//
// Thread safety (DESIGN.md §10): every decorator is re-entrant, so one
// stack may be shared by many threads — inner calls run outside any
// decorator lock; only the small mutable islands (rng draws, diagnostics,
// the crash state machine) are mutex-guarded, and event counters are
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
// CrashError) lives in dht/dht.h next to the batch outcome types that
// carry the same errors per entry.

inline constexpr size_t kDhtOpCount = 5;
/// "put", "get", "remove", "apply" or "getReplica".
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

  /// Faults each routed call (every single-key call, getReplica included,
  /// and every batch entry) with probability `probability` at `point`,
  /// deterministic given `seed`. storeDirect never fails (bootstrap).
  FaultDht(Dht& inner, Point point, double probability, common::u64 seed = 1);

  /// Faults injected so far (lost requests, or lost replies each of which
  /// is a successfully executed call).
  [[nodiscard]] size_t injected() const { return injected_; }

 private:
  void onCall(Call& call, const Forward& forward) override;
  /// Per-entry faults. Request: each entry independently fails before
  /// execution and the survivors travel to the inner DHT as one round.
  /// Reply: the whole round executes, then each answered entry's reply is
  /// independently dropped (failed, value discarded).
  void onRound(Round& round, const Issue& issue) override;

  bool shouldFault();
  [[nodiscard]] std::string message(DhtOp op) const;
  /// Throws the fault for `op` when it strikes at `point`.
  void maybeFault(Point point, DhtOp op);

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
  /// (before it executes), a replica read included. A batch round is
  /// dispatched concurrently: it is charged ONE sampled latency (the
  /// critical-path RTT), not one per entry. storeDirect costs nothing.
  LatencyDht(Dht& inner, net::SimClock& clock, Options options);

  /// Total simulated milliseconds injected so far.
  [[nodiscard]] common::u64 injectedLatencyMs() const { return injectedMs_; }

 private:
  void onCall(Call& call, const Forward& forward) override;
  void onRound(Round& round, const Issue& issue) override;
  void charge();

  net::SimClock& clock_;
  Options opts_;
  common::Pcg32 rng_;
  mutable std::mutex rngMutex_;
  common::RelaxedCounter injectedMs_;
};

class RetryingDht final : public ForwardingDht {
 public:
  /// Each retry waits baseBackoffMs * 2^(attempt-1), capped at 10 s.
  struct Options {
    size_t maxAttempts = 8;
    /// First retry delay; 0 disables backoff entirely (immediate retry).
    common::u64 baseBackoffMs = 0;
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
  /// Retries a failed call, and throws DhtRetriesExhausted when it runs out
  /// of attempts. Replica reads forward untouched: FailoverDht owns the
  /// iteration over holders, so wrapping each rescue in this decorator's
  /// retry loop would multiply the recovery machinery against itself.
  void onCall(Call& call, const Forward& forward) override;
  /// Retries only the entries that failed: each attempt re-issues the
  /// still-failing subset as one inner round, with backoff between
  /// rounds. Unlike the single-op path this never throws
  /// DhtRetriesExhausted — an exhausted entry stays failed so the rest of
  /// the batch still lands.
  void onRound(Round& round, const Issue& issue) override;
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

/// Availability layer for reads: when the primary lookup fails (its owner
/// crashed, the request or reply was lost, the deadline passed), the read
/// is retried against every one of the key's replica holders via
/// Dht::getReplica — the first holder that answers wins and the caller
/// never sees the failure. A rescued conditional read is settled against
/// the caller's digest, so a rescued value that matches it answers
/// `unchanged`. Optionally hedges
/// slow reads: once the primary has consumed more simulated time than the
/// 95th percentile of the observed "dht.get.latency_ms" histogram, a
/// backup read is (conceptually) in flight at a replica; if the primary
/// still answers first the hedge is cancelled, if the primary fails the
/// hedge's answer is the rescue.
///
/// Accounting discipline: a rescued read stays ONE logical operation.
/// Rescue reads bump dht.get.attempts and dht.failover.attempts (plus the
/// substrate's own dht.get_replica.raw); successes bump
/// dht.failover.rescues; hedging bumps dht.hedge.{fired,wins,cancelled}.
/// The cost model prices logical ops only, so failover overhead is visible
/// but never inflates the paper's DHT-lookup metric.
///
/// Stack position: below RetryingDht (a rescued read is a success — it
/// must not burn retry attempts) and above LatencyDht (each rescue is
/// charged like the independent request it models).
class FailoverDht final : public ForwardingDht {
 public:
  struct Options {
    /// Rescue failed reads from replicas. Off = pure pass-through (the
    /// baseline configuration storm campaigns compare against).
    bool failover = true;
    /// Hedge slow reads once their latency crosses the 95th percentile.
    bool hedging = false;
    /// Floor under the sampled threshold: with an empty histogram (cold
    /// start) the hedge arms at this latency.
    common::u64 hedgeMinMs = 1;
  };

  FailoverDht(Dht& inner, net::SimClock& clock, Options options);

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
  /// Reads, plain and conditional: rescued and hedged.
  void onCall(Call& call, const Forward& forward) override;
  /// Batch reads: the round executes once, then each failed entry is
  /// individually rescued from replicas (batches are not hedged — the
  /// round already costs one critical-path RTT).
  void onRound(Round& round, const Issue& issue) override;
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
  /// every operation once crashed, a rescue read included — throws
  /// CrashError before executing. `allowedWrites = 0` kills the very next
  /// write.
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

 private:
  void onCall(Call& call, const Forward& forward) override;
  /// A crash can strike mid-round: if the armed write budget runs out
  /// inside a multiApply, only the allowed prefix of entries is forwarded
  /// (as one inner round) before CrashError — modelling a client that
  /// dies while its batch is in flight.
  void onRound(Round& round, const Issue& issue) override;
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
