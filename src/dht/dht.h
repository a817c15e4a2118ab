// Abstract DHT interface: the only substrate the indexes depend on.
//
// LHT (and PHT) are *over-DHT* schemes (paper Sec. 2): they use nothing but
// the generic put/get interface of a DHT, so they run unchanged on any
// substrate. Each routed operation below counts as exactly one "DHT-lookup"
// — the paper's bandwidth unit — regardless of how many overlay hops the
// substrate needs; hop counts are additionally recorded in DhtStats so the
// cost-model constant j can be calibrated per substrate.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/relaxed_counter.h"
#include "common/types.h"
#include "obs/obs.h"

namespace lht::net {
class SimNetwork;
}  // namespace lht::net

namespace lht::dht {

using common::u64;

/// A lost DHT request or reply (base of every injectable DHT failure).
class DhtError : public std::runtime_error {
 public:
  explicit DhtError(const std::string& what) : std::runtime_error(what) {}
};

/// An operation exceeded its deadline. The mutation may still have
/// executed at the storing peer (lost-reply semantics).
class DhtTimeoutError : public DhtError {
 public:
  explicit DhtTimeoutError(const std::string& what) : DhtError(what) {}
};

/// RetryingDht ran out of attempts. Carries what happened.
class DhtRetriesExhausted : public DhtError {
 public:
  DhtRetriesExhausted(const std::string& what, std::string op, size_t attempts,
                      std::string lastError)
      : DhtError(what),
        op_(std::move(op)),
        attempts_(attempts),
        lastError_(std::move(lastError)) {}
  [[nodiscard]] const std::string& op() const { return op_; }
  [[nodiscard]] size_t attempts() const { return attempts_; }
  [[nodiscard]] const std::string& lastError() const { return lastError_; }

 private:
  std::string op_;
  size_t attempts_;
  std::string lastError_;
};

/// The peer responsible for the key is down (crashed, not yet repaired).
/// Distinct from a key that is absent — an absent key is a successful
/// lookup returning nothing, a down owner is a failed lookup. Failover
/// layers catch this and retry against the key's replica holders.
class DhtPeerDownError : public DhtError {
 public:
  explicit DhtPeerDownError(const std::string& what) : DhtError(what) {}
};

/// A simulated client crash. Deliberately NOT a DhtError: retry layers
/// absorb substrate failures, but nothing may absorb the death of the
/// client itself.
class CrashError : public std::runtime_error {
 public:
  explicit CrashError(const std::string& what) : std::runtime_error(what) {}
};

/// Keys are flat strings (e.g. a serialized tree-node label); the substrate
/// hashes them onto its identifier space (consistent hashing, paper Sec. 1).
using Key = std::string;

/// Values are opaque byte strings; the index layers own the serialization.
using Value = std::string;

/// Cumulative substrate counters. Relaxed atomics: concurrent clients bump
/// them without tearing and totals are exact once the fleet has joined;
/// cross-field reads taken mid-run are statistical snapshots.
struct DhtStats {
  common::RelaxedCounter lookups;   ///< routed ops: the paper's "DHT-lookup"
  common::RelaxedCounter hops;      ///< overlay routing hops behind those
  common::RelaxedCounter gets;      ///< lookups that were gets
  common::RelaxedCounter puts;      ///< lookups that were puts
  common::RelaxedCounter applies;   ///< lookups that were read-modify-writes
  common::RelaxedCounter removes;   ///< lookups that were removes
  common::RelaxedCounter valueBytesMoved;  ///< payload bytes to/from peers
  common::RelaxedCounter batchRounds;      ///< multiGet/multiApply rounds
  void reset() { *this = DhtStats{}; }
};

/// A read-modify-write body executed at the storing peer. It receives the
/// stored value (disengaged when the key is absent) and may create, rewrite
/// or erase it (reset() == erase).
using Mutator = std::function<void(std::optional<Value>&)>;

/// Per-entry result of one key inside a multiGet round. A batch never
/// fails wholesale at the DHT layer: each entry reports its own outcome
/// so callers can retry / repair exactly the entries that failed.
struct GetOutcome {
  bool ok = false;               ///< the entry's reply arrived
  std::optional<Value> value;    ///< stored value (disengaged: key absent,
                                 ///< or unchanged)
  std::string error;             ///< failure description when !ok
  /// A conditional read only: the stored value still has the digest the
  /// caller holds, so `value` stays disengaged and the caller's copy is
  /// current. Plain reads never set it.
  bool unchanged = false;
};

/// Settles a conditional read locally: a fetched value that still has the
/// `held` digest is dropped and the outcome reads `unchanged`.
void settleHeld(GetOutcome& o, u64 held);

/// Per-entry result of one read-modify-write inside a multiApply round.
/// As with single-op lost replies, !ok does NOT imply the mutation did
/// not execute — only that the acknowledgement never arrived.
struct ApplyOutcome {
  bool ok = false;               ///< the entry's acknowledgement arrived
  bool existed = false;          ///< key existed before the call (valid when ok)
  std::string error;             ///< failure description when !ok
};

/// One entry of a multiApply round.
struct ApplyRequest {
  Key key;
  Mutator fn;
};

/// Generic DHT. Implementations must be deterministic given their seed so
/// experiments reproduce exactly.
class Dht {
 public:
  virtual ~Dht() = default;

  /// Stores `value` at the peer responsible for `key`. One DHT-lookup.
  virtual void put(const Key& key, Value value) = 0;

  /// Fetches the value stored under `key`. One DHT-lookup.
  virtual std::optional<Value> get(const Key& key) = 0;

  /// Removes `key`. One DHT-lookup. Returns whether it was present.
  virtual bool remove(const Key& key) = 0;

  /// Routes to the responsible peer and runs `fn` there atomically.
  /// One DHT-lookup. Returns whether the key existed before the call.
  /// This models the paper's "DHT-put towards κ" of a single record: the
  /// record travels to the peer; the bucket is rewritten locally.
  ///
  /// `fn` may run several times in one call, and only its last run is
  /// stored. The networked client runs it client-side on a read (or on
  /// applyFrom's start) and runs it again after a CAS conflict, or after
  /// re-reading when a run on the start changed nothing (DESIGN.md §15); a
  /// retry layer re-runs it after a lost reply. So a mutator resets what
  /// it reports to its caller at the top of each run, and never consumes
  /// what it captured.
  virtual bool apply(const Key& key, const Mutator& fn) = 0;

  /// apply(), starting from `start`: the caller's copy of the value it
  /// believes is stored under `key`. The result is apply()'s whatever the
  /// start: the start only saves the read when it is current. The base
  /// ignores it and runs this object's own apply(), since a substrate that
  /// runs `fn` atomically on what is stored needs no start; a networked
  /// client overrides it to CAS straight from the start, guarded by its
  /// digest, with no read round (DESIGN.md §15).
  virtual bool applyFrom(const Key& key, const Value& start, const Mutator& fn);

  /// Issues every key as one *batch round*: the requests are independent,
  /// so a substrate dispatches them concurrently and the round costs one
  /// critical-path RTT of simulated time (the paper's parallel-forwarding
  /// model, Alg. 3/4). Bandwidth accounting is unchanged — each entry is
  /// still one DHT-lookup. Entries fail independently (lost replies,
  /// timeouts); the round itself never throws DhtError. CrashError does
  /// propagate — a dead client cannot observe partial outcomes.
  ///
  /// The base implementation is the one per-entry loop: it runs get()
  /// per entry, translating DhtError into a failed outcome, inside one
  /// SimNetwork::ParallelRound when the substrate runs on a simulated
  /// network. Networked clients override it to ship the round; a wrapper
  /// sees it through ForwardingDht's round hook.
  virtual std::vector<GetOutcome> multiGet(const std::vector<Key>& keys);

  /// Conditional reads (DESIGN.md §8, §14). `held` is the
  /// common::hash::valueDigest of the copy the caller holds, 0 for none.
  /// While the stored value still has that digest the outcome is
  /// `unchanged` and carries no value; otherwise it is what get() /
  /// multiGet() would return. getIfChanged costs one DHT-lookup, throws
  /// what get() throws and returns an ok outcome; multiGetIfChanged takes
  /// held[i] for keys[i] and fails per entry like multiGet.
  ///
  /// The base runs this object's own get() / multiGet() and compares
  /// digests locally: every substrate answers a conditional read with
  /// exactly the calls and hops of a plain one, and every wrapper treats
  /// it as a get. A networked client overrides both to keep an unchanged
  /// value off the wire.
  virtual GetOutcome getIfChanged(const Key& key, u64 held);
  virtual std::vector<GetOutcome> multiGetIfChanged(
      const std::vector<Key>& keys, const std::vector<u64>& held);

  /// Read-modify-write counterpart of multiGet: one round, independent
  /// per-entry outcomes. A failed entry may still have executed at the
  /// storing peer (lost-reply semantics), so mutators must be idempotent.
  virtual std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs);

  /// Out-of-band bootstrap write: stores without routing or accounting.
  /// Used only to seed initial index state (e.g. the root leaf bucket).
  virtual void storeDirect(const Key& key, Value value) = 0;

  // Replica failover reads ---------------------------------------------------
  /// How many replica copies of a key can be read besides the primary
  /// (substrate replication factor - 1). 0 means replica reads are
  /// unsupported; wrappers forward to their inner DHT.
  [[nodiscard]] virtual size_t replicaFanout() const { return 0; }

  /// Reads `key` from its `replicaIndex`-th replica holder instead of the
  /// primary owner (0 = first holder). One routed operation, accounted
  /// like a get but under its own "dht.get_replica" span so the retry
  /// ledger can separate rescue reads from logical gets. Throws
  /// DhtPeerDownError when that holder is itself down, DhtError when
  /// replicaIndex >= replicaFanout(). A disengaged result means the key is
  /// genuinely absent (not a failure).
  virtual std::optional<Value> getReplica(const Key& key, size_t replicaIndex);

  /// Storage administration (unaccounted, unrouted). Substrates backed by
  /// a durable storage engine flush pending log appends to stable storage
  /// (syncStorage) or snapshot + truncate the log (compactStorage);
  /// volatile substrates no-op. Wrappers forward both, so a client
  /// holding only the decorated stack can still drive durability.
  virtual void syncStorage() {}
  virtual void compactStorage() {}

  /// Number of key/value pairs currently stored (all peers).
  [[nodiscard]] virtual size_t size() const = 0;

  [[nodiscard]] const DhtStats& stats() const { return stats_; }
  void resetStats() { stats_.reset(); }

 protected:
  Dht() = default;
  /// A substrate simulated on `network`: the base multiGet/multiApply run
  /// each batch as one parallel round on it, so the round costs the
  /// longest entry's hop chain of simulated time (critical-path RTT) while
  /// every entry's hops and bytes are accounted normally.
  explicit Dht(net::SimNetwork& network) : roundNetwork_(&network) {}

  /// RAII scope a substrate opens around one routed operation. Emits a
  /// substrate-level trace span (named e.g. "dht.get") carrying the key and
  /// the overlay hop count (delta of stats_.hops across the scope), and
  /// bumps the raw per-op counter "<spanName>.raw" plus the "dht.hops"
  /// total. "Raw" counts every executed attempt — the Retrying decorator
  /// separately counts each *logical* operation exactly once, so retries
  /// never inflate the cost-model's DHT-lookup metric.
  class RoutedOpScope {
   public:
    RoutedOpScope(Dht& dht, const char* spanName, const Key& key);
    ~RoutedOpScope();
    RoutedOpScope(const RoutedOpScope&) = delete;
    RoutedOpScope& operator=(const RoutedOpScope&) = delete;

   private:
    Dht& dht_;
    u64 hops0_;
    obs::SpanScope span_;
  };

  DhtStats stats_;

 private:
  net::SimNetwork* roundNetwork_ = nullptr;
};

/// The kind of a routed call, as a ForwardingDht hook sees it: a
/// conditional read is a Get, and an apply from a start is an Apply.
enum class DhtOp : size_t { Put, Get, Remove, Apply, GetReplica };

/// A Dht over another Dht (fault injection, recovery, key namespacing,
/// test doubles). Each routed verb is defined once here and is final: it
/// hands the call to one of two hooks, onCall for a single-key call and
/// onRound for a round, with a callable that makes the inner call with the
/// caller's value, digest, start or replica index. A wrapper overrides the
/// hooks, never the verbs, so it sees every routed call, and a conditional
/// read or a start reaches the inner Dht as itself. The unrouted calls
/// forward as they are. The forwards count nothing: the substrate
/// underneath keeps the DhtStats.
class ForwardingDht : public Dht {
 public:
  explicit ForwardingDht(Dht& inner) : inner_(inner) {}

  void put(const Key& key, Value value) final;
  std::optional<Value> get(const Key& key) final;
  bool remove(const Key& key) final;
  bool apply(const Key& key, const Mutator& fn) final;
  bool applyFrom(const Key& key, const Value& start, const Mutator& fn) final;
  GetOutcome getIfChanged(const Key& key, u64 held) final;
  std::optional<Value> getReplica(const Key& key, size_t replicaIndex) final;
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) final;
  std::vector<GetOutcome> multiGetIfChanged(
      const std::vector<Key>& keys, const std::vector<u64>& held) final;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) final;

  void storeDirect(const Key& key, Value value) override {
    inner_.storeDirect(key, std::move(value));
  }
  [[nodiscard]] size_t replicaFanout() const override {
    return inner_.replicaFanout();
  }
  void syncStorage() override { inner_.syncStorage(); }
  void compactStorage() override { inner_.compactStorage(); }
  [[nodiscard]] size_t size() const override { return inner_.size(); }

 protected:
  /// One single-key call. A hook may rename `key` and wrap `fn` before it
  /// forwards, and may replace the answer after.
  struct Call {
    DhtOp op{};
    Key key{};
    Value value{};         ///< Put: the value to store
    Mutator fn{};          ///< Apply: the mutator
    u64 held = 0;          ///< Get: the caller's digest (0 for none)
    GetOutcome read{};     ///< Get, GetReplica: the answer
    bool existed = false;  ///< Remove, Apply: the answer
  };
  /// Makes the inner call with the call's current key and mutator and
  /// stores the answer in the call. It may run again (a retry).
  using Forward = std::function<void()>;
  virtual void onCall(Call& /*call*/, const Forward& forward) { forward(); }

  /// One round of a Get or an Apply: entry i is keys[i], with held[i] (0
  /// for none) or fns[i], and its outcome in gets[i] or applies[i]. A hook
  /// may rename keys and wrap mutators before it issues entries, and may
  /// replace outcomes after. An entry never issued stays failed.
  struct Round {
    DhtOp op{};
    std::vector<Key> keys{};
    std::vector<u64> held{};
    std::vector<Mutator> fns{};
    std::vector<GetOutcome> gets{};
    std::vector<ApplyOutcome> applies{};

    [[nodiscard]] size_t size() const { return keys.size(); }
    /// Every entry's index, in order.
    [[nodiscard]] std::vector<size_t> all() const;
    [[nodiscard]] bool ok(size_t i) const;
    [[nodiscard]] const std::string& error(size_t i) const;
    /// Fails entry i: its reply never arrived, so it carries no value and
    /// is not `unchanged`.
    void fail(size_t i, std::string error);
  };
  /// Issues the entries `which` (indices into the round) as one inner
  /// round and stores their outcomes. It may run again on any subset.
  using Issue = std::function<void(const std::vector<size_t>& which)>;
  /// Never sees an empty round: the verbs answer one themselves.
  virtual void onRound(Round& round, const Issue& issue) {
    issue(round.all());
  }

  Dht& inner_;

 private:
  /// multiGet and multiGetIfChanged: one Get round, issued to the inner
  /// Dht's `conditional` verb.
  std::vector<GetOutcome> getRound(const std::vector<Key>& keys,
                                   std::vector<u64> held, bool conditional);
};

}  // namespace lht::dht
