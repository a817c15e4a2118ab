// Tests for the Dht wrapper shape (dht::ForwardingDht): every routed call
// passes a wrapper's hooks, and the inner call still carries the caller's
// digest or start. A call that escaped the hooks would skip the wrapper's
// faults, or (for the Table's namespacing adapter) reach the DHT with no
// column prefix; one that lost its digest or start would turn a warm read
// or write back into a whole-bucket one. These tests drive every routed
// call through each wrapper over a recording inner Dht. The last suite
// shares one decorator stack between threads (run under ThreadSanitizer by
// scripts/check.sh --tsan).
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "db/table.h"
#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "net/sim_clock.h"

namespace lht::dht {
namespace {

/// The innermost Dht of the wrapper checks: a map-backed store that records
/// the name, keys, held digests and start of every call reaching it, serves
/// getReplica from the same map, and moves a clock by kInnerMs per call.
class RecordingDht final : public Dht {
 public:
  static constexpr common::u64 kInnerMs = 20;

  struct Call {
    std::string op;
    std::vector<Key> keys;
    std::vector<u64> held = {};
    Value start = {};
  };

  explicit RecordingDht(net::SimClock& clock) : clock_(clock) {}

  void put(const Key& key, Value value) override {
    note("put", {key});
    store_[key] = std::move(value);
  }
  std::optional<Value> get(const Key& key) override {
    note("get", {key});
    return lookup(key);
  }
  bool remove(const Key& key) override {
    note("remove", {key});
    return store_.erase(key) > 0;
  }
  bool apply(const Key& key, const Mutator& fn) override {
    note("apply", {key});
    return applyLocal(key, fn);
  }
  bool applyFrom(const Key& key, const Value& start, const Mutator& fn) override {
    note("applyFrom", {key}, {}, start);
    return applyLocal(key, fn);
  }
  GetOutcome getIfChanged(const Key& key, u64 held) override {
    note("getIfChanged", {key}, {held});
    return read(key, held);
  }
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override {
    note("multiGet", keys);
    std::vector<GetOutcome> out;
    for (const Key& key : keys) out.push_back(read(key, 0));
    return out;
  }
  std::vector<GetOutcome> multiGetIfChanged(
      const std::vector<Key>& keys, const std::vector<u64>& held) override {
    note("multiGetIfChanged", keys, held);
    std::vector<GetOutcome> out;
    for (size_t i = 0; i < keys.size(); ++i) out.push_back(read(keys[i], held[i]));
    return out;
  }
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override {
    std::vector<Key> keys;
    std::vector<ApplyOutcome> out;
    for (const auto& req : reqs) {
      keys.push_back(req.key);
      out.push_back({true, applyLocal(req.key, req.fn), ""});
    }
    note("multiApply", keys);
    return out;
  }
  void storeDirect(const Key& key, Value value) override {
    note("storeDirect", {key});
    store_[key] = std::move(value);
  }
  [[nodiscard]] size_t replicaFanout() const override { return 1; }
  std::optional<Value> getReplica(const Key& key, size_t) override {
    note("getReplica", {key});
    return lookup(key);
  }
  [[nodiscard]] size_t size() const override { return store_.size(); }

  std::vector<Call> calls;

 private:
  void note(std::string op, std::vector<Key> keys, std::vector<u64> held = {},
            Value start = {}) {
    calls.push_back({std::move(op), std::move(keys), std::move(held),
                     std::move(start)});
    clock_.advance(kInnerMs);
  }
  std::optional<Value> lookup(const Key& key) const {
    auto it = store_.find(key);
    if (it == store_.end()) return std::nullopt;
    return it->second;
  }
  GetOutcome read(const Key& key, u64 held) const {
    GetOutcome o{true, lookup(key), ""};
    settleHeld(o, held);
    return o;
  }
  bool applyLocal(const Key& key, const Mutator& fn) {
    std::optional<Value> v = lookup(key);
    const bool existed = v.has_value();
    fn(v);
    if (v) {
      store_[key] = *v;
    } else {
      store_.erase(key);
    }
    return existed;
  }

  net::SimClock& clock_;
  std::map<Key, Value> store_;
};

/// One routed call made through a wrapper. `run` returns whether it
/// succeeded (for a batch: every entry) and throws what the wrapper threw.
/// `held` and `start` are the digests and start the caller passed, which
/// the inner Dht must receive as they are.
struct RoutedCall {
  const char* op;
  std::function<bool(Dht&)> run;
  std::vector<u64> held = {};
  Value start = {};
};

/// The digest of the value the recording store holds under both keys.
const u64 kHeld = common::hash::valueDigest("v");

const std::vector<RoutedCall>& routedCalls() {
  static const std::vector<RoutedCall> calls = {
      {"put", [](Dht& d) { d.put("k", "v2"); return true; }},
      {"get", [](Dht& d) { return d.get("k").has_value(); }},
      {"remove", [](Dht& d) { return d.remove("k"); }},
      {"apply",
       [](Dht& d) {
         return d.apply("k", [](std::optional<Value>& v) { v = "v2"; });
       }},
      {"multiGet",
       [](Dht& d) {
         const auto out = d.multiGet({"k", "k2"});
         return out.size() == 2 && out[0].ok && out[1].ok;
       }},
      {"multiApply",
       [](Dht& d) {
         const Mutator fn = [](std::optional<Value>& v) { v = "v2"; };
         const auto out = d.multiApply({{"k", fn}, {"k2", fn}});
         return out.size() == 2 && out[0].ok && out[1].ok;
       }},
      {"getReplica", [](Dht& d) { return d.getReplica("k", 0).has_value(); }},
      {"getIfChanged",
       [](Dht& d) { return d.getIfChanged("k", kHeld).unchanged; }, {kHeld}},
      {"multiGetIfChanged",
       [](Dht& d) {
         const auto out = d.multiGetIfChanged({"k", "k2"}, {kHeld, 7});
         return out.size() == 2 && out[0].unchanged && out[1].value == "v";
       },
       {kHeld, 7}},
      {"applyFrom",
       [](Dht& d) {
         return d.applyFrom("k", "start",
                            [](std::optional<Value>& v) { v = "v2"; });
       },
       {},
       "start"},
  };
  return calls;
}

enum class Seen { Ok, Failed, Crashed };

Seen outcome(const RoutedCall& call, Dht& d) {
  try {
    return call.run(d) ? Seen::Ok : Seen::Failed;
  } catch (const CrashError&) {
    return Seen::Crashed;
  } catch (const DhtError&) {
    return Seen::Failed;
  }
}

struct WrapperCase {
  const char* name;
  std::function<std::unique_ptr<Dht>(Dht& inner, net::SimClock& clock)> wrap;
  Seen seen;          ///< what the caller sees from every routed call
  bool reachesInner;  ///< the call executes at the inner Dht
  common::u64 ownMs;  ///< simulated time the wrapper itself charges
};

TEST(WrapperForwards, EveryWrapperInterceptsEveryRoutedCall) {
  const std::vector<WrapperCase> cases = {
      {"FaultDht request p=1",
       [](Dht& inner, net::SimClock&) -> std::unique_ptr<Dht> {
         return std::make_unique<FaultDht>(inner, FaultDht::Point::Request,
                                           1.0);
       },
       Seen::Failed, false, 0},
      {"FaultDht reply p=1",
       [](Dht& inner, net::SimClock&) -> std::unique_ptr<Dht> {
         return std::make_unique<FaultDht>(inner, FaultDht::Point::Reply, 1.0);
       },
       Seen::Failed, true, 0},
      {"crashed CrashDht",
       [](Dht& inner, net::SimClock&) -> std::unique_ptr<Dht> {
         auto crash = std::make_unique<CrashDht>(inner);
         crash->armAfterWrites(0);
         EXPECT_THROW(crash->put("boot", "v"), CrashError);
         EXPECT_TRUE(crash->crashed());
         return crash;
       },
       Seen::Crashed, false, 0},
      {"LatencyDht",
       [](Dht& inner, net::SimClock& clock) -> std::unique_ptr<Dht> {
         return std::make_unique<LatencyDht>(
             inner, clock,
             LatencyDht::Options{.baseMs = 7, .jitterMs = 0, .seed = 1});
       },
       Seen::Ok, true, 7},
  };
  for (const auto& c : cases) {
    for (const auto& call : routedCalls()) {
      SCOPED_TRACE(std::string(c.name) + " / " + call.op);
      net::SimClock clock;
      RecordingDht inner(clock);
      inner.storeDirect("k", "v");
      inner.storeDirect("k2", "v");
      auto wrapper = c.wrap(inner, clock);
      inner.calls.clear();
      const common::u64 t0 = clock.nowMs();

      EXPECT_EQ(outcome(call, *wrapper), c.seen);
      if (c.reachesInner) {
        ASSERT_EQ(inner.calls.size(), 1u);
        EXPECT_EQ(inner.calls[0].op, call.op);
        EXPECT_EQ(inner.calls[0].held, call.held);
        EXPECT_EQ(inner.calls[0].start, call.start);
      } else {
        EXPECT_TRUE(inner.calls.empty());
      }
      const common::u64 innerMs =
          RecordingDht::kInnerMs * static_cast<common::u64>(inner.calls.size());
      EXPECT_EQ(clock.nowMs() - t0, innerMs + c.ownMs);
    }
  }
}

TEST(WrapperForwards, TableAdapterPrefixesEveryKey) {
  std::vector<RoutedCall> calls = routedCalls();
  calls.push_back({"storeDirect", [](Dht& d) {
                     d.storeDirect("k", "v2");
                     return true;
                   }});
  for (const auto& call : calls) {
    SCOPED_TRACE(call.op);
    net::SimClock clock;
    RecordingDht inner(clock);
    inner.storeDirect("col/k", "v");
    inner.storeDirect("col/k2", "v");
    db::NamespacedDht adapter(inner, "col/");
    inner.calls.clear();

    EXPECT_EQ(outcome(call, adapter), Seen::Ok);
    ASSERT_EQ(inner.calls.size(), 1u);
    EXPECT_EQ(inner.calls[0].op, call.op);
    EXPECT_EQ(inner.calls[0].held, call.held);
    EXPECT_EQ(inner.calls[0].start, call.start);
    ASSERT_FALSE(inner.calls[0].keys.empty());
    for (const Key& key : inner.calls[0].keys) {
      EXPECT_EQ(key.rfind("col/", 0), 0u) << key;
    }
  }
  net::SimClock clock;
  RecordingDht inner(clock);
  db::NamespacedDht adapter(inner, "col/");
  EXPECT_EQ(adapter.replicaFanout(), inner.replicaFanout());
}

// ---------------------------------------------------------------------------
// One decorator stack shared by many threads
// ---------------------------------------------------------------------------

TEST(SharedDecoratorStack, ThreadsShareOneRetryingStack) {
  // decorators.h promises every decorator is safe to call from many
  // threads at once. Four threads drive one RetryingDht over LatencyDht
  // over FaultDht (one LocalDht, one SimClock) on disjoint keys, through
  // both hooks and every call shape; the shared diagnostics must still add
  // up exactly after the join.
  constexpr int kThreads = 4;
  constexpr int kRounds = 150;
  // put, get, getIfChanged, 2-key multiGet, applyFrom
  constexpr common::u64 kEntriesPerRound = 6;
  for (const auto point : {FaultDht::Point::Request, FaultDht::Point::Reply}) {
    SCOPED_TRACE(point == FaultDht::Point::Request ? "request" : "reply");
    LocalDht store;
    net::SimClock clock;
    FaultDht fault(store, point, 0.3, /*seed=*/31);
    LatencyDht latency(fault, clock, {.baseMs = 5, .jitterMs = 3, .seed = 32});
    RetryingDht retry(latency, /*maxAttempts=*/64);

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&retry, t] {
        for (int i = 0; i < kRounds; ++i) {
          const std::string key =
              "t" + std::to_string(t) + "/" + std::to_string(i);
          retry.put(key, key);
          EXPECT_EQ(retry.get(key), std::optional<Value>(key));
          EXPECT_TRUE(retry.getIfChanged(key, common::hash::valueDigest(key))
                          .unchanged);
          const auto out = retry.multiGet({key, key + "/absent"});
          ASSERT_EQ(out.size(), 2u);
          EXPECT_TRUE(out[0].ok && out[1].ok);
          EXPECT_EQ(out[0].value, std::optional<Value>(key));
          EXPECT_FALSE(out[1].value.has_value());
          EXPECT_TRUE(retry.applyFrom(
              key, key, [&key](std::optional<Value>& v) { v = key + "/2"; }));
        }
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_GT(fault.injected(), 0u);
    EXPECT_EQ(retry.retries(), fault.injected());
    EXPECT_EQ(retry.exhausted(), 0u);
    const auto& hist = retry.attemptHistogram();
    EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), common::u64{0}),
              kThreads * kRounds * kEntriesPerRound);
    EXPECT_EQ(clock.nowMs(), latency.injectedLatencyMs());
  }
}

}  // namespace
}  // namespace lht::dht
