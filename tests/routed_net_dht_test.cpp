// RoutedNetDht against a live (sim-transport) overlay cluster: bootstrap
// from a single seed, warm one-hop routing, redirect-following across a
// membership change, and crash failover through replica promotion — the
// deterministic twin of the kernel-UDP paths bench_overlay measures.
//
// The overlay nodes run real serve() loops on background threads (the
// client's calls block inside settle(), so somebody must pump the
// servers); virtual clocks make that spin fast without wall-clock sleeps.
#include "dht/routed_net_dht.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net_index_check.h"
#include "overlay/overlay_node.h"
#include "rpc/sim_transport.h"

namespace lht::dht {
namespace {

using overlay::OverlayNode;
using rpc::NetAddr;
using rpc::SimHub;
using rpc::SimTransport;

constexpr rpc::u16 kBasePort = 6100;

/// Wall-throttled sim endpoint. A SimTransport's idle receive() advances
/// its PRIVATE virtual clock by the full wait instantly, so a blocked
/// thread can spin through any virtual deadline before the threads
/// serving the other endpoints get scheduled even once. Charging a
/// sliver of real time per idle wait makes every endpoint's virtual
/// clock advance at a comparable wall rate, which is what lets finite
/// timeouts (needed by the crash-failover test) behave across threads.
class ThrottledSim final : public rpc::Transport {
 public:
  explicit ThrottledSim(std::unique_ptr<SimTransport> inner)
      : inner_(std::move(inner)) {}
  bool send(const NetAddr& to, std::string_view payload) override {
    return inner_->send(to, payload);
  }
  size_t receive(std::vector<rpc::Datagram>& out, rpc::u64 timeoutMs) override {
    const size_t n = inner_->receive(out, timeoutMs);
    if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    return n;
  }
  rpc::u64 nowMs() override { return inner_->nowMs(); }
  [[nodiscard]] NetAddr localAddr() const override {
    return inner_->localAddr();
  }

 private:
  std::unique_ptr<SimTransport> inner_;
};

struct ServedCluster {
  SimHub hub;
  std::vector<std::unique_ptr<ThrottledSim>> tx;
  std::vector<std::unique_ptr<OverlayNode>> nodes;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  explicit ServedCluster(size_t n, OverlayNode::Options base = {}) {
    std::vector<rpc::wire::NodeEntry> entries;
    for (size_t i = 0; i < n; ++i) {
      tx.push_back(std::make_unique<ThrottledSim>(
          hub.makeEndpoint(static_cast<rpc::u16>(kBasePort + i))));
      const NetAddr addr = tx.back()->localAddr();
      rpc::wire::NodeEntry e;
      e.id = overlay::nodeIdFor(addr);
      e.host = addr.host;
      e.port = addr.port;
      e.incarnation = 1;
      e.ringBase = e.id;
      entries.push_back(e);
    }
    for (size_t i = 0; i < n; ++i) {
      OverlayNode::Options opts = base;
      opts.name = "served-" + std::to_string(i);
      nodes.push_back(std::make_unique<OverlayNode>(opts, *tx[i]));
      nodes[i]->seedMembership(entries);
    }
  }

  ~ServedCluster() {
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }

  void serveAll() {
    for (auto& n : nodes) {
      OverlayNode* p = n.get();
      threads.emplace_back([this, p] { p->serve(stop); });
    }
  }

  void serveOne(OverlayNode* p) {
    threads.emplace_back([this, p] { p->serve(stop); });
  }

  [[nodiscard]] NetAddr addr(size_t i) const { return tx[i]->localAddr(); }
};

RoutedNetDht::Options clientOptions(const ServedCluster& c,
                                    size_t replication = 1) {
  RoutedNetDht::Options ro;
  ro.seed = c.addr(0);
  ro.replication = replication;
  return ro;
}

/// Client options for tests that assert no request ever times out. The
/// sim clocks jump by whole idle waits, so under a slow (sanitizer) build
/// the default 2 s deadline can pass while a server thread is merely
/// descheduled; this deadline lies far beyond those jumps.
RoutedNetDht::Options patientClientOptions(const ServedCluster& c) {
  RoutedNetDht::Options ro = clientOptions(c);
  ro.rpc.requestDeadlineMs = 4'000'000;
  return ro;
}

/// get() with churn tolerance: a topology change mid-read surfaces as a
/// timeout or a transient miss; retry until the wall deadline — only a
/// key still wrong then is actually lost (the run_cluster verify model).
bool eventuallyReads(RoutedNetDht& dht, const std::string& key,
                     const std::string& expect, int deadlineSeconds = 30) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadlineSeconds);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      auto got = dht.get(key);
      if (got.has_value() && *got == expect) return true;
    } catch (const DhtError&) {
      // timed out / exhausted attempts mid-churn: retryable
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

TEST(RoutedNetDht, BootstrapsFromOneSeedAndRoutesWarmOpsInOneHop) {
  ServedCluster c(3);
  c.serveAll();
  RoutedNetDht dht(patientClientOptions(c), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(/*deadlineMs=*/20000));
  EXPECT_EQ(dht.knownMembers(), 3u);
  EXPECT_GE(dht.routedStats().bootstraps, 1u);

  for (int i = 0; i < 25; ++i) {
    dht.put("key-" + std::to_string(i), "val-" + std::to_string(i));
  }
  for (int i = 0; i < 25; ++i) {
    auto got = dht.get("key-" + std::to_string(i));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "val-" + std::to_string(i));
  }

  // A stable view routes every op straight to its owner: exactly one hop
  // per lookup, zero redirects — the bench gate (≤ 1.2 warm mean hops)
  // with the slack removed.
  const auto& ds = dht.stats();
  EXPECT_EQ(ds.hops.load(), ds.lookups.load());
  EXPECT_EQ(dht.routedStats().redirectsFollowed, 0u);
  EXPECT_EQ(dht.routedStats().retriesAfterTimeout, 0u);

  // Batched reads keep the one-hop-per-key accounting.
  std::vector<Key> keys;
  for (int i = 0; i < 25; ++i) keys.push_back("key-" + std::to_string(i));
  auto outcomes = dht.multiGet(keys);
  ASSERT_EQ(outcomes.size(), keys.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(outcomes[i].value.has_value()) << keys[i];
    EXPECT_EQ(*outcomes[i].value, "val-" + std::to_string(i));
  }
  EXPECT_EQ(ds.hops.load(), ds.lookups.load());
}

TEST(RoutedNetDht, FollowsRedirectsAcrossAliveJoin) {
  // Forwarding off: every stale-view op comes back as an explicit
  // Redirect, so this pins the client's follow-and-refresh path.
  OverlayNode::Options base;
  base.forwardData = false;
  ServedCluster c(2, base);
  c.serveAll();
  RoutedNetDht dht(clientOptions(c), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(20000));
  EXPECT_EQ(dht.knownMembers(), 2u);

  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) {
    keys.push_back("key-" + std::to_string(i));
    dht.put(keys.back(), "val-" + std::to_string(i));
  }

  // A third node joins the LIVE cluster (its own thread; the incumbents
  // keep serving). The client's view is now stale.
  auto joinTx = std::make_unique<ThrottledSim>(
      c.hub.makeEndpoint(static_cast<rpc::u16>(kBasePort + 2)));
  OverlayNode::Options jo = base;
  jo.name = "joiner";
  auto joiner = std::make_unique<OverlayNode>(jo, *joinTx);
  ASSERT_TRUE(joiner->joinCluster(c.addr(0), /*deadlineMs=*/60000));
  c.serveOne(joiner.get());

  // Every preloaded record stays readable through the churn — redirects
  // and hint-triggered refreshes heal the view instead of failing ops.
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(eventuallyReads(dht, keys[i], "val-" + std::to_string(i)))
        << keys[i];
  }
  EXPECT_EQ(dht.knownMembers(), 3u);  // the view healed to the new ring
  const auto rs = dht.routedStats();
  EXPECT_GE(rs.redirectsFollowed + rs.refreshes, 1u);

  // Writes after the heal land on the three-node ring and read back.
  dht.put("post-join", "fresh");
  EXPECT_TRUE(eventuallyReads(dht, "post-join", "fresh"));

  c.tx.push_back(std::move(joinTx));
  c.nodes.push_back(std::move(joiner));  // joined threads outlive the test body
}

TEST(RoutedNetDht, CrashFailoverPromotesReplicasBehindTheClient) {
  OverlayNode::Options base;
  base.replication = 2;  // overlay promotes one replica per key on crash
  ServedCluster c(3, base);
  c.serveAll();
  // replication=2 on the client too: every put fans a replica copy to the
  // key's ring successor, which is what the survivors promote from.
  RoutedNetDht dht(clientOptions(c, /*replication=*/2), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(20000));

  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("key-" + std::to_string(i));
    dht.put(keys.back(), "val-" + std::to_string(i));
  }

  // Node 2 drops off the network without a goodbye. The survivors'
  // failure detector marks it Dead, reconcile promotes their replica
  // copies, and the client heals through timeouts + refreshes.
  c.hub.setOnline(static_cast<rpc::u16>(kBasePort + 2), false);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(eventuallyReads(dht, keys[i], "val-" + std::to_string(i)))
        << keys[i];
  }

  // Once the failure detector settles, a refresh drops the dead node
  // from the client's view. (Reads can heal earlier, off a view that
  // still lists it as Suspect, so poll with forced refreshes.)
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (dht.knownMembers() != 2 &&
         std::chrono::steady_clock::now() < deadline) {
    dht.bootstrap(/*deadlineMs=*/2000);  // acts as a forced refresh
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(dht.knownMembers(), 2u);  // the dead node fell out of the view
}

TEST(RoutedNetDht, MultiGetCompletesAcrossPrefixReplies) {
  ServedCluster c(1);
  c.serveAll();
  RoutedNetDht dht(patientClientOptions(c), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(20000));
  std::vector<Key> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("big" + std::to_string(i));
    dht.put(keys.back(), std::string(20 * 1024, 'v') + std::to_string(i));
  }
  auto out = dht.multiGet(keys);
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(out[i].ok) << out[i].error;
    EXPECT_EQ(out[i].value, std::string(20 * 1024, 'v') + std::to_string(i));
  }
  // Each reply answered the two-entry prefix that fits one datagram; the
  // tails went out again without any regroup (no refresh, no redirect).
  // At least 3 prefix replies: a retransmitted read runs again, so racing
  // server threads may answer some chunk twice.
  EXPECT_GE(c.nodes[0]->server().stats().prefixReplies.load(), 3u);
  const auto rs = dht.routedStats();
  EXPECT_EQ(rs.refreshes, 0u);
  EXPECT_EQ(rs.redirectsFollowed, 0u);
}

TEST(RoutedNetDht, OversizedEntryFailsAloneAndFast) {
  ServedCluster c(1);
  c.serveAll();
  RoutedNetDht dht(patientClientOptions(c), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(20000));
  dht.put("a", "1");
  dht.put("b", "2");
  c.nodes[0]->server().installPrimary("huge", 1,
                                      std::string(rpc::kMaxDatagramBytes, 'x'));
  auto out = dht.multiGet({"a", "huge", "b"});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FALSE(out[1].ok);
  EXPECT_NE(out[1].error.find("too_large"), std::string::npos) << out[1].error;
  EXPECT_EQ(out[0].value, "1");
  EXPECT_EQ(out[2].value, "2");
  try {
    (void)dht.get("huge");
    ADD_FAILURE() << "an oversized bucket read must fail";
  } catch (const DhtTimeoutError& e) {
    ADD_FAILURE() << "failed by timeout, not at once: " << e.what();
  } catch (const DhtError& e) {
    EXPECT_NE(std::string(e.what()).find("too_large"), std::string::npos);
  }
  // No entry waited out a deadline: a timeout would have regrouped it
  // (and refreshed the view) or been retried.
  const auto rs = dht.routedStats();
  EXPECT_EQ(rs.refreshes, 0u);
  EXPECT_EQ(rs.retriesAfterTimeout, 0u);
}

// ---------------------------------------------------------------------------
// apply() starts from the calling thread's immediately preceding get()
// ---------------------------------------------------------------------------

/// The distinct requests a client sent, per opcode. A retransmit repeats
/// its request id, so it is not counted again.
class RequestCounts {
 public:
  void note(std::string_view datagram) {
    auto decoded = rpc::wire::decodeHeader(datagram);
    const auto* h = std::get_if<rpc::wire::Header>(&decoded);
    if (h == nullptr || h->isReply) return;
    std::lock_guard<std::mutex> lock(mutex_);
    seen_[h->op].insert(h->requestId);
  }
  size_t operator()(rpc::wire::Op op) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = seen_.find(op);
    return it == seen_.end() ? 0 : it->second.size();
  }

 private:
  mutable std::mutex mutex_;
  std::map<rpc::wire::Op, std::set<rpc::u64>> seen_;
};

/// A client endpoint that reports every datagram it sends to `counts`.
class CountingSim final : public rpc::Transport {
 public:
  CountingSim(std::unique_ptr<rpc::Transport> inner, RequestCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}
  bool send(const NetAddr& to, std::string_view payload) override {
    counts_.note(payload);
    return inner_->send(to, payload);
  }
  size_t receive(std::vector<rpc::Datagram>& out, rpc::u64 timeoutMs) override {
    return inner_->receive(out, timeoutMs);
  }
  rpc::u64 nowMs() override { return inner_->nowMs(); }
  [[nodiscard]] NetAddr localAddr() const override {
    return inner_->localAddr();
  }

 private:
  std::unique_ptr<rpc::Transport> inner_;
  RequestCounts& counts_;
};

RoutedNetDht::TransportFactory countingEndpoints(ServedCluster& c,
                                                 RequestCounts& counts) {
  return [&c, &counts] {
    return std::make_unique<CountingSim>(
        std::make_unique<ThrottledSim>(c.hub.makeEndpoint()), counts);
  };
}

Mutator appendTo(std::string suffix) {
  return [suffix = std::move(suffix)](std::optional<Value>& v) {
    v = v.value_or("") + suffix;
  };
}

using rpc::wire::Op;

TEST(RoutedNetDhtReadSlot, GetThenApplySavesTheGetRound) {
  ServedCluster c(3);
  c.serveAll();
  RequestCounts sent;
  RoutedNetDht dht(patientClientOptions(c), countingEndpoints(c, sent));
  ASSERT_TRUE(dht.bootstrap(20000));
  dht.put("k", "v");
  // No read before the apply: a GET round, then the CAS.
  EXPECT_TRUE(dht.apply("k", appendTo("+1")));
  EXPECT_EQ(sent(Op::Get), 1u);
  EXPECT_EQ(sent(Op::Cas), 1u);
  // get(k) right before: the apply CASes against that read.
  ASSERT_EQ(dht.get("k"), "v+1");
  EXPECT_TRUE(dht.apply("k", appendTo("+2")));
  EXPECT_EQ(sent(Op::Get), 2u);
  EXPECT_EQ(sent(Op::Cas), 2u);
  EXPECT_EQ(dht.get("k"), "v+1+2");
  // Still one hop per DHT-lookup.
  EXPECT_EQ(dht.stats().hops.load(), dht.stats().lookups.load());
}

TEST(RoutedNetDhtReadSlot, WriteBetweenGetAndApplyConflictsAndRerunsOnFreshState) {
  ServedCluster c(2);
  c.serveAll();
  auto endpoints = [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  };
  RoutedNetDht dht(patientClientOptions(c), endpoints);
  RoutedNetDht rival(patientClientOptions(c), endpoints);
  ASSERT_TRUE(dht.bootstrap(20000));
  ASSERT_TRUE(rival.bootstrap(20000));
  dht.put("k", "base");
  ASSERT_EQ(dht.get("k"), "base");
  rival.put("k", "rival");
  std::vector<std::string> seen;
  EXPECT_TRUE(dht.apply("k", [&](std::optional<Value>& v) {
    seen.push_back(v.value_or("<absent>"));
    v = v.value_or("") + "+applied";
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"base", "rival"}));
  EXPECT_EQ(dht.get("k"), "rival+applied");

  ASSERT_TRUE(dht.get("k").has_value());
  ASSERT_TRUE(rival.remove("k"));
  seen.clear();
  EXPECT_FALSE(dht.apply("k", [&](std::optional<Value>& v) {
    seen.push_back(v.value_or("<absent>"));
    v = v.value_or("") + "!";
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"rival+applied", "<absent>"}));
  EXPECT_EQ(dht.get("k"), "!");
}

TEST(RoutedNetDhtReadSlot, CreateIfAbsentRereadsBeforeTrustingAPresentRead) {
  ServedCluster c(2);
  c.serveAll();
  auto endpoints = [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  };
  RoutedNetDht dht(patientClientOptions(c), endpoints);
  RoutedNetDht rival(patientClientOptions(c), endpoints);
  ASSERT_TRUE(dht.bootstrap(20000));
  ASSERT_TRUE(rival.bootstrap(20000));
  dht.put("k", "old");
  ASSERT_EQ(dht.get("k"), "old");
  ASSERT_TRUE(rival.remove("k"));
  int runs = 0;
  EXPECT_FALSE(dht.apply("k", [&](std::optional<Value>& v) {
    ++runs;
    if (!v.has_value()) v = "created";
  }));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(dht.get("k"), "created");
}

TEST(RoutedNetDhtReadSlot, OnlyTheSameThreadsPreviousCallCounts) {
  ServedCluster c(2);
  c.serveAll();
  RequestCounts sent;
  RoutedNetDht dht(patientClientOptions(c), countingEndpoints(c, sent));
  ASSERT_TRUE(dht.bootstrap(20000));
  dht.put("k", "v");
  dht.put("other", "o");
  for (auto& n : c.nodes) {  // on every node, so on the owner
    n->server().installPrimary("huge", 1,
                               std::string(rpc::kMaxDatagramBytes, 'x'));
  }
  // GET rounds the apply itself sends.
  auto applyGets = [&] {
    const size_t before = sent(Op::Get);
    EXPECT_TRUE(dht.apply("k", appendTo(".")));
    return sent(Op::Get) - before;
  };
  ASSERT_TRUE(dht.get("k").has_value());
  EXPECT_EQ(applyGets(), 0u);

  ASSERT_TRUE(dht.get("k").has_value());
  dht.put("other", "o2");
  EXPECT_EQ(applyGets(), 1u);

  ASSERT_TRUE(dht.get("k").has_value());
  EXPECT_FALSE(dht.remove("absent"));
  EXPECT_EQ(applyGets(), 1u);

  ASSERT_TRUE(dht.get("k").has_value());
  (void)dht.multiGet({"other", "k"});
  EXPECT_EQ(applyGets(), 1u);

  ASSERT_TRUE(dht.get("k").has_value());
  ASSERT_TRUE(dht.get("other").has_value());
  EXPECT_EQ(applyGets(), 1u);

  // A get that throws leaves no read behind: not even the one before it.
  ASSERT_TRUE(dht.get("k").has_value());
  EXPECT_THROW((void)dht.get("huge"), DhtError);
  EXPECT_EQ(applyGets(), 1u);

  // Another thread's read is not this thread's read.
  ASSERT_TRUE(dht.get("k").has_value());
  size_t otherThreadGets = 0;
  std::thread([&] { otherThreadGets = applyGets(); }).join();
  EXPECT_EQ(otherThreadGets, 1u);
  // This thread's read is now stale: the CAS conflicts and the mutator
  // re-runs on the state the conflict reply carries, with no GET.
  const size_t casBefore = sent(Op::Cas);
  EXPECT_EQ(applyGets(), 0u);
  EXPECT_EQ(sent(Op::Cas) - casBefore, 2u);
  EXPECT_EQ(dht.get("k"), "v........");
}

TEST(RoutedNetDhtIndex, Theta100BulkLoadAndSweepsMatchOracle) {
  // A static cluster under a long load: with no gossip rounds, a busy
  // host cannot time peers out of the ring (the sim clocks jump by whole
  // idle waits, see patientClientOptions).
  OverlayNode::Options base;
  base.gossipIntervalMs = 4'000'000'000;
  ServedCluster c(4, base);
  c.serveAll();
  RoutedNetDht dht(patientClientOptions(c), [&] {
    return std::make_unique<ThrottledSim>(c.hub.makeEndpoint());
  });
  ASSERT_TRUE(dht.bootstrap(20000));
  lht::testing_support::expectBulkLoadAndSweepsMatchOracle(dht);
  u64 prefixReplies = 0;
  for (const auto& n : c.nodes) {
    prefixReplies += n->server().stats().prefixReplies.load();
  }
  EXPECT_GT(prefixReplies, 0u);  // the rounds really did outgrow a datagram
  EXPECT_EQ(dht.routedStats().retriesAfterTimeout, 0u);
}

}  // namespace
}  // namespace lht::dht
