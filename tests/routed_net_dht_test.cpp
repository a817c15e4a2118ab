// RoutedNetDht over the SimHub transport twin, from both ways a client
// gets its first view:
//
//  * StaticCluster — NodeServers inline in one SimHub, the client given
//    their addresses as its launch set (Options::members). Deterministic:
//    no threads, no retransmits, and a node taken offline times out on a
//    short deadline. The StaticCluster, NetDhtReadSlot, NetDhtIndex,
//    NetDhtFleet and NetDhtBytes suites run here: Dht conformance (put/
//    get/remove/apply/batches/replica reads), applies from a read the
//    caller kept (the ReadSlot suites), failure mapping (offline
//    node -> DhtTimeoutError, silent replica holder -> DhtPeerDownError),
//    decorator stacking, the connection pool under concurrent callers, the
//    full LhtIndex against an oracle, and the exact wire bytes of warm
//    conditional reads.
//  * ServedCluster — overlay nodes running serve() loops on background
//    threads (the client's calls block inside settle(), so somebody must
//    pump the servers); virtual clocks make that spin fast without
//    wall-clock sleeps. The RoutedNetDht* suites run here: bootstrap
//    from a single seed, a launch-set client on the daemons' own ring,
//    warm one-hop routing, redirect-following across a membership
//    change (conditional reads included), and crash failover through
//    replica promotion — the deterministic twin of the kernel-UDP paths
//    bench_overlay measures.
//
// Cases that check the same behaviour run one body over both clusters.
#include "dht/routed_net_dht.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/varint.h"
#include "dht/decorators.h"
#include "lht/lht_index.h"
#include "net/sim_clock.h"
#include "net_index_check.h"
#include "overlay/overlay_node.h"
#include "range_campaign.h"
#include "rpc/node_server.h"
#include "rpc/sim_cluster.h"
#include "rpc/sim_transport.h"

namespace lht::dht {
namespace {

using overlay::OverlayNode;
using rpc::NetAddr;
using rpc::SimHub;
using rpc::SimTransport;
using rpc::wire::Op;

// ---------------------------------------------------------------------------
// Transport wrappers
// ---------------------------------------------------------------------------

/// The distinct requests a client sent, per opcode, and the bytes it
/// sent and received. A retransmit repeats its request id, so it is not
/// counted again as a request (its bytes are).
class RequestCounts {
 public:
  /// Bytes on the wire, both ways.
  struct Bytes {
    size_t datagrams = 0;
    size_t total = 0;
    /// `total` less each datagram's header: 4 fixed bytes and the request
    /// id varint, whose length varies with RpcClient's random first id.
    size_t body = 0;
  };

  void note(std::string_view datagram) {
    auto decoded = rpc::wire::decodeHeader(datagram);
    const auto* h = std::get_if<rpc::wire::Header>(&decoded);
    if (h == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    bytes_.datagrams += 1;
    bytes_.total += datagram.size();
    bytes_.body += datagram.size() - 4 - common::varintSize(h->requestId);
    if (!h->isReply) seen_[h->op].insert(h->requestId);
  }
  Bytes bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
  }
  size_t operator()(Op op) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = seen_.find(op);
    return it == seen_.end() ? 0 : it->second.size();
  }
  /// Requests of every opcode.
  size_t total() const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& [op, ids] : seen_) n += ids.size();
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::map<Op, std::set<rpc::u64>> seen_;
  Bytes bytes_;
};

/// A client endpoint that reports every datagram it sends or receives to
/// `counts`.
class CountingSim final : public rpc::Transport {
 public:
  CountingSim(std::unique_ptr<rpc::Transport> inner, RequestCounts& counts)
      : inner_(std::move(inner)), counts_(counts) {}
  bool send(const NetAddr& to, std::string_view payload) override {
    counts_.note(payload);
    return inner_->send(to, payload);
  }
  size_t receive(std::vector<rpc::Datagram>& out, rpc::u64 timeoutMs) override {
    const size_t n = inner_->receive(out, timeoutMs);
    for (size_t i = out.size() - n; i < out.size(); ++i) counts_.note(out[i].payload);
    return n;
  }
  rpc::u64 nowMs() override { return inner_->nowMs(); }
  [[nodiscard]] NetAddr localAddr() const override {
    return inner_->localAddr();
  }

 private:
  std::unique_ptr<rpc::Transport> inner_;
  RequestCounts& counts_;
};

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

/// `t`, reporting to `counts` when given.
std::unique_ptr<rpc::Transport> maybeCounted(std::unique_ptr<rpc::Transport> t,
                                             RequestCounts* counts) {
  if (counts == nullptr) return t;
  return std::make_unique<CountingSim>(std::move(t), *counts);
}

// ---------------------------------------------------------------------------
// Clusters
// ---------------------------------------------------------------------------

/// What the shared cases need from a cluster.
class AnyCluster {
 public:
  virtual ~AnyCluster() = default;
  /// A client ready for traffic; `counts`, when given, sees every request
  /// it sends.
  virtual std::unique_ptr<RoutedNetDht> client(size_t replication,
                                               RequestCounts* counts) = 0;
  /// Every node's store.
  virtual std::vector<rpc::NodeServer*> stores() = 0;
  /// Servers answer inline and the hub never loses a datagram, so
  /// per-datagram counts are exact (no retransmits, no re-run reads).
  [[nodiscard]] virtual bool exact() const = 0;
};

/// rpc::SimCluster's inline NodeServers on ports 5000..5000+N-1, and
/// clients given them as their launch set.
class StaticCluster final : public rpc::SimCluster, public AnyCluster {
 public:
  explicit StaticCluster(size_t n, rpc::SimHub::Options hopts = {})
      : SimCluster(n, 5000, hopts) {}

  std::unique_ptr<RoutedNetDht> makeDht(size_t replication = 1,
                                        common::u64 deadlineMs = 2000,
                                        RequestCounts* counts = nullptr) {
    RoutedNetDht::Options o;
    o.members = addrs;
    o.replication = replication;
    o.rpc.requestDeadlineMs = deadlineMs;
    o.rpc.initialRetransmitMs = 20;
    return std::make_unique<RoutedNetDht>(
        o, [this, counts] { return maybeCounted(hub.makeEndpoint(), counts); });
  }

  std::unique_ptr<RoutedNetDht> client(size_t replication,
                                       RequestCounts* counts) override {
    return makeDht(replication, 2000, counts);
  }
  std::vector<rpc::NodeServer*> stores() override {
    std::vector<rpc::NodeServer*> out;
    for (auto& s : servers) out.push_back(s.get());
    return out;
  }
  [[nodiscard]] bool exact() const override { return true; }

  /// Index of the server holding `key` in its primary map (put it first).
  size_t primaryOf(const std::string& key) const {
    for (size_t i = 0; i < servers.size(); ++i) {
      if (servers[i]->primaryValue(key).has_value()) return i;
    }
    ADD_FAILURE() << "no primary holds " << key;
    return 0;
  }

  /// Index of the first server holding anything in its replica map.
  size_t replicaHolder() const {
    for (size_t i = 0; i < servers.size(); ++i) {
      if (servers[i]->replicaKeyCount() > 0) return i;
    }
    ADD_FAILURE() << "no server holds a replica";
    return 0;
  }
};

constexpr rpc::u16 kBasePort = 6100;

/// N overlay nodes seeded with the same static launch set, each serving
/// on its own thread once serveAll() runs. Clients bootstrap from node 0.
class ServedCluster final : public AnyCluster {
 public:
  SimHub hub;
  std::vector<std::unique_ptr<ThrottledSim>> tx;
  std::vector<std::unique_ptr<OverlayNode>> nodes;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  explicit ServedCluster(size_t n, OverlayNode::Options base = {}) {
    for (size_t i = 0; i < n; ++i) {
      tx.push_back(std::make_unique<ThrottledSim>(
          hub.makeEndpoint(static_cast<rpc::u16>(kBasePort + i))));
    }
    const auto launchSet = overlay::launchTable(addrs());
    for (size_t i = 0; i < n; ++i) {
      OverlayNode::Options opts = base;
      opts.name = "served-" + std::to_string(i);
      nodes.push_back(std::make_unique<OverlayNode>(opts, *tx[i]));
      nodes[i]->seedMembership(launchSet);
    }
  }

  ~ServedCluster() override {
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }

  void serveAll() {
    for (auto& n : nodes) serveOne(n.get());
  }

  void serveOne(OverlayNode* p) {
    threads.emplace_back([this, p] { p->serve(stop); });
  }

  [[nodiscard]] NetAddr addr(size_t i) const { return tx[i]->localAddr(); }
  [[nodiscard]] std::vector<NetAddr> addrs() const {
    std::vector<NetAddr> out;
    for (size_t i = 0; i < tx.size(); ++i) out.push_back(addr(i));
    return out;
  }

  /// A fresh client endpoint, reporting to `counts` when given.
  RoutedNetDht::TransportFactory endpoints(RequestCounts* counts = nullptr) {
    return [this, counts] {
      return maybeCounted(std::make_unique<ThrottledSim>(hub.makeEndpoint()),
                          counts);
    };
  }

  std::unique_ptr<RoutedNetDht> client(size_t replication,
                                       RequestCounts* counts) override;
  std::vector<rpc::NodeServer*> stores() override {
    std::vector<rpc::NodeServer*> out;
    for (auto& n : nodes) out.push_back(&n->server());
    return out;
  }
  [[nodiscard]] bool exact() const override { return false; }
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
RoutedNetDht::Options patientClientOptions(const ServedCluster& c,
                                           size_t replication = 1) {
  RoutedNetDht::Options ro = clientOptions(c, replication);
  ro.rpc.requestDeadlineMs = 4'000'000;
  return ro;
}

std::unique_ptr<RoutedNetDht> ServedCluster::client(size_t replication,
                                                    RequestCounts* counts) {
  auto dht = std::make_unique<RoutedNetDht>(
      patientClientOptions(*this, replication), endpoints(counts));
  EXPECT_TRUE(dht->bootstrap(/*deadlineMs=*/20000));
  return dht;
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

Mutator appendTo(std::string suffix) {
  return [suffix = std::move(suffix)](std::optional<Value>& v) {
    v = v.value_or("") + suffix;
  };
}

// ---------------------------------------------------------------------------
// Shared cases
// ---------------------------------------------------------------------------

/// 25 puts, 25 gets and a multiGet over a stable view: every op routes
/// straight to its owner, exactly one hop per lookup, zero redirects — the
/// bench gate (<= 1.2 warm mean hops) with the slack removed.
void expectWarmOpsInOneHop(RoutedNetDht& dht) {
  for (int i = 0; i < 25; ++i) {
    dht.put("key-" + std::to_string(i), "val-" + std::to_string(i));
  }
  for (int i = 0; i < 25; ++i) {
    auto got = dht.get("key-" + std::to_string(i));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "val-" + std::to_string(i));
  }
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

/// One node holding 160 KB of values: each MultiGet reply answers the
/// two-entry prefix that fits a datagram, and the client re-sends the tail
/// until the round is done, without any regroup (no refresh, no redirect).
void expectMultiGetCompletesAcrossPrefixReplies(AnyCluster& c) {
  auto dht = c.client(1, nullptr);
  std::vector<Key> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(common::numbered("big", i));
    dht->put(keys.back(), std::string(20 * 1024, 'v') + std::to_string(i));
  }
  const auto before = dht->routedStats();
  auto out = dht->multiGet(keys);
  const auto after = dht->routedStats();
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(out[i].ok) << out[i].error;
    EXPECT_EQ(out[i].value, std::string(20 * 1024, 'v') + std::to_string(i));
  }
  EXPECT_EQ(after.requestsStarted - before.requestsStarted, 4u);
  EXPECT_EQ(after.timeouts, before.timeouts);
  EXPECT_EQ(after.refreshes, 0u);
  EXPECT_EQ(after.redirectsFollowed, 0u);
  const common::u64 prefixReplies =
      c.stores()[0]->stats().prefixReplies.load();
  if (c.exact()) {
    EXPECT_EQ(prefixReplies, 3u);
    EXPECT_EQ(after.retransmits, before.retransmits);
  } else {
    // A retransmitted read runs again, so racing server threads may
    // answer some chunk twice.
    EXPECT_GE(prefixReplies, 3u);
  }
}

/// A bucket no datagram can carry fails alone and at once, in multiGet,
/// get and multiApply's snapshot phase.
void expectOversizedEntryFailsAloneAndFast(AnyCluster& c) {
  auto dht = c.client(1, nullptr);
  dht->put("a", "1");
  dht->put("b", "2");
  dht->put("c", "3");
  // Installed server-side: no request could carry it either.
  c.stores()[0]->installPrimary("huge", 1,
                                std::string(rpc::kMaxDatagramBytes, 'x'));
  const auto before = dht->routedStats();
  auto out = dht->multiGet({"a", "huge", "b", "c"});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_FALSE(out[1].ok);
  EXPECT_NE(out[1].error.find("too_large"), std::string::npos) << out[1].error;
  EXPECT_EQ(out[0].value, "1");
  EXPECT_EQ(out[2].value, "2");
  EXPECT_EQ(out[3].value, "3");
  try {
    (void)dht->get("huge");
    ADD_FAILURE() << "an oversized bucket read must fail";
  } catch (const DhtTimeoutError& e) {
    ADD_FAILURE() << "failed by timeout, not at once: " << e.what();
  } catch (const DhtError& e) {
    EXPECT_NE(std::string(e.what()).find("too_large"), std::string::npos);
  }
  // multiApply's snapshot phase reads through the same path.
  bool ranOnHuge = false;
  auto applied = dht->multiApply(
      {ApplyRequest{"huge", [&](std::optional<Value>&) { ranOnHuge = true; }},
       ApplyRequest{"a", [](std::optional<Value>& v) { v = "1+"; }}});
  EXPECT_FALSE(applied[0].ok);
  EXPECT_FALSE(ranOnHuge);
  EXPECT_TRUE(applied[1].ok);
  EXPECT_EQ(dht->get("a"), "1+");
  // Nothing waited on a deadline: every failure was an answer. A timeout
  // would have regrouped the entry (and refreshed the view) or been
  // retried.
  const auto after = dht->routedStats();
  EXPECT_EQ(after.timeouts, before.timeouts);
  EXPECT_EQ(after.refreshes, 0u);
  EXPECT_EQ(after.retriesAfterTimeout, 0u);
  if (c.exact()) {
    EXPECT_EQ(after.retransmits, before.retransmits);
  }
}

// applyFrom(): an apply that starts from the caller's copy of the value
// (here a get() just before), its CAS guarded by the copy's digest. The
// ReadSlot suites run these on both clusters.

void expectGetThenApplySavesTheGetRound(AnyCluster& c) {
  RequestCounts sent;
  auto dht = c.client(/*replication=*/2, &sent);
  dht->put("k", "v");
  struct Sent { size_t get, cas, replicaPut, total; };
  const auto now = [&] {
    return Sent{sent(Op::Get), sent(Op::Cas), sent(Op::ReplicaPut), sent.total()};
  };
  // Only an exact cluster pins the total too: on a threaded one a gossip
  // hint's version bump can add a view pull.
  const auto expectSent = [&](const Sent& before, size_t get, size_t cas) {
    const Sent after = now();
    EXPECT_EQ(after.get - before.get, get);
    EXPECT_EQ(after.cas - before.cas, cas);
    EXPECT_EQ(after.replicaPut - before.replicaPut, 1u);
    if (c.exact()) {
      EXPECT_EQ(after.total - before.total, get + cas + 1);
    }
  };
  // No start: GET, CAS, replica push.
  Sent before = now();
  EXPECT_TRUE(dht->apply("k", appendTo("+1")));
  expectSent(before, 1, 1);
  // A start equal to the stored value: the CAS and the replica push only.
  const auto read = dht->get("k");
  ASSERT_EQ(read, "v+1");
  before = now();
  EXPECT_TRUE(dht->applyFrom("k", *read, appendTo("+2")));
  expectSent(before, 0, 1);
  EXPECT_EQ(dht->get("k"), "v+1+2");
  EXPECT_EQ(dht->getReplica("k", 0), "v+1+2");
  const auto rs = dht->routedStats();
  EXPECT_EQ(rs.appliesFromStart, 1u);
  EXPECT_EQ(rs.startConflicts, 0u);
  // Still one hop per DHT-lookup.
  EXPECT_EQ(dht->stats().hops.load(), dht->stats().lookups.load());
}

void expectWriteBetweenGetAndApplyConflictsAndRerunsOnFreshState(
    AnyCluster& c) {
  RequestCounts sent;
  auto dht = c.client(1, &sent);
  auto rival = c.client(1, nullptr);
  dht->put("k", "base");
  const auto read = dht->get("k");
  ASSERT_EQ(read, "base");
  rival->put("k", "rival");
  std::vector<std::string> seen;
  const size_t gets = sent(Op::Get);
  EXPECT_TRUE(dht->applyFrom("k", *read, [&](std::optional<Value>& v) {
    seen.push_back(v.value_or("<absent>"));
    v = v.value_or("") + "+applied";
  }));
  // The first run used the stale start; the CAS conflict carried the
  // rival's value, with no GET round, and the stored value is the mutator
  // applied to it.
  EXPECT_EQ(seen, (std::vector<std::string>{"base", "rival"}));
  EXPECT_EQ(sent(Op::Get), gets);
  EXPECT_EQ(dht->get("k"), "rival+applied");
  const auto rs = dht->routedStats();
  EXPECT_EQ(rs.appliesFromStart, 1u);
  EXPECT_EQ(rs.startConflicts, 1u);
}

/// The key vanishes between the read and the apply: the write lands on
/// the absent state, and applyFrom reports that the key did not exist.
void expectErasedAfterTheReadRerunsOnAbsent(AnyCluster& c) {
  auto dht = c.client(1, nullptr);
  auto rival = c.client(1, nullptr);
  dht->put("k", "base");
  const auto read = dht->get("k");
  ASSERT_TRUE(read.has_value());
  ASSERT_TRUE(rival->remove("k"));
  std::vector<std::string> seen;
  EXPECT_FALSE(dht->applyFrom("k", *read, [&](std::optional<Value>& v) {
    seen.push_back(v.value_or("<absent>"));
    v = v.value_or("") + "!";
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"base", "<absent>"}));
  EXPECT_EQ(dht->get("k"), "!");
}

/// ROADMAP item 10's first probe case: a rival erases the key the client
/// read, creates it again and writes it back up to the version the client
/// read, with other bytes. A version guard would let the client's write
/// land on the new bytes; the digest guard conflicts and the mutator runs
/// on the rival's value.
void expectRecreatedKeyAtTheSameVersionRerunsOnTheNewBytes(AnyCluster& c) {
  auto dht = c.client(1, nullptr);
  auto rival = c.client(1, nullptr);
  dht->put("k", "old-1");
  dht->put("k", "old-2");
  const auto read = dht->get("k");
  ASSERT_EQ(read, "old-2");
  ASSERT_TRUE(rival->remove("k"));
  rival->put("k", "new-1");
  rival->put("k", "new-2");
  size_t holders = 0;
  for (rpc::NodeServer* s : c.stores()) {
    if (auto rec = s->primaryRecord("k")) {
      holders += 1;
      EXPECT_EQ(rec->first, 2u);  // back at the version the client read
    }
  }
  ASSERT_EQ(holders, 1u);
  std::vector<std::string> seen;
  EXPECT_TRUE(dht->applyFrom("k", *read, [&](std::optional<Value>& v) {
    seen.push_back(v.value_or("<absent>"));
    v = v.value_or("") + "+A";
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"old-2", "new-2"}));
  EXPECT_EQ(dht->get("k"), "new-2+A");
}

void expectCreateIfAbsentRereadsBeforeTrustingAPresentRead(AnyCluster& c) {
  RequestCounts sent;
  auto dht = c.client(1, &sent);
  auto rival = c.client(1, nullptr);
  dht->put("k", "old");
  const auto read = dht->get("k");
  ASSERT_EQ(read, "old");
  ASSERT_TRUE(rival->remove("k"));
  // On the start, the key is present and the mutator changes nothing. That
  // verdict must not stand on a value from before the call: the loop
  // re-reads, finds the key gone, and the mutator creates it.
  int runs = 0;
  const auto createIfAbsent = [&](std::optional<Value>& v) {
    ++runs;
    if (!v.has_value()) v = "created";
  };
  EXPECT_FALSE(dht->applyFrom("k", *read, createIfAbsent));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(dht->get("k"), "created");

  // On a start still stored, the re-read carries its digest and comes
  // back `unchanged`: the outcome stands with no value shipped and no CAS.
  const auto current = dht->get("k");
  const size_t gets = sent(Op::Get);
  const size_t cas = sent(Op::Cas);
  const auto rs0 = dht->routedStats();
  runs = 0;
  EXPECT_TRUE(dht->applyFrom("k", *current, createIfAbsent));
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sent(Op::Get) - gets, 1u);
  EXPECT_EQ(sent(Op::Cas), cas);
  const auto rs1 = dht->routedStats();
  EXPECT_EQ(rs1.conditionalReads - rs0.conditionalReads, 1u);
  EXPECT_EQ(rs1.unchangedReads - rs0.unchangedReads, 1u);
}

/// A start that was never stored costs a conflict round and ends where an
/// apply with no start ends, on a present key and on an absent one.
void expectGarbageStartEndsLikeNoStart(AnyCluster& c) {
  auto dht = c.client(1, nullptr);
  const std::string garbage("\x00\xff not a stored value", 22);
  dht->put("a", "v");
  dht->put("b", "v");
  EXPECT_TRUE(dht->apply("a", appendTo("+x")));
  EXPECT_TRUE(dht->applyFrom("b", garbage, appendTo("+x")));
  EXPECT_EQ(dht->get("b"), "v+x");
  EXPECT_EQ(dht->get("a"), dht->get("b"));
  EXPECT_FALSE(dht->apply("c", appendTo("+x")));
  EXPECT_FALSE(dht->applyFrom("d", garbage, appendTo("+x")));
  EXPECT_EQ(dht->get("d"), "+x");
  EXPECT_EQ(dht->get("c"), dht->get("d"));
  EXPECT_EQ(dht->routedStats().startConflicts, 2u);
}

// ---------------------------------------------------------------------------
// Static launch set over inline NodeServers
// ---------------------------------------------------------------------------

TEST(StaticCluster, PutGetRemove) {
  StaticCluster c(4);
  auto dht = c.makeDht();
  EXPECT_FALSE(dht->get("a").has_value());
  dht->put("a", "1");
  dht->put("b", std::string("\x00\xff", 2));
  EXPECT_EQ(dht->get("a"), "1");
  EXPECT_EQ(dht->get("b"), std::string("\x00\xff", 2));
  EXPECT_EQ(dht->size(), 2u);
  EXPECT_TRUE(dht->remove("a"));
  EXPECT_FALSE(dht->remove("a"));
  EXPECT_FALSE(dht->get("a").has_value());
  EXPECT_EQ(dht->size(), 1u);
}

TEST(StaticCluster, ConcurrentClientsGrowPoolSafely) {
  // A cluster whose servers hold each RPC open for ~1ms of wall time, so
  // concurrent callers' leases genuinely overlap: the pool must grow, and
  // every thread's first Lease push_back can reallocate conns_ while
  // other threads are mid-RPC — the reallocation window each Lease must
  // pin its Conn* across (the fleet-warmup shape lht_net_trace drives).
  rpc::SimHub hub;
  std::vector<std::unique_ptr<rpc::NodeServer>> servers;
  RoutedNetDht::Options o;
  for (rpc::u16 port : {5100, 5101}) {
    servers.push_back(std::make_unique<rpc::NodeServer>());
    hub.registerHandler(
        port, [srv = servers.back().get()](
                  const rpc::Datagram& d,
                  const std::function<void(std::string)>& reply) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          std::string out = srv->handle(d.from, d.payload);
          if (!out.empty()) reply(std::move(out));
        });
    o.members.push_back(NetAddr{0, port});
  }
  auto dht =
      std::make_unique<RoutedNetDht>(o, [&hub] { return hub.makeEndpoint(); });

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dht, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            common::numbered("t", t) + "-" + std::to_string(i);
        dht->put(key, key);
        EXPECT_EQ(dht->get(key), key);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(dht->size(), size_t{kThreads} * kOpsPerThread);
  EXPECT_GE(dht->routedStats().connections, 2u);
}

TEST(StaticCluster, ApplyCreatesMutatesErases) {
  StaticCluster c(4);
  auto dht = c.makeDht();
  // Create through apply (expect-absent CAS).
  EXPECT_FALSE(dht->apply("k", [](std::optional<Value>& v) {
    EXPECT_FALSE(v.has_value());
    v = "1";
  }));
  EXPECT_EQ(dht->get("k"), "1");
  // Mutate.
  EXPECT_TRUE(dht->apply("k", [](std::optional<Value>& v) {
    ASSERT_TRUE(v.has_value());
    *v += "+2";
  }));
  EXPECT_EQ(dht->get("k"), "1+2");
  // A mutator that leaves the value untouched is a no-op round.
  EXPECT_TRUE(dht->apply("k", [](std::optional<Value>&) {}));
  // Erase through apply.
  EXPECT_TRUE(dht->apply("k", [](std::optional<Value>& v) { v.reset(); }));
  EXPECT_FALSE(dht->get("k").has_value());
}

TEST(StaticCluster, ApplyRetriesCasConflict) {
  StaticCluster c(2);
  auto dht = c.makeDht();
  auto rival = c.makeDht();
  dht->put("k", "base");
  // The mutator's first run races a rival write between the GET snapshot
  // and the CAS: the CAS conflicts, the conflict reply carries the
  // rival's value, and the retried mutator sees it.
  int runs = 0;
  EXPECT_TRUE(dht->apply("k", [&](std::optional<Value>& v) {
    ASSERT_TRUE(v.has_value());
    if (runs++ == 0) {
      EXPECT_EQ(*v, "base");
      rival->put("k", "rival");
    }
    *v += "+applied";
  }));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(dht->get("k"), "rival+applied");
}

TEST(StaticCluster, MultiGetBatchesOneDatagramPerNode) {
  StaticCluster c(4);
  auto dht = c.makeDht();
  std::vector<Key> keys;
  for (int i = 0; i < 32; ++i) {
    keys.push_back(common::numbered("key", i));
    if (i % 2 == 0) dht->put(keys.back(), common::numbered("v", i));
  }
  const auto before = dht->routedStats();
  auto outcomes = dht->multiGet(keys);
  const auto after = dht->routedStats();
  ASSERT_EQ(outcomes.size(), keys.size());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    if (i % 2 == 0) {
      EXPECT_EQ(outcomes[i].value, common::numbered("v", i));
    } else {
      EXPECT_FALSE(outcomes[i].value.has_value());
    }
  }
  // The whole 32-key round cost at most one datagram per node (no
  // retransmits in a clean hub) — not one per key.
  EXPECT_EQ(after.retransmits, before.retransmits);
  EXPECT_LE(after.datagramsSent - before.datagramsSent, c.servers.size());
}

TEST(StaticCluster, MultiGetCompletesAcrossPrefixReplies) {
  StaticCluster c(1);
  expectMultiGetCompletesAcrossPrefixReplies(c);
}

TEST(StaticCluster, OversizedEntryFailsAloneAndFast) {
  StaticCluster c(1);
  expectOversizedEntryFailsAloneAndFast(c);
}

TEST(StaticCluster, MultiApplyBatchesAndReportsExistence) {
  StaticCluster c(4);
  auto dht = c.makeDht();
  dht->put("old0", "x");
  dht->put("old1", "y");
  std::vector<ApplyRequest> reqs;
  for (const char* k : {"old0", "old1", "new0", "new1"}) {
    reqs.push_back(ApplyRequest{
        k, [](std::optional<Value>& v) { v = v.value_or("") + "!"; }});
  }
  const auto before = dht->routedStats();
  auto outcomes = dht->multiApply(reqs);
  const auto after = dht->routedStats();
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok && outcomes[0].existed);
  EXPECT_TRUE(outcomes[1].ok && outcomes[1].existed);
  EXPECT_TRUE(outcomes[2].ok && !outcomes[2].existed);
  EXPECT_TRUE(outcomes[3].ok && !outcomes[3].existed);
  EXPECT_EQ(dht->get("old0"), "x!");
  EXPECT_EQ(dht->get("new1"), "!");
  // One GET round + one CAS round, each <= one datagram per node.
  EXPECT_LE(after.datagramsSent - before.datagramsSent, 2 * c.servers.size());
}

TEST(StaticCluster, ReplicationServesReplicaReads) {
  StaticCluster c(4);
  auto dht = c.makeDht(/*replication=*/3);
  EXPECT_EQ(dht->replicaFanout(), 2u);
  dht->put("k", "v");
  EXPECT_EQ(dht->getReplica("k", 0), "v");
  EXPECT_EQ(dht->getReplica("k", 1), "v");
  EXPECT_THROW((void)dht->getReplica("k", 2), DhtError);
  // Exactly one primary and two replica copies across the cluster.
  size_t primaries = 0, replicas = 0;
  for (const auto& s : c.servers) {
    primaries += s->primaryKeyCount();
    replicas += s->replicaKeyCount();
  }
  EXPECT_EQ(primaries, 1u);
  EXPECT_EQ(replicas, 2u);
  // remove() drops the replica copies too.
  EXPECT_TRUE(dht->remove("k"));
  EXPECT_FALSE(dht->getReplica("k", 0).has_value());
  EXPECT_FALSE(dht->getReplica("k", 1).has_value());
}

TEST(StaticCluster, OfflineClusterTimesOut) {
  StaticCluster c(2);
  auto dht = c.makeDht(/*replication=*/1, /*deadlineMs=*/200);
  dht->put("k", "v");
  for (const auto& a : c.addrs) c.hub.setOnline(a.port, false);
  EXPECT_THROW((void)dht->get("k"), DhtTimeoutError);
  EXPECT_THROW(dht->put("k", "w"), DhtTimeoutError);
  EXPECT_GT(dht->routedStats().timeouts, 0u);
  // Batch entries fail individually instead of throwing.
  auto outcomes = dht->multiGet({"k", "other"});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  // Back online: the same client recovers with no reconnection step.
  for (const auto& a : c.addrs) c.hub.setOnline(a.port, true);
  EXPECT_EQ(dht->get("k"), "v");
}

TEST(StaticCluster, SilentReplicaHolderIsPeerDown) {
  StaticCluster c(3);
  auto dht = c.makeDht(/*replication=*/2, /*deadlineMs=*/200);
  dht->put("k", "v");
  c.hub.setOnline(c.addrs[c.replicaHolder()].port, false);
  EXPECT_THROW((void)dht->getReplica("k", 0), DhtPeerDownError);
  // The primary is untouched.
  EXPECT_EQ(dht->get("k"), "v");
}

TEST(StaticCluster, FailoverRescuesReadsFromDeadOwner) {
  StaticCluster c(3);
  auto dht = c.makeDht(/*replication=*/2, /*deadlineMs=*/200);
  dht->put("k", "v");
  net::SimClock clock;
  FailoverDht::Options fopts;
  fopts.failover = true;
  FailoverDht failover(*dht, clock, fopts);
  c.hub.setOnline(c.addrs[c.primaryOf("k")].port, false);
  // The primary read times out; the replica holder answers the rescue.
  EXPECT_EQ(failover.get("k"), "v");
  EXPECT_EQ(failover.rescues(), 1u);
  EXPECT_GE(failover.failoverAttempts(), 1u);
}

TEST(StaticCluster, RetryingStackSurvivesHeavyLoss) {
  rpc::SimHub::Options hopts;
  hopts.dropProbability = 0.15;
  hopts.duplicateProbability = 0.05;
  hopts.reorderProbability = 0.1;
  hopts.seed = 7;
  StaticCluster c(3, hopts);
  auto dht = c.makeDht(/*replication=*/2, /*deadlineMs=*/5000);
  RetryingDht retrying(*dht, /*maxAttempts=*/4);
  for (int i = 0; i < 60; ++i) {
    const std::string k = common::numbered("k", i);
    retrying.put(k, std::to_string(i));
    EXPECT_EQ(retrying.get(k), std::to_string(i)) << k;
  }
  // The loss was real (the RPC layer absorbed it below the Dht surface).
  EXPECT_GT(dht->routedStats().retransmits, 0u);
}

TEST(NetDhtReadSlot, GetThenApplySavesTheGetRound) {
  StaticCluster c(3);
  expectGetThenApplySavesTheGetRound(c);
}

TEST(NetDhtReadSlot, WriteBetweenGetAndApplyConflictsAndRerunsOnFreshState) {
  StaticCluster c(2);
  expectWriteBetweenGetAndApplyConflictsAndRerunsOnFreshState(c);
}

TEST(NetDhtReadSlot, ErasedAfterTheReadRerunsOnAbsent) {
  StaticCluster c(2);
  expectErasedAfterTheReadRerunsOnAbsent(c);
}

TEST(NetDhtReadSlot, RecreatedKeyAtTheSameVersionRerunsOnTheNewBytes) {
  StaticCluster c(2);
  expectRecreatedKeyAtTheSameVersionRerunsOnTheNewBytes(c);
}

TEST(NetDhtReadSlot, CreateIfAbsentRereadsBeforeTrustingAPresentRead) {
  StaticCluster c(2);
  expectCreateIfAbsentRereadsBeforeTrustingAPresentRead(c);
}

TEST(NetDhtReadSlot, GarbageStartEndsLikeNoStart) {
  StaticCluster c(2);
  expectGarbageStartEndsLikeNoStart(c);
}

TEST(NetDhtReadSlot, ConcurrentStartsLoseNoIncrement) {
  // Every thread reads a shared counter and increments it through an
  // apply from its read: each conflicts when another thread got there
  // first and re-runs on the value the conflict carries, and no increment
  // is lost.
  StaticCluster c(2);
  RoutedNetDht::Options o;
  o.members = c.addrs;
  o.casRetries = 1000;  // contention is the point here, not its bound
  auto dht =
      std::make_unique<RoutedNetDht>(o, [&c] { return c.hub.makeEndpoint(); });
  dht->put("counter", "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 200;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dht, &ready, t] {
      const std::string own = "own-" + std::to_string(t);
      // Start together, so the reads and applies interleave.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kIncrements; ++i) {
        const auto read = dht->get("counter");
        EXPECT_TRUE(dht->applyFrom("counter", read.value(), [](std::optional<Value>& v) {
          v = std::to_string(std::stoi(v.value()) + 1);
        }));
        dht->apply(own, appendTo("x"));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(dht->get("counter"), std::to_string(kThreads * kIncrements));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(dht->get("own-" + std::to_string(t)),
              std::string(kIncrements, 'x'));
  }
  const auto rs = dht->routedStats();
  EXPECT_EQ(rs.appliesFromStart, static_cast<common::u64>(kThreads * kIncrements));
}

// LhtIndex end-to-end over the static cluster.

std::vector<index::Record> distinctRecords(size_t n, common::u64 seed) {
  common::Pcg32 rng(seed);
  std::set<double> used;
  std::vector<index::Record> recs;
  while (recs.size() < n) {
    const double k = rng.nextDouble();
    if (k <= 0.0 || k >= 1.0 || !used.insert(k).second) continue;
    recs.push_back(index::Record{k, common::numbered("p", recs.size())});
  }
  return recs;
}

// Conditional reads: a reader's held copies go stale under a writer.

core::LhtIndex::Options cachedIndexOptions(common::u64 clientSeed, bool attach) {
  core::LhtIndex::Options o;
  o.thetaSplit = 8;
  o.useLeafCache = true;
  o.cacheDecodedBuckets = true;
  o.crashConsistentSplits = true;
  o.attachExisting = attach;
  o.clientSeed = clientSeed;
  return o;
}

/// A key strictly inside `leaf`'s interval, at fraction `at` of it.
double keyIn(const core::LeafBucket& leaf, double at) {
  const common::Interval iv = leaf.label.interval();
  return iv.lo + (iv.hi - iv.lo) * at;
}

/// Five readers warm their leaf caches and bucket stores on a preload.
/// Then a writer inserts into one of their leaves, splits another and adds
/// a new maximum. Each reader then runs one read-only op that sends the
/// digests of copies now stale, and must see the new records: find, a
/// planned range, a range with a cold leaf cache, successorQuery and
/// maxRecord.
void expectStaleCopiesAreRefetched(AnyCluster& c) {
  auto writerDht = c.client(1, nullptr);
  auto readerDht = c.client(1, nullptr);
  core::LhtIndex writer(*writerDht, cachedIndexOptions(1, false));
  std::map<double, std::string> oracle;
  for (const auto& r : distinctRecords(60, 17)) {
    ASSERT_TRUE(writer.insert(r).ok);
    oracle[r.key] = r.payload;
  }
  const auto expectRange = [&](core::LhtIndex& idx, double lo, double hi) {
    std::vector<std::pair<double, std::string>> want(oracle.lower_bound(lo),
                                                     oracle.lower_bound(hi));
    std::vector<std::pair<double, std::string>> got;
    for (const auto& r : idx.rangeQuery(lo, hi).records) got.emplace_back(r.key, r.payload);
    EXPECT_EQ(got, want) << "[" << lo << ", " << hi << ")";
  };

  std::vector<std::unique_ptr<core::LhtIndex>> readers;
  for (common::u64 i = 0; i < 5; ++i) {
    readers.push_back(
        std::make_unique<core::LhtIndex>(*readerDht, cachedIndexOptions(2 + i, true)));
    expectRange(*readers.back(), 0.0, 1.0);  // cold: fills both caches
  }
  // A repeat sweep is planned from the cache, and the owners revalidate
  // every copy it holds.
  const auto before = readerDht->routedStats();
  expectRange(*readers[0], 0.0, 1.0);
  const auto after = readerDht->routedStats();
  EXPECT_GT(after.conditionalReads, before.conditionalReads);
  EXPECT_EQ(after.unchangedReads - before.unchangedReads,
            after.conditionalReads - before.conditionalReads);

  // Leaf `grown` takes one record and does not split; leaf `split` takes
  // records until it splits; a new maximum lands in the rightmost leaf.
  std::vector<core::LeafBucket> leaves;
  writer.forEachBucket([&](const core::LeafBucket& b) { leaves.push_back(b); });
  ASSERT_GE(leaves.size(), 4u);
  const auto fewest = std::min_element(
      leaves.begin(), leaves.end(),
      [](const auto& a, const auto& b) { return a.records.size() < b.records.size(); });
  const core::LeafBucket grown = *fewest;
  const core::LeafBucket split = leaves[fewest == leaves.begin() ? 1 : 0];
  const index::Record intoGrown{keyIn(grown, 0.37), "grown"};
  auto res = writer.insert(intoGrown);
  ASSERT_TRUE(res.ok);
  ASSERT_FALSE(res.splitOrMerged);
  oracle[intoGrown.key] = intoGrown.payload;
  std::vector<index::Record> intoSplit;
  for (int j = 0; j < 16; ++j) {
    intoSplit.push_back(index::Record{keyIn(split, (j + 0.55) / 16), common::numbered("split", j)});
    res = writer.insert(intoSplit.back());
    ASSERT_TRUE(res.ok);
    oracle[intoSplit.back().key] = intoSplit.back().payload;
    if (res.splitOrMerged) break;
  }
  ASSERT_TRUE(res.splitOrMerged) << "leaf " << split.label.str() << " never split";
  ASSERT_NE(writer.lookup(split.label.interval().lo).bucket->label, split.label);
  const index::Record newMax{(oracle.rbegin()->first + 1.0) / 2, "max"};
  ASSERT_TRUE(writer.insert(newMax).ok);
  oracle[newMax.key] = newMax.payload;

  // Each check below runs whatever the others found, so a stale answer
  // shows in every op that served one.
  const auto payloadOf = [](const index::FindResult& f) {
    return f.record.has_value() ? f.record->payload : std::string("<absent>");
  };
  // find: the cached locations now name changed or moved buckets.
  for (const index::Record& r : intoSplit) {
    EXPECT_EQ(payloadOf(readers[0]->find(r.key)), r.payload) << "find " << r.key;
  }
  for (const index::Record& r : {intoGrown, newMax}) {
    EXPECT_EQ(payloadOf(readers[0]->find(r.key)), r.payload) << "find " << r.key;
  }
  // A range planned from the cache.
  const common::u64 planned = readers[1]->leafCache().hits();
  expectRange(*readers[1], 0.0, 1.0);
  EXPECT_GT(readers[1]->leafCache().hits(), planned);
  // A range with no cached locations, only held buckets: Alg. 4's jump
  // and Alg. 3's rounds.
  readers[2]->leafCache().clear();
  expectRange(*readers[2], std::min(grown.label.interval().lo, split.label.interval().lo),
              std::max(grown.label.interval().hi, split.label.interval().hi));
  // The order-statistic walks: the successor of a point just below the
  // new record is that record.
  const auto at = oracle.find(intoGrown.key);
  const double below = at == oracle.begin() ? 0.0 : std::prev(at)->first;
  EXPECT_EQ(payloadOf(readers[3]->successorQuery((below + intoGrown.key) / 2)),
            intoGrown.payload);
  EXPECT_EQ(payloadOf(readers[3]->successorQuery(intoSplit.back().key)),
            intoSplit.back().payload);
  EXPECT_EQ(payloadOf(readers[4]->maxRecord()), newMax.payload);
}

TEST(NetDhtIndex, LhtMatchesOracle) {
  StaticCluster c(4);
  auto dht = c.makeDht(/*replication=*/2);
  core::LhtIndex::Options iopts;
  iopts.thetaSplit = 8;
  iopts.useLeafCache = true;
  iopts.cacheDecodedBuckets = true;
  core::LhtIndex idx(*dht, iopts);

  const auto recs = distinctRecords(150, 91);
  std::map<double, std::string> oracle;
  for (const auto& r : recs) {
    ASSERT_TRUE(idx.insert(r).ok);
    oracle[r.key] = r.payload;
  }
  // Erase every third record.
  for (size_t i = 0; i < recs.size(); i += 3) {
    EXPECT_TRUE(idx.erase(recs[i].key).ok);
    oracle.erase(recs[i].key);
  }
  EXPECT_EQ(idx.recordCount(), oracle.size());
  for (const auto& r : recs) {
    auto found = idx.find(r.key);
    auto it = oracle.find(r.key);
    if (it == oracle.end()) {
      EXPECT_FALSE(found.record.has_value()) << r.key;
    } else {
      ASSERT_TRUE(found.record.has_value()) << r.key;
      EXPECT_EQ(found.record->payload, it->second);
    }
  }
  // Range query versus the oracle.
  auto range = idx.rangeQuery(0.25, 0.75);
  std::vector<double> want;
  for (const auto& [k, v] : oracle) {
    if (k >= 0.25 && k < 0.75) want.push_back(k);
  }
  ASSERT_EQ(range.records.size(), want.size());
  std::sort(range.records.begin(), range.records.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(range.records[i].key, want[i]);
  }
  EXPECT_EQ(idx.minRecord().record->key, oracle.begin()->first);
  EXPECT_EQ(idx.maxRecord().record->key, oracle.rbegin()->first);
}

TEST(NetDhtIndex, Theta100BulkLoadAndSweepsMatchOracle) {
  StaticCluster c(4);
  auto dht = c.makeDht(/*replication=*/2);
  testing_support::expectBulkLoadAndSweepsMatchOracle(*dht);
  u64 prefixReplies = 0;
  for (const auto& s : c.servers) prefixReplies += s->stats().prefixReplies.load();
  EXPECT_GT(prefixReplies, 0u);  // the rounds really did outgrow a datagram
  EXPECT_EQ(dht->routedStats().timeouts, 0u);
}

TEST(NetDhtIndex, DeadReplicaHolderDropsLeaseKeepsLocation) {
  StaticCluster c(3);
  auto dht = c.makeDht(/*replication=*/2, /*deadlineMs=*/200);
  core::LhtIndex::Options iopts;
  iopts.thetaSplit = 8;
  iopts.useLeafCache = true;
  iopts.leasedReads = true;
  iopts.leaseTtlMs = 1'000'000;  // no clock: epoch validation only
  core::LhtIndex idx(*dht, iopts);
  const auto recs = distinctRecords(40, 5);
  for (const auto& r : recs) idx.insert(r);
  const double hotKey = recs[0].key;
  ASSERT_TRUE(idx.find(hotKey).record.has_value());  // location + lease

  // Kill exactly the server holding the hot leaf's replica copy: the
  // lease's replica turns now hit silence and surface as DhtPeerDownError
  // from RoutedNetDht::getReplica, while the leaf's primary stays up.
  const std::string leafKey = idx.lookup(hotKey).dhtKey;
  bool killed = false;
  for (size_t i = 0; i < c.servers.size(); ++i) {
    if (c.servers[i]->replicaValue(leafKey).has_value()) {
      c.hub.setOnline(c.addrs[i].port, false);
      killed = true;
    }
  }
  ASSERT_TRUE(killed);
  // Reads keep succeeding: the replica turn drops the lease (not the
  // location) and the primary turn serves and re-grants.
  const common::u64 missesBefore = idx.leafCache().misses();
  for (int i = 0; i < 8; ++i) {
    auto r = idx.find(hotKey);
    ASSERT_TRUE(r.record.has_value()) << "read " << i;
    EXPECT_EQ(r.record->payload, recs[0].payload);
  }
  EXPECT_GT(idx.leafCache().leaseDrops(), 0u);
  EXPECT_EQ(idx.leafCache().misses(), missesBefore);
}

/// Forwards everything to an inner Dht but makes every replica read hit a
/// deadline: a substrate whose replica reads time out (DhtTimeoutError)
/// instead of reporting the holder down, the shape the DhtTimeoutError
/// branch of tryLeaseRead exists for.
class TimeoutReplicaDht final : public ForwardingDht {
 public:
  explicit TimeoutReplicaDht(Dht& inner) : ForwardingDht(inner) {}

 private:
  void onCall(Call& call, const Forward& forward) override {
    if (call.op == DhtOp::GetReplica) {
      throw DhtTimeoutError("replica read deadline for \"" + call.key + "\"");
    }
    forward();
  }
};

TEST(NetDhtIndex, ReplicaTimeoutDropsLeaseAndAdvancesRotation) {
  StaticCluster c(3);
  auto dht = c.makeDht(/*replication=*/2);
  TimeoutReplicaDht flaky(*dht);
  core::LhtIndex::Options iopts;
  iopts.thetaSplit = 8;
  iopts.useLeafCache = true;
  iopts.leasedReads = true;
  iopts.leaseTtlMs = 1'000'000;
  core::LhtIndex idx(flaky, iopts);
  const auto recs = distinctRecords(40, 6);
  for (const auto& r : recs) idx.insert(r);
  const double hotKey = recs[0].key;
  ASSERT_TRUE(idx.find(hotKey).record.has_value());  // location + lease
  const common::u64 missesBefore = idx.leafCache().misses();
  for (int i = 0; i < 10; ++i) {
    auto r = idx.find(hotKey);
    ASSERT_TRUE(r.record.has_value()) << "read " << i;
    EXPECT_EQ(r.record->payload, recs[0].payload);
  }
  // Timeouts were counted on their own ledger, the lease was dropped each
  // time (never the location), and because note() preserves the rotation
  // cursor across re-grants the cursor kept moving instead of hammering
  // slot 0 forever.
  EXPECT_GT(idx.leafCache().leaseTimeouts(), 0u);
  EXPECT_EQ(idx.leafCache().leaseTimeouts(), idx.leafCache().leaseDrops());
  EXPECT_EQ(idx.leafCache().misses(), missesBefore);
  EXPECT_EQ(idx.leafCache().leaseHits(), 0u);  // every replica turn timed out
  EXPECT_GT(idx.leafCache().primaryHits(), 0u);
}

TEST(NetDhtIndex, StaleCopiesAreRefetchedByEveryReadOnlyOp) {
  StaticCluster c(4);
  expectStaleCopiesAreRefetched(c);
}

// Readers and writers of one shared client, checked against the history.
TEST(NetDhtFleet, PlannedRangeCampaignOverOneSharedClient) {
  StaticCluster c(4);
  auto dht = c.makeDht();
  testing_support::runPlannedRangeCampaign(7, *dht, /*cacheDecodedBuckets=*/true);
  const auto rs = dht->routedStats();
  EXPECT_GT(rs.unchangedReads, 0u);
  EXPECT_GT(rs.conditionalReads, rs.unchangedReads);  // the writers changed some
  EXPECT_EQ(rs.timeouts, 0u);
}

// ---------------------------------------------------------------------------
// Wire bytes of warm reads: exact, as inline servers never retransmit
// ---------------------------------------------------------------------------

/// perfbench's preload, scaled down: 7000 uniform keys with its 13-byte
/// payloads, bulk-loaded at theta = 100 into leaves of ~1.4 KB.
std::vector<index::Record> benchPreload() {
  std::vector<index::Record> recs = distinctRecords(7000, 2023);
  for (size_t i = 0; i < recs.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "rec-%09zu", i);
    recs[i].payload = buf;
  }
  return recs;
}

/// What an index runs over a networked client: the client itself, or
/// (`decorated`) RetryingDht over a zero-rate FaultDht over it. A wrapper
/// hands digests and starts on to the client, so both send the same
/// datagrams.
struct ClientView {
  ClientView(Dht& client, bool decorated)
      : fault(client, FaultDht::Point::Reply, 0.0),
        retry(fault),
        top(decorated ? static_cast<Dht&>(retry) : client) {}
  FaultDht fault;
  RetryingDht retry;
  Dht& top;
};

/// The held side reads through the bare client or the decorated stack;
/// the plain side always reads through the bare client.
void expectWarmReadsMoveDigests(bool decorated) {
  StaticCluster c(4);
  core::LhtIndex::Options o;  // the clients lht_net_trace and perfbench run
  o.useLeafCache = true;
  o.cacheDecodedBuckets = true;
  o.crashConsistentSplits = true;
  auto loadDht = c.makeDht();
  core::LhtIndex loader(*loadDht, o);
  const auto recs = benchPreload();
  ASSERT_TRUE(loader.insertBatch(recs).ok);

  RequestCounts counts;
  auto dht = c.makeDht(1, 2000, &counts);
  o.attachExisting = true;
  o.clientSeed = 2;
  ClientView view(*dht, decorated);
  core::LhtIndex held(view.top, o);
  o.cacheDecodedBuckets = false;  // the same reader, shipping whole buckets
  o.clientSeed = 3;
  core::LhtIndex plain(*dht, o);
  for (core::LhtIndex* idx : {&held, &plain}) {
    ASSERT_EQ(idx->rangeQuery(0.0, 1.0).records.size(), recs.size());  // warm
  }
  const auto bytesOf = [&](const auto& op) {
    const RequestCounts::Bytes before = counts.bytes();
    op();
    const RequestCounts::Bytes after = counts.bytes();
    return RequestCounts::Bytes{after.datagrams - before.datagrams,
                                after.total - before.total, after.body - before.body};
  };
  constexpr size_t kHeader = 4 + common::kMaxVarintBytes;  // per datagram, at most

  // A warm find: one GET of the cached leaf, answered `unchanged`.
  const double key = recs[4321].key;
  const auto find = bytesOf([&] { EXPECT_TRUE(held.find(key).record.has_value()); });
  EXPECT_EQ(find.datagrams, 2u);
  EXPECT_LE(find.total, 200u);
  EXPECT_EQ(find.body, 20u);
  const auto findPlain = bytesOf([&] { EXPECT_TRUE(plain.find(key).record.has_value()); });
  EXPECT_EQ(findPlain.datagrams, 2u);
  EXPECT_EQ(findPlain.body, 1444u);

  // A warm planned range: one MultiGet per owner, every tile `unchanged`.
  size_t tiles = 0;
  const auto range = bytesOf([&] { tiles = held.rangeQuery(0.40, 0.45).stats.bucketsTouched; });
  EXPECT_EQ(tiles, 6u);
  EXPECT_LE(range.body, 60 * tiles);
  EXPECT_LE(range.total, 60 * tiles + kHeader * range.datagrams);
  EXPECT_EQ(range.datagrams, 6u);
  EXPECT_EQ(range.body, 129u);
  const auto rangePlain = bytesOf([&] { (void)plain.rangeQuery(0.40, 0.45); });
  EXPECT_EQ(rangePlain.datagrams, range.datagrams);
  EXPECT_EQ(rangePlain.body, 9420u);

  // Every conditional entry was one of the held reader's, and came back
  // `unchanged`; the servers counted the same answers.
  const auto rs = dht->routedStats();
  EXPECT_EQ(rs.unchangedReads, rs.conditionalReads);
  common::u64 served = 0;
  for (const auto& s : c.servers) served += s->stats().unchangedReads.load();
  EXPECT_EQ(served, rs.unchangedReads);
}

TEST(NetDhtBytes, WarmReadsMoveDigestsInsteadOfBuckets) {
  for (const bool decorated : {false, true}) {
    SCOPED_TRACE(decorated ? "Retrying(Fault(client))" : "bare client");
    expectWarmReadsMoveDigests(decorated);
  }
}

/// Index writes from held buckets, exact over CountingSim: theta = 100,
/// perfbench's client options and replication. A warm insert sends its CAS
/// from the held leaf and one replica push: four datagrams, no GET. A
/// split's step 3 starts from the copy its step 1 left, so only step 2,
/// which creates the moved child, reads. The children are then cached, and
/// the next insert into either is warm again. The writer runs over the
/// bare client or the decorated stack.
void expectWarmInsertsCasFromTheHeldBucket(bool decorated) {
  StaticCluster c(4);
  core::LhtIndex::Options o;
  o.useLeafCache = true;
  o.cacheDecodedBuckets = true;
  o.crashConsistentSplits = true;
  auto loadDht = c.makeDht(2);
  core::LhtIndex loader(*loadDht, o);
  const auto recs = benchPreload();
  ASSERT_TRUE(loader.insertBatch(recs).ok);

  RequestCounts counts;
  auto dht = c.makeDht(2, 2000, &counts);
  o.attachExisting = true;
  o.clientSeed = 2;
  ClientView view(*dht, decorated);
  core::LhtIndex writer(view.top, o);
  ASSERT_EQ(writer.rangeQuery(0.0, 1.0).records.size(), recs.size());  // warm
  const auto leaf = writer.lookup(recs[4321].key).bucket;
  ASSERT_TRUE(leaf.has_value());

  struct Sent {
    size_t datagrams = 0, get = 0, cas = 0, replicaPut = 0;
    common::u64 lookups = 0, cacheMisses = 0;
  };
  const auto now = [&] {
    return Sent{counts.bytes().datagrams, counts(Op::Get),
                counts(Op::Cas),          counts(Op::ReplicaPut),
                dht->stats().lookups.load(), writer.leafCache().misses()};
  };
  /// What one insert of `key` sent, and whether it split.
  const auto insert = [&](double key, bool& split) {
    const Sent b = now();
    const auto r = writer.insert(index::Record{key, "rec-new"});
    EXPECT_TRUE(r.ok);
    split = r.splitOrMerged;
    const Sent a = now();
    return Sent{a.datagrams - b.datagrams, a.get - b.get,
                a.cas - b.cas,             a.replicaPut - b.replicaPut,
                a.lookups - b.lookups,     a.cacheMisses - b.cacheMisses};
  };
  const auto expectWarm = [](const Sent& s) {
    EXPECT_EQ(s.datagrams, 4u);
    EXPECT_EQ(s.get, 0u);
    EXPECT_EQ(s.cas, 1u);
    EXPECT_EQ(s.replicaPut, 1u);
    EXPECT_EQ(s.lookups, 1u);
    EXPECT_EQ(s.cacheMisses, 0u);
  };

  // Fill the leaf: every insert but the last is warm; the last splits it.
  const size_t room = 99 - leaf->records.size();  // effective size 100 splits
  ASSERT_GE(room, 2u);
  bool split = false;
  for (size_t i = 1; i < room; ++i) {
    expectWarm(insert(keyIn(*leaf, (static_cast<double>(i) + 0.31) / (room + 1)), split));
    ASSERT_FALSE(split) << i;
  }
  const Sent splitting = insert(keyIn(*leaf, 0.999), split);
  ASSERT_TRUE(split);
  EXPECT_EQ(splitting.get, 1u);  // step 2's read of the moved child's key
  EXPECT_EQ(splitting.cas, 3u);  // the insert, step 2, step 3
  EXPECT_EQ(splitting.replicaPut, 3u);
  EXPECT_EQ(splitting.datagrams, 14u);
  EXPECT_EQ(splitting.lookups, 3u);

  // Both children are cached with their held copies.
  expectWarm(insert(keyIn(*leaf, 0.25), split));
  expectWarm(insert(keyIn(*leaf, 0.75), split));
  ASSERT_FALSE(split);
  const auto rs = dht->routedStats();
  EXPECT_EQ(rs.startConflicts, 0u);
  EXPECT_EQ(rs.appliesFromStart, room + 3);  // every insert, and step 3
}

TEST(NetDhtBytes, WarmInsertsCasFromTheHeldBucket) {
  for (const bool decorated : {false, true}) {
    SCOPED_TRACE(decorated ? "Retrying(Fault(client))" : "bare client");
    expectWarmInsertsCasFromTheHeldBucket(decorated);
  }
}

// ---------------------------------------------------------------------------
// Served overlay cluster
// ---------------------------------------------------------------------------

TEST(RoutedNetDht, BootstrapsFromOneSeedAndRoutesWarmOpsInOneHop) {
  ServedCluster c(3);
  c.serveAll();
  RoutedNetDht dht(patientClientOptions(c), c.endpoints());
  ASSERT_TRUE(dht.bootstrap(/*deadlineMs=*/20000));
  EXPECT_EQ(dht.knownMembers(), 3u);
  EXPECT_GE(dht.routedStats().bootstraps, 1u);
  expectWarmOpsInOneHop(dht);
}

TEST(RoutedNetDht, LaunchSetClientRoutesOnTheDaemonsRingWithoutGossip) {
  // The client's first view is the launch set the daemons were seeded
  // with: its ring is theirs, so a static cluster is an overlay that never
  // churns. An op sent to a node that does not own its key would come back
  // as a Redirect; none does, nothing is pulled. (No gossip rounds either:
  // under a slow build the sim clocks jump by whole idle waits, and a
  // timed-out round would bump the table.)
  OverlayNode::Options base;
  base.gossipIntervalMs = 4'000'000'000;
  ServedCluster c(3, base);
  c.serveAll();
  RequestCounts sent;
  RoutedNetDht::Options o;
  o.members = c.addrs();
  o.rpc.requestDeadlineMs = 4'000'000;  // see patientClientOptions
  RoutedNetDht dht(o, c.endpoints(&sent));
  EXPECT_EQ(dht.knownMembers(), 3u);
  expectWarmOpsInOneHop(dht);
  const auto rs = dht.routedStats();
  EXPECT_EQ(rs.bootstraps, 0u);
  EXPECT_EQ(rs.refreshes, 0u);
  EXPECT_EQ(rs.redirectsFollowed, 0u);
  EXPECT_EQ(sent(Op::GossipSync), 0u);
}

TEST(RoutedNetDht, FollowsRedirectsAcrossAliveJoin) {
  // Every stale-view op comes back as an explicit Redirect, so this pins
  // the client's follow-and-refresh path. No request here needs to time
  // out, so the client is a patient one: no put may time out on a loaded
  // host.
  OverlayNode::Options base;
  ServedCluster c(2, base);
  c.serveAll();
  RoutedNetDht dht(patientClientOptions(c), c.endpoints());
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
  // replication=2 on the clients too: every put fans a replica copy to
  // the key's ring successor, which is what the survivors promote from.
  // The preload goes through a patient client: no put may time out on a
  // loaded host. The reads after the crash use the default 2 s deadline,
  // so a request to the dead node times out and the client heals.
  RoutedNetDht loader(patientClientOptions(c, /*replication=*/2),
                      c.endpoints());
  ASSERT_TRUE(loader.bootstrap(20000));
  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) {
    keys.push_back("key-" + std::to_string(i));
    loader.put(keys.back(), "val-" + std::to_string(i));
  }
  RoutedNetDht dht(clientOptions(c, /*replication=*/2), c.endpoints());
  ASSERT_TRUE(dht.bootstrap(20000));

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
  expectMultiGetCompletesAcrossPrefixReplies(c);
}

TEST(RoutedNetDht, OversizedEntryFailsAloneAndFast) {
  ServedCluster c(1);
  c.serveAll();
  expectOversizedEntryFailsAloneAndFast(c);
}

TEST(RoutedNetDhtReadSlot, GetThenApplySavesTheGetRound) {
  ServedCluster c(3);
  c.serveAll();
  expectGetThenApplySavesTheGetRound(c);
}

TEST(RoutedNetDhtReadSlot, WriteBetweenGetAndApplyConflictsAndRerunsOnFreshState) {
  ServedCluster c(2);
  c.serveAll();
  expectWriteBetweenGetAndApplyConflictsAndRerunsOnFreshState(c);
}

TEST(RoutedNetDhtReadSlot, ErasedAfterTheReadRerunsOnAbsent) {
  ServedCluster c(2);
  c.serveAll();
  expectErasedAfterTheReadRerunsOnAbsent(c);
}

TEST(RoutedNetDhtReadSlot, RecreatedKeyAtTheSameVersionRerunsOnTheNewBytes) {
  ServedCluster c(2);
  c.serveAll();
  expectRecreatedKeyAtTheSameVersionRerunsOnTheNewBytes(c);
}

TEST(RoutedNetDhtReadSlot, CreateIfAbsentRereadsBeforeTrustingAPresentRead) {
  ServedCluster c(2);
  c.serveAll();
  expectCreateIfAbsentRereadsBeforeTrustingAPresentRead(c);
}

TEST(RoutedNetDhtReadSlot, GarbageStartEndsLikeNoStart) {
  ServedCluster c(2);
  c.serveAll();
  expectGarbageStartEndsLikeNoStart(c);
}

TEST(RoutedNetDhtIndex, StaleCopiesAreRefetchedByEveryReadOnlyOp) {
  OverlayNode::Options base;
  base.gossipIntervalMs = 4'000'000'000;  // see Theta100BulkLoadAndSweeps...
  ServedCluster c(4, base);
  c.serveAll();
  expectStaleCopiesAreRefetched(c);
}

/// Conditional reads from a client whose view predates a join: the old
/// owners redirect each read, and the client sends it on to the joiner
/// with its digest, so every answer is `unchanged`; none reads absent.
TEST(RoutedNetDht, StaleViewRedirectsConditionalReadsWithTheirDigest) {
  ServedCluster c(2);
  c.serveAll();
  RoutedNetDht writer(patientClientOptions(c), c.endpoints());
  ASSERT_TRUE(writer.bootstrap(20000));
  std::vector<std::string> keys;
  std::vector<common::u64> held;
  for (int i = 0; i < 30; ++i) {
    keys.push_back(common::numbered("key-", i));
    const std::string value = common::numbered("val-", i);
    writer.put(keys.back(), value);
    held.push_back(common::hash::valueDigest(value));
  }
  auto joinTx = std::make_unique<ThrottledSim>(
      c.hub.makeEndpoint(static_cast<rpc::u16>(kBasePort + 2)));
  OverlayNode::Options jo;
  jo.name = "joiner";
  auto joiner = std::make_unique<OverlayNode>(jo, *joinTx);
  ASSERT_TRUE(joiner->joinCluster(c.addr(0), /*deadlineMs=*/60000));
  c.serveOne(joiner.get());

  // A client launched with the two original members routes the joiner's
  // keys to their old owners.
  RoutedNetDht::Options o;
  o.members = c.addrs();
  o.rpc.requestDeadlineMs = 4'000'000;  // see patientClientOptions
  RoutedNetDht stale(o, c.endpoints());
  ASSERT_EQ(stale.knownMembers(), 2u);
  for (size_t i = 0; i < keys.size(); ++i) {
    const GetOutcome got = stale.getIfChanged(keys[i], held[i]);
    EXPECT_TRUE(got.unchanged) << keys[i] << " read "
                               << got.value.value_or("absent");
  }
  const auto batch = stale.multiGetIfChanged(keys, held);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(batch[i].ok) << batch[i].error;
    EXPECT_TRUE(batch[i].unchanged) << keys[i] << " read "
                                    << batch[i].value.value_or("absent");
  }
  common::u64 joinerAnswered = joiner->server().stats().unchangedReads.load();
  EXPECT_GT(joinerAnswered, 0u);  // the joiner's keys reached the joiner
  EXPECT_GT(stale.routedStats().redirectsFollowed, 0u);
  c.tx.push_back(std::move(joinTx));
  c.nodes.push_back(std::move(joiner));  // joined threads outlive the test body
}

TEST(RoutedNetDhtIndex, Theta100BulkLoadAndSweepsMatchOracle) {
  // A static cluster under a long load: with no gossip rounds, a busy
  // host cannot time peers out of the ring (the sim clocks jump by whole
  // idle waits, see patientClientOptions).
  OverlayNode::Options base;
  base.gossipIntervalMs = 4'000'000'000;
  ServedCluster c(4, base);
  c.serveAll();
  RoutedNetDht dht(patientClientOptions(c), c.endpoints());
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
