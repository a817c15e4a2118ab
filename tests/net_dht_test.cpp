// NetDht over the SimHub transport twin: Dht conformance (put/get/
// remove/apply/batches/replica reads), failure mapping (offline node ->
// DhtTimeoutError, silent replica holder -> DhtPeerDownError), decorator
// stacking, and the full LhtIndex running end-to-end against an oracle —
// byte-for-byte the same wire protocol the UDP cluster speaks, but
// deterministic and in-process.
#include "dht/net_dht.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "dht/decorators.h"
#include "lht/lht_index.h"
#include "net/sim_clock.h"
#include "net_index_check.h"
#include "rpc/node_server.h"
#include "rpc/sim_transport.h"

namespace lht::dht {
namespace {

/// N NodeServers living inline in one SimHub, ports 5000..5000+N-1.
struct Cluster {
  rpc::SimHub hub;
  std::vector<std::unique_ptr<rpc::NodeServer>> servers;
  std::vector<rpc::NetAddr> addrs;

  explicit Cluster(size_t n, rpc::SimHub::Options hopts = {}) : hub(hopts) {
    for (size_t i = 0; i < n; ++i) {
      rpc::NodeServer::Options sopts;
      sopts.name = "n" + std::to_string(i);
      auto server = std::make_unique<rpc::NodeServer>(sopts);
      const auto port = static_cast<rpc::u16>(5000 + i);
      hub.registerHandler(
          port, [srv = server.get()](const rpc::Datagram& d,
                                     const std::function<void(std::string)>& reply) {
            std::string out = srv->handle(d.from, d.payload);
            if (!out.empty()) reply(std::move(out));
          });
      servers.push_back(std::move(server));
      addrs.push_back(rpc::NetAddr{0, port});
    }
  }

  std::unique_ptr<NetDht> makeDht(size_t replication = 1,
                                  common::u64 deadlineMs = 2000) {
    NetDht::Options o;
    o.nodes = addrs;
    o.replication = replication;
    o.rpc.requestDeadlineMs = deadlineMs;
    o.rpc.initialRetransmitMs = 20;
    return std::make_unique<NetDht>(o, [this] { return hub.makeEndpoint(); });
  }

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

TEST(NetDht, PutGetRemove) {
  Cluster c(4);
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

TEST(NetDht, ConcurrentClientsGrowPoolSafely) {
  // A cluster whose servers hold each RPC open for ~1ms of wall time, so
  // concurrent callers' leases genuinely overlap: the pool must grow, and
  // every thread's first Lease push_back can reallocate conns_ while
  // other threads are mid-RPC — the reallocation window each Lease must
  // pin its Conn* across (the fleet-warmup shape lht_net_trace drives).
  rpc::SimHub hub;
  std::vector<std::unique_ptr<rpc::NodeServer>> servers;
  std::vector<rpc::NetAddr> addrs;
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
    addrs.push_back(rpc::NetAddr{0, port});
  }
  NetDht::Options o;
  o.nodes = addrs;
  auto dht =
      std::make_unique<NetDht>(o, [&hub] { return hub.makeEndpoint(); });

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
            "t" + std::to_string(t) + "-" + std::to_string(i);
        dht->put(key, key);
        EXPECT_EQ(dht->get(key), key);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(dht->size(), size_t{kThreads} * kOpsPerThread);
  EXPECT_GE(dht->netStats().connections, 2u);
}

TEST(NetDht, PingAllReportsClusterHealthWithinDeadline) {
  Cluster c(4);
  auto dht = c.makeDht(1, /*deadlineMs=*/200);
  EXPECT_TRUE(dht->pingAll(1000));
  // Half the cluster dark: pings go out concurrently, so giving up costs
  // the deadline plus at most ONE request deadline — not one per down
  // node. The requests-started delta stays a few rounds' worth.
  c.hub.setOnline(5002, false);
  c.hub.setOnline(5003, false);
  const auto before = dht->netStats().requestsStarted;
  EXPECT_FALSE(dht->pingAll(500));
  const auto after = dht->netStats().requestsStarted;
  // Round 1 pings all 4 nodes; later rounds only the 2 still-silent
  // ones; ceil(500 / 200) = 3 rounds before the deadline check fires.
  EXPECT_LE(after - before, 12u);
  c.hub.setOnline(5002, true);
  c.hub.setOnline(5003, true);
  EXPECT_TRUE(dht->pingAll(1000));
}

TEST(NetDht, ApplyCreatesMutatesErases) {
  Cluster c(4);
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

TEST(NetDht, ApplyRetriesCasConflict) {
  Cluster c(2);
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

TEST(NetDht, MultiGetBatchesOneDatagramPerNode) {
  Cluster c(4);
  auto dht = c.makeDht();
  std::vector<Key> keys;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("key" + std::to_string(i));
    if (i % 2 == 0) dht->put(keys.back(), "v" + std::to_string(i));
  }
  const auto before = dht->netStats();
  auto outcomes = dht->multiGet(keys);
  const auto after = dht->netStats();
  ASSERT_EQ(outcomes.size(), keys.size());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].error;
    if (i % 2 == 0) {
      EXPECT_EQ(outcomes[i].value, "v" + std::to_string(i));
    } else {
      EXPECT_FALSE(outcomes[i].value.has_value());
    }
  }
  // The whole 32-key round cost at most one datagram per node (no
  // retransmits in a clean hub) — not one per key.
  EXPECT_EQ(after.retransmits, before.retransmits);
  EXPECT_LE(after.datagramsSent - before.datagramsSent, c.servers.size());
}

TEST(NetDht, MultiGetCompletesAcrossPrefixReplies) {
  Cluster c(1);
  auto dht = c.makeDht();
  std::vector<Key> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("big" + std::to_string(i));
    dht->put(keys.back(), std::string(20 * 1024, 'v') + std::to_string(i));
  }
  const auto before = dht->netStats();
  auto out = dht->multiGet(keys);
  const auto after = dht->netStats();
  ASSERT_EQ(out.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(out[i].ok) << out[i].error;
    EXPECT_EQ(out[i].value, std::string(20 * 1024, 'v') + std::to_string(i));
  }
  // 160 KB of values for one node: each reply answers the two-entry prefix
  // that fits, and the client re-sends the tail until the round is done.
  EXPECT_EQ(after.requestsStarted - before.requestsStarted, 4u);
  EXPECT_EQ(c.servers[0]->stats().prefixReplies.load(), 3u);
  EXPECT_EQ(after.retransmits, before.retransmits);
  EXPECT_EQ(after.timeouts, before.timeouts);
}

TEST(NetDht, OversizedEntryFailsAloneAndFast) {
  Cluster c(1);
  auto dht = c.makeDht();
  dht->put("a", "1");
  dht->put("b", "2");
  dht->put("c", "3");
  // A bucket no datagram can carry (installed server-side: no request
  // could carry it either).
  c.servers[0]->installPrimary("huge", 1, std::string(rpc::kMaxDatagramBytes, 'x'));
  const auto before = dht->netStats();
  auto out = dht->multiGet({"a", "huge", "b", "c"});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_FALSE(out[1].ok);
  EXPECT_NE(out[1].error.find("too_large"), std::string::npos) << out[1].error;
  EXPECT_EQ(out[0].value, "1");
  EXPECT_EQ(out[2].value, "2");
  EXPECT_EQ(out[3].value, "3");
  EXPECT_THROW(dht->get("huge"), DhtError);
  // multiApply's snapshot phase reads through the same path.
  bool ranOnHuge = false;
  auto applied = dht->multiApply(
      {ApplyRequest{"huge", [&](std::optional<Value>&) { ranOnHuge = true; }},
       ApplyRequest{"a", [](std::optional<Value>& v) { v = "1+"; }}});
  EXPECT_FALSE(applied[0].ok);
  EXPECT_FALSE(ranOnHuge);
  EXPECT_TRUE(applied[1].ok);
  EXPECT_EQ(dht->get("a"), "1+");
  // Nothing waited on a deadline: every failure was an answer.
  const auto after = dht->netStats();
  EXPECT_EQ(after.retransmits, before.retransmits);
  EXPECT_EQ(after.timeouts, before.timeouts);
}

TEST(NetDht, MultiApplyBatchesAndReportsExistence) {
  Cluster c(4);
  auto dht = c.makeDht();
  dht->put("old0", "x");
  dht->put("old1", "y");
  std::vector<ApplyRequest> reqs;
  for (const char* k : {"old0", "old1", "new0", "new1"}) {
    reqs.push_back(ApplyRequest{
        k, [](std::optional<Value>& v) { v = v.value_or("") + "!"; }});
  }
  const auto before = dht->netStats();
  auto outcomes = dht->multiApply(reqs);
  const auto after = dht->netStats();
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

TEST(NetDht, ReplicationServesReplicaReads) {
  Cluster c(4);
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

TEST(NetDht, OfflineClusterTimesOut) {
  Cluster c(2);
  auto dht = c.makeDht(/*replication=*/1, /*deadlineMs=*/200);
  dht->put("k", "v");
  for (const auto& a : c.addrs) c.hub.setOnline(a.port, false);
  EXPECT_THROW((void)dht->get("k"), DhtTimeoutError);
  EXPECT_THROW(dht->put("k", "w"), DhtTimeoutError);
  EXPECT_GT(dht->netStats().timeouts, 0u);
  // Batch entries fail individually instead of throwing.
  auto outcomes = dht->multiGet({"k", "other"});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  // Back online: the same NetDht recovers with no reconnection step.
  for (const auto& a : c.addrs) c.hub.setOnline(a.port, true);
  EXPECT_EQ(dht->get("k"), "v");
}

TEST(NetDht, SilentReplicaHolderIsPeerDown) {
  Cluster c(3);
  auto dht = c.makeDht(/*replication=*/2, /*deadlineMs=*/200);
  dht->put("k", "v");
  c.hub.setOnline(c.addrs[c.replicaHolder()].port, false);
  EXPECT_THROW((void)dht->getReplica("k", 0), DhtPeerDownError);
  // The primary is untouched.
  EXPECT_EQ(dht->get("k"), "v");
}

TEST(NetDht, FailoverRescuesReadsFromDeadOwner) {
  Cluster c(3);
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

TEST(NetDht, RetryingStackSurvivesHeavyLoss) {
  rpc::SimHub::Options hopts;
  hopts.dropProbability = 0.15;
  hopts.duplicateProbability = 0.05;
  hopts.reorderProbability = 0.1;
  hopts.seed = 7;
  Cluster c(3, hopts);
  auto dht = c.makeDht(/*replication=*/2, /*deadlineMs=*/5000);
  RetryingDht retrying(*dht, /*maxAttempts=*/4);
  for (int i = 0; i < 60; ++i) {
    const std::string k = "k" + std::to_string(i);
    retrying.put(k, std::to_string(i));
    EXPECT_EQ(retrying.get(k), std::to_string(i)) << k;
  }
  // The loss was real (the RPC layer absorbed it below the Dht surface).
  EXPECT_GT(dht->netStats().retransmits, 0u);
}

// ---------------------------------------------------------------------------
// apply() starts from the calling thread's immediately preceding get()
// ---------------------------------------------------------------------------

/// Requests the cluster's servers have handled so far (the inline hub
/// never retransmits, so this counts request rounds exactly).
u64 handled(const Cluster& c) {
  u64 n = 0;
  for (const auto& s : c.servers) n += s->stats().requestsHandled.load();
  return n;
}

Mutator appendTo(std::string suffix) {
  return [suffix = std::move(suffix)](std::optional<Value>& v) {
    v = v.value_or("") + suffix;
  };
}

TEST(NetDhtReadSlot, GetThenApplySavesTheGetRound) {
  Cluster c(3);
  auto dht = c.makeDht(/*replication=*/2);
  dht->put("k", "v");
  // No read before the apply: GET, CAS, replica push.
  u64 before = handled(c);
  EXPECT_TRUE(dht->apply("k", appendTo("+1")));
  EXPECT_EQ(handled(c) - before, 3u);
  // get(k) right before: the apply CASes against that read.
  ASSERT_EQ(dht->get("k"), "v+1");
  before = handled(c);
  EXPECT_TRUE(dht->apply("k", appendTo("+2")));
  EXPECT_EQ(handled(c) - before, 2u);
  EXPECT_EQ(dht->get("k"), "v+1+2");
  EXPECT_EQ(dht->getReplica("k", 0), "v+1+2");
  // An absent read works the same way (expect-absent CAS).
  ASSERT_FALSE(dht->get("fresh").has_value());
  before = handled(c);
  EXPECT_FALSE(dht->apply("fresh", appendTo("new")));
  EXPECT_EQ(handled(c) - before, 2u);
  EXPECT_EQ(dht->get("fresh"), "new");
}

TEST(NetDhtReadSlot, WriteBetweenGetAndApplyConflictsAndRerunsOnFreshState) {
  Cluster c(2);
  auto dht = c.makeDht();
  auto rival = c.makeDht();
  dht->put("k", "base");
  ASSERT_EQ(dht->get("k"), "base");
  rival->put("k", "rival");
  std::vector<std::string> seen;
  EXPECT_TRUE(dht->apply("k", [&](std::optional<Value>& v) {
    seen.push_back(v.value_or("<absent>"));
    v = v.value_or("") + "+applied";
  }));
  // The first run used the stale read; the CAS conflict carried the
  // rival's value, and the stored value is the mutator applied to it.
  EXPECT_EQ(seen, (std::vector<std::string>{"base", "rival"}));
  EXPECT_EQ(dht->get("k"), "rival+applied");

  // The key vanishes between the read and the apply: the write lands on
  // the absent state, and apply reports that the key did not exist.
  ASSERT_TRUE(dht->get("k").has_value());
  ASSERT_TRUE(rival->remove("k"));
  seen.clear();
  EXPECT_FALSE(dht->apply("k", [&](std::optional<Value>& v) {
    seen.push_back(v.value_or("<absent>"));
    v = v.value_or("") + "!";
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"rival+applied", "<absent>"}));
  EXPECT_EQ(dht->get("k"), "!");
}

TEST(NetDhtReadSlot, CreateIfAbsentRereadsBeforeTrustingAPresentRead) {
  Cluster c(2);
  auto dht = c.makeDht();
  auto rival = c.makeDht();
  dht->put("k", "old");
  ASSERT_EQ(dht->get("k"), "old");
  ASSERT_TRUE(rival->remove("k"));
  // On the read, the key is present and the mutator changes nothing. That
  // verdict must not stand on a read from before the call: the loop
  // re-reads, finds the key gone, and the mutator creates it.
  int runs = 0;
  EXPECT_FALSE(dht->apply("k", [&](std::optional<Value>& v) {
    ++runs;
    if (!v.has_value()) v = "created";
  }));
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(dht->get("k"), "created");
}

TEST(NetDhtReadSlot, OnlyTheSameThreadsPreviousCallCounts) {
  Cluster c(2);
  auto dht = c.makeDht(/*replication=*/1, /*deadlineMs=*/200);
  dht->put("k", "v");
  dht->put("other", "o");
  auto applyRounds = [&] {
    const u64 before = handled(c);
    EXPECT_TRUE(dht->apply("k", appendTo(".")));
    return handled(c) - before;
  };
  ASSERT_TRUE(dht->get("k").has_value());
  EXPECT_EQ(applyRounds(), 1u);  // CAS only

  // Each call between the get and the apply sends the apply back to the
  // GET round.
  ASSERT_TRUE(dht->get("k").has_value());
  dht->put("other", "o2");
  EXPECT_EQ(applyRounds(), 2u);

  ASSERT_TRUE(dht->get("k").has_value());
  EXPECT_FALSE(dht->remove("absent"));
  EXPECT_EQ(applyRounds(), 2u);

  ASSERT_TRUE(dht->get("k").has_value());
  (void)dht->multiGet({"other", "k"});
  EXPECT_EQ(applyRounds(), 2u);

  ASSERT_TRUE(dht->get("k").has_value());
  ASSERT_TRUE(dht->get("other").has_value());
  EXPECT_EQ(applyRounds(), 2u);

  // A get of the same key that throws leaves no read behind either.
  ASSERT_TRUE(dht->get("k").has_value());
  const rpc::u16 owner = c.addrs[c.primaryOf("k")].port;
  c.hub.setOnline(owner, false);
  EXPECT_THROW((void)dht->get("k"), DhtTimeoutError);
  c.hub.setOnline(owner, true);
  EXPECT_EQ(applyRounds(), 2u);

  // Another thread's read is not this thread's read.
  ASSERT_TRUE(dht->get("k").has_value());
  u64 otherThreadRounds = 0;
  std::thread([&] { otherThreadRounds = applyRounds(); }).join();
  EXPECT_EQ(otherThreadRounds, 2u);
  // This thread's read is now stale: the CAS conflicts and the mutator
  // re-runs on the state the conflict reply carries.
  EXPECT_EQ(applyRounds(), 2u);
  EXPECT_EQ(dht->get("k"), "v........");
}

TEST(NetDhtReadSlot, ThreadsKeepTheirOwnSlots) {
  // Every thread reads a shared counter and increments it through apply:
  // each apply starts from its own thread's read, conflicts when another
  // thread got there first, and no increment is lost.
  Cluster c(2);
  NetDht::Options o;
  o.nodes = c.addrs;
  o.casRetries = 1000;  // contention is the point here, not its bound
  auto dht = std::make_unique<NetDht>(o, [&c] { return c.hub.makeEndpoint(); });
  dht->put("counter", "0");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dht, t] {
      const std::string own = "own-" + std::to_string(t);
      for (int i = 0; i < kIncrements; ++i) {
        (void)dht->get("counter");
        EXPECT_TRUE(dht->apply("counter", [](std::optional<Value>& v) {
          v = std::to_string(std::stoi(v.value()) + 1);
        }));
        (void)dht->get(own);
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
}

// ---------------------------------------------------------------------------
// LhtIndex end-to-end over the networked substrate
// ---------------------------------------------------------------------------

std::vector<index::Record> distinctRecords(size_t n, common::u64 seed) {
  common::Pcg32 rng(seed);
  std::set<double> used;
  std::vector<index::Record> recs;
  while (recs.size() < n) {
    const double k = rng.nextDouble();
    if (k <= 0.0 || k >= 1.0 || !used.insert(k).second) continue;
    recs.push_back(index::Record{k, "p" + std::to_string(recs.size())});
  }
  return recs;
}

TEST(NetDhtIndex, LhtMatchesOracle) {
  Cluster c(4);
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
  Cluster c(4);
  auto dht = c.makeDht(/*replication=*/2);
  testing_support::expectBulkLoadAndSweepsMatchOracle(*dht);
  u64 prefixReplies = 0;
  for (const auto& s : c.servers) prefixReplies += s->stats().prefixReplies.load();
  EXPECT_GT(prefixReplies, 0u);  // the rounds really did outgrow a datagram
  EXPECT_EQ(dht->netStats().timeouts, 0u);
}

TEST(NetDhtIndex, DeadReplicaHolderDropsLeaseKeepsLocation) {
  Cluster c(3);
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
  // from NetDht::getReplica, while the leaf's primary stays up.
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
/// transport-style deadline — the substrate shape the DhtTimeoutError
/// branch of tryLeaseRead exists for (a TimeoutDht-over-NetDht stack,
/// where the replica deadline surfaces as DhtTimeoutError, not PeerDown).
class TimeoutReplicaDht final : public Dht {
 public:
  explicit TimeoutReplicaDht(Dht& inner) : inner_(inner) {}
  void put(const Key& key, Value value) override {
    inner_.put(key, std::move(value));
  }
  std::optional<Value> get(const Key& key) override { return inner_.get(key); }
  bool remove(const Key& key) override { return inner_.remove(key); }
  bool apply(const Key& key, const Mutator& fn) override {
    return inner_.apply(key, fn);
  }
  void storeDirect(const Key& key, Value value) override {
    inner_.storeDirect(key, std::move(value));
  }
  [[nodiscard]] size_t replicaFanout() const override {
    return inner_.replicaFanout();
  }
  std::optional<Value> getReplica(const Key& key, size_t) override {
    throw DhtTimeoutError("replica read deadline for \"" + key + "\"");
  }
  [[nodiscard]] size_t size() const override { return inner_.size(); }

 private:
  Dht& inner_;
};

TEST(NetDhtIndex, ReplicaTimeoutDropsLeaseAndAdvancesRotation) {
  Cluster c(3);
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

}  // namespace
}  // namespace lht::dht
