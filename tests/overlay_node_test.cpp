// OverlayNode tests over the deterministic sim transport: redirects for
// misrouted requests, the answer-here bit, the reply cache's at-most-once
// Join, the join handshake with key streaming, graceful leave, and
// gossip-driven crash detection with replica promotion — the in-process
// twin of what run_cluster.sh --churn exercises over kernel UDP
// (DESIGN.md §15).
#include "overlay/overlay_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "overlay/membership.h"
#include "rpc/rpc_client.h"
#include "rpc/sim_transport.h"
#include "rpc/wire.h"

namespace lht::overlay {
namespace {

using rpc::Datagram;
using rpc::RpcClient;
using rpc::SimHub;
using rpc::SimTransport;
using rpc::wire::GetRep;
using rpc::wire::GetReq;
using rpc::wire::NodeEntry;
using rpc::wire::PutRep;
using rpc::wire::PutReq;
using rpc::wire::RedirectRep;
using rpc::wire::Status;

constexpr u16 kBasePort = 6000;

/// N overlay nodes on one SimHub, statically seeded with each other —
/// the sim twin of a fixed-list cluster launch.
struct OverlayCluster {
  SimHub hub;
  std::vector<std::unique_ptr<SimTransport>> tx;
  std::vector<std::unique_ptr<OverlayNode>> nodes;
  std::vector<NodeEntry> entries;

  explicit OverlayCluster(size_t n, OverlayNode::Options base = {}) {
    for (size_t i = 0; i < n; ++i) {
      tx.push_back(hub.makeEndpoint(static_cast<u16>(kBasePort + i)));
      entries.push_back(launchEntry(tx.back()->localAddr()));
    }
    for (size_t i = 0; i < n; ++i) {
      OverlayNode::Options opts = base;
      opts.name = "sim-" + std::to_string(i);
      nodes.push_back(std::make_unique<OverlayNode>(opts, *tx[i]));
      nodes[i]->seedMembership(entries);
    }
  }

  [[nodiscard]] NetAddr addr(size_t i) const { return tx[i]->localAddr(); }

  /// One cooperative turn for every node. wait=0 keeps the virtual
  /// clocks frozen (no gossip, no timeouts): pure request-path tests
  /// stay deterministic.
  void pumpAll(u64 wait = 0) {
    for (auto& n : nodes) n->pumpOnce(wait);
  }
};

/// A client endpoint on the hub with a cooperative call helper: spins
/// the cluster and its own transport until the call resolves.
struct TestClient {
  std::unique_ptr<SimTransport> tx;
  RpcClient cli;

  explicit TestClient(SimHub& hub) : tx(hub.makeEndpoint()), cli(*tx) {}

  RpcClient::Result call(OverlayCluster& c, const NetAddr& to,
                         rpc::wire::RequestBody body, bool noForward = false,
                         u64 nodeWait = 0) {
    const RpcClient::Token t = cli.call(to, std::move(body), noForward);
    std::vector<Datagram> in;
    for (int spin = 0; spin < 2000 && !cli.resolved(t); ++spin) {
      c.pumpAll(nodeWait);
      in.clear();
      tx->receive(in, 1);
      for (const Datagram& d : in) cli.deliver(d);
      cli.pump(tx->nowMs());
    }
    if (!cli.resolved(t)) cli.pump(~u64{0});  // force-expire: test failure
    return cli.take(t);
  }

  /// call() to `via`, following Redirects to the owner they name.
  RpcClient::Result callOwner(OverlayCluster& c, NetAddr via,
                              const rpc::wire::RequestBody& body) {
    for (int hop = 0;; ++hop) {
      auto r = call(c, via, body);
      const auto* redirect = std::get_if<RedirectRep>(&r.body);
      if (r.status != Status::Redirect || redirect == nullptr || hop == 3) {
        return r;
      }
      via = NetAddr{redirect->host, redirect->port};
    }
  }
};

/// The key → node-index map every participant must agree on.
size_t ownerIndex(const OverlayCluster& c, const std::string& key) {
  MemberRing ring(c.entries, OverlayNode::Options{}.virtualNodes);
  const u64 owner = ring.owner(key);
  for (size_t i = 0; i < c.entries.size(); ++i) {
    if (c.entries[i].id == owner) return i;
  }
  ADD_FAILURE() << "no owner for " << key;
  return 0;
}

/// Some key owned by node `want` (scans a counter namespace).
std::string keyOwnedBy(const OverlayCluster& c, size_t want) {
  for (int i = 0; i < 10000; ++i) {
    std::string key = "key-" + std::to_string(i);
    if (ownerIndex(c, key) == want) return key;
  }
  ADD_FAILURE() << "no key found for node " << want;
  return "";
}

TEST(OverlayNode, RedirectsMisroutedOpsToTheOwner) {
  OverlayCluster c(2);
  TestClient client(c.hub);
  const std::string key = keyOwnedBy(c, 1);

  // Put sent to the WRONG node: answered with a Redirect naming the owner,
  // and nothing stored anywhere.
  auto r = client.call(c, c.addr(0), PutReq{key, "v"});
  EXPECT_FALSE(r.timedOut);
  ASSERT_EQ(r.status, Status::Redirect);
  const auto& redirect = std::get<RedirectRep>(r.body);
  EXPECT_EQ(redirect.ownerId, c.nodes[1]->selfId());
  EXPECT_EQ(redirect.port, c.addr(1).port);
  EXPECT_EQ(c.nodes[0]->overlayStats().redirects, 1u);
  EXPECT_FALSE(c.nodes[0]->server().primaryRecord(key).has_value());
  EXPECT_FALSE(c.nodes[1]->server().primaryRecord(key).has_value());
  // The redirect is stamped by the node that sent it: the hint names
  // node 0, so the client learns about staleness from the node it spoke to.
  ASSERT_TRUE(r.hint.has_value());
  EXPECT_EQ(r.hint->senderId, c.nodes[0]->selfId());

  // Following the redirect lands the op on the owner only.
  auto r2 = client.call(c, c.addr(1), PutReq{key, "v"});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(std::get<PutRep>(r2.body).version, 1u);
  EXPECT_TRUE(c.nodes[1]->server().primaryRecord(key).has_value());
  EXPECT_FALSE(c.nodes[0]->server().primaryRecord(key).has_value());
}

TEST(OverlayNode, NoForwardIsAnsweredLocally) {
  OverlayCluster c(2);
  TestClient client(c.hub);
  const std::string key = keyOwnedBy(c, 1);

  // The no-forward bit means "answer here": even a misrouted op executes
  // where it lands instead of being redirected.
  auto r = client.call(c, c.addr(0), PutReq{key, "local"},
                       /*noForward=*/true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(c.nodes[0]->overlayStats().redirects, 0u);
  EXPECT_TRUE(c.nodes[0]->server().primaryRecord(key).has_value());
  EXPECT_FALSE(c.nodes[1]->server().primaryRecord(key).has_value());
}

TEST(OverlayNode, NoForwardGetFallsBackToReplica) {
  OverlayCluster c(2);
  TestClient client(c.hub);
  const std::string key = keyOwnedBy(c, 1);

  // Node 0 holds only a replica copy (the state right after it demoted
  // the key, or a fanout write landed here). A joiner's warm fetch that
  // arrives anyway must serve it rather than answer "absent".
  auto rp = client.call(c, c.addr(0), rpc::wire::ReplicaPutReq{key, "copy", 7});
  ASSERT_TRUE(rp.ok());
  auto r = client.call(c, c.addr(0), GetReq{key}, /*noForward=*/true);
  ASSERT_TRUE(r.ok());
  const auto& rep = std::get<GetRep>(r.body);
  EXPECT_TRUE(rep.present);
  EXPECT_EQ(rep.version, 7u);
  EXPECT_EQ(rep.value, "copy");
}

TEST(OverlayNode, GetReplyNearTheCapFailsFastWithTooLarge) {
  OverlayCluster c(2);
  TestClient client(c.hub);
  // A value whose Get reply lands just under kMaxDatagramBytes, inside the
  // gossip hint trailer's length of it: the trailer must not push the
  // final bytes over the cap (no transport would carry them, and the
  // client would retransmit into its 2 s deadline).
  const std::string value(rpc::kMaxDatagramBytes - 18, 'v');
  const std::string mine = keyOwnedBy(c, 0);
  c.nodes[0]->server().installPrimary(mine, 1, value);
  const u64 t0 = client.tx->nowMs();
  auto r = client.call(c, c.addr(0), GetReq{mine});
  EXPECT_FALSE(r.timedOut);
  EXPECT_EQ(r.status, Status::TooLarge);
  EXPECT_EQ(r.sends, 1u);  // answered at once, never retransmitted
  EXPECT_TRUE(r.hint.has_value());

  // The same on the overlay's own encode path: a warm fetch of a key
  // node 0 just demoted, served from its replica copy.
  const std::string theirs = keyOwnedBy(c, 1);
  c.nodes[0]->server().installPrimary(theirs, 3, value);
  c.nodes[0]->server().demotePrimary(
      [&](const std::string& key) { return key == theirs; });
  auto fromReplica =
      client.call(c, c.addr(0), GetReq{theirs}, /*noForward=*/true);
  EXPECT_FALSE(fromReplica.timedOut);
  EXPECT_EQ(fromReplica.status, Status::TooLarge);
  EXPECT_EQ(fromReplica.sends, 1u);
  EXPECT_LT(client.tx->nowMs() - t0, 100u);  // far inside any deadline

  // Smaller values still read normally.
  c.nodes[0]->server().installPrimary(mine, 2, "small");
  auto ok = client.call(c, c.addr(0), GetReq{mine});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(std::get<GetRep>(ok.body).value, "small");
}

TEST(OverlayNode, RetransmittedJoinStreamsItsRangeOnce) {
  OverlayCluster c(2);
  // A joiner endpoint that only records what reaches it: the Join replies
  // and the Handoff stream node 0 sends it.
  auto joinTx = c.hub.makeEndpoint(kBasePort + 2);
  const NodeEntry joiner = launchEntry(joinTx->localAddr());
  std::vector<NodeEntry> grown = c.entries;
  grown.push_back(joiner);
  const MemberRing ring(grown, OverlayNode::Options{}.virtualNodes);
  size_t joinersKeys = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string key = common::numbered("key-", i);
    if (ownerIndex(c, key) != 0) continue;
    c.nodes[0]->server().installPrimary(key, 1, "v");
    joinersKeys += ring.owner(key) == joiner.id ? 1 : 0;
  }
  ASSERT_GT(joinersKeys, 0u);
  ASSERT_LE(joinersKeys, rpc::kBatchKeysPerDatagram);  // one Handoff batch

  // The same announcement twice under one request id, as a retransmit
  // after a lost reply. Frozen clocks: nothing is retransmitted by the
  // node itself.
  const std::string wire =
      rpc::wire::encodeRequest(777, rpc::wire::JoinReq{joiner});
  joinTx->send(c.addr(0), wire);
  for (int i = 0; i < 10; ++i) c.pumpAll();
  joinTx->send(c.addr(0), wire);
  for (int i = 0; i < 10; ++i) c.pumpAll();

  std::vector<Datagram> got;
  joinTx->receive(got, 1);
  std::vector<std::string> joinReplies;
  size_t streamed = 0;
  for (const Datagram& d : got) {
    const auto h =
        std::get<rpc::wire::Header>(rpc::wire::decodeHeader(d.payload));
    if (h.isReply && h.op == rpc::wire::Op::Join) {
      joinReplies.push_back(d.payload);
    } else if (!h.isReply && h.op == rpc::wire::Op::Handoff) {
      const auto req =
          std::get<rpc::wire::Request>(rpc::wire::decodeRequest(d.payload));
      streamed += std::get<rpc::wire::HandoffReq>(req.body).entries.size();
    }
  }
  ASSERT_EQ(joinReplies.size(), 2u);
  EXPECT_EQ(joinReplies[0], joinReplies[1]);  // replayed bytes, verbatim
  EXPECT_EQ(c.nodes[0]->overlayStats().joinsServed, 1u);
  EXPECT_EQ(c.nodes[0]->overlayStats().dedupHits, 1u);
  EXPECT_EQ(c.nodes[0]->pendingHandoffJobs(), 1u);
  EXPECT_EQ(streamed, joinersKeys);  // the range went out once
}

TEST(OverlayNode, BatchesRedirectInsteadOfForwarding) {
  OverlayCluster c(2);
  TestClient client(c.hub);
  const std::string mine = keyOwnedBy(c, 0);
  const std::string theirs = keyOwnedBy(c, 1);

  rpc::wire::MultiGetReq mixed;
  mixed.entries.push_back(GetReq{mine});
  mixed.entries.push_back(GetReq{theirs});
  auto r = client.call(c, c.addr(0), std::move(mixed));
  // A single foreign key fails the whole batch over to the client: the
  // packing must be regrouped against a fresh table, not split server-side.
  EXPECT_EQ(r.status, Status::Redirect);

  rpc::wire::MultiGetReq local;
  local.entries.push_back(GetReq{mine});
  auto r2 = client.call(c, c.addr(0), std::move(local));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(std::get<rpc::wire::MultiGetRep>(r2.body).entries.size(), 1u);
}

// Preloads `n` records through node 0 (its redirects spread them to their
// owners) and returns the keys.
std::vector<std::string> preload(OverlayCluster& c, TestClient& client,
                                 size_t n) {
  std::vector<std::string> keys;
  for (size_t i = 0; i < n; ++i) {
    std::string key = "key-" + std::to_string(i);
    auto r = client.callOwner(c, c.addr(0),
                              PutReq{key, "val-" + std::to_string(i)});
    EXPECT_TRUE(r.ok()) << key;
    keys.push_back(std::move(key));
  }
  return keys;
}

void expectAllReadable(OverlayCluster& c, TestClient& client,
                       const std::vector<std::string>& keys,
                       const std::vector<size_t>& viaNodes) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const NetAddr via = c.addr(viaNodes[i % viaNodes.size()]);
    auto r = client.callOwner(c, via, GetReq{keys[i]});
    ASSERT_TRUE(r.ok()) << keys[i];
    const auto& rep = std::get<GetRep>(r.body);
    EXPECT_TRUE(rep.present) << keys[i];
    EXPECT_EQ(rep.value, "val-" + std::to_string(i)) << keys[i];
  }
}

TEST(OverlayNode, JoinStreamsKeysAndKeepsEveryReadServed) {
  // Sim clocks on different threads advance at unrelated wall rates (an
  // empty receive charges its full wait to virtual time), so the joiner
  // could spin through any realistic virtual deadline before the main
  // thread pumps the incumbents once. Effectively-unbounded deadlines
  // make completion depend only on the actual message exchange.
  constexpr u64 kNoDeadline = u64{1} << 40;
  OverlayNode::Options base;
  base.rpc.requestDeadlineMs = kNoDeadline;
  OverlayCluster c(2, base);
  TestClient client(c.hub);
  const auto keys = preload(c, client, 40);

  // A third node joins through node 0 while the incumbents keep serving.
  auto joinTx = c.hub.makeEndpoint(kBasePort + 2);
  OverlayNode::Options jo = base;
  jo.name = "joiner";
  auto joiner = std::make_unique<OverlayNode>(jo, *joinTx);
  std::atomic<bool> done{false};
  bool joined = false;
  std::thread joinThread([&] {
    joined = joiner->joinCluster(c.addr(0), /*deadlineMs=*/kNoDeadline);
    done.store(true);
  });
  while (!done.load()) c.pumpAll(1);
  joinThread.join();
  ASSERT_TRUE(joined);

  // Drain the handoff streams (the joiner pumps from this thread now).
  c.tx.push_back(std::move(joinTx));
  c.nodes.push_back(std::move(joiner));
  for (int i = 0; i < 4000 && (c.nodes[0]->pendingHandoffJobs() > 0 ||
                               c.nodes[1]->pendingHandoffJobs() > 0);
       ++i) {
    c.pumpAll(1);
  }
  EXPECT_EQ(c.nodes[0]->pendingHandoffJobs(), 0u);
  EXPECT_EQ(c.nodes[1]->pendingHandoffJobs(), 0u);

  // Everyone agrees the cluster is three nodes now.
  EXPECT_EQ(c.nodes[0]->membership().ringMemberCount(), 3u);
  EXPECT_EQ(c.nodes[1]->membership().ringMemberCount(), 3u);
  EXPECT_EQ(c.nodes[2]->membership().ringMemberCount(), 3u);

  // The joiner took over a share of the range, the incumbents demoted
  // their streamed copies, and NOT ONE record became unreadable: every
  // key answers through every entry point, whose redirects agree on the
  // grown ring — the joiner included, whose warm-window misses fall back
  // to the previous owner.
  EXPECT_GT(c.nodes[2]->server().primaryKeyCount(), 0u);
  const size_t totalPrimaries = c.nodes[0]->server().primaryKeyCount() +
                                c.nodes[1]->server().primaryKeyCount() +
                                c.nodes[2]->server().primaryKeyCount();
  EXPECT_EQ(totalPrimaries, keys.size());
  expectAllReadable(c, client, keys, {0, 1, 2});
}

/// A joiner's endpoint that runs the join on the test's one thread: each
/// wait first gives the incumbents a turn of the same length, and while
/// `lossy` every Handoff batch that reaches it is lost (gossip is not, so
/// the incumbents keep it Alive).
class LossyJoinerEndpoint final : public rpc::Transport {
 public:
  LossyJoinerEndpoint(SimTransport& inner, OverlayCluster& incumbents)
      : inner_(inner), incumbents_(&incumbents) {}

  bool send(const NetAddr& to, std::string_view payload) override {
    return inner_.send(to, payload);
  }
  size_t receive(std::vector<Datagram>& out, u64 timeoutMs) override {
    if (incumbents_ != nullptr) incumbents_->pumpAll(timeoutMs);
    const auto first = static_cast<std::ptrdiff_t>(out.size());
    inner_.receive(out, timeoutMs);
    if (lossy) {
      out.erase(std::remove_if(out.begin() + first, out.end(),
                               [](const Datagram& d) {
                                 const auto h = rpc::wire::decodeHeader(d.payload);
                                 const auto* hd = std::get_if<rpc::wire::Header>(&h);
                                 return hd != nullptr && !hd->isReply &&
                                        hd->op == rpc::wire::Op::Handoff;
                               }),
                out.end());
    }
    return out.size() - static_cast<size_t>(first);
  }
  u64 nowMs() override { return inner_.nowMs(); }
  [[nodiscard]] NetAddr localAddr() const override { return inner_.localAddr(); }

  /// The joiner joined the cluster's pump loop: stop pumping it from here.
  void detach() { incumbents_ = nullptr; }

  bool lossy = true;

 private:
  SimTransport& inner_;
  OverlayCluster* incumbents_;
};

TEST(OverlayNode, HandoffOutlastsLostBatchesWhileTheJoinerIsAlive) {
  OverlayCluster c(2);
  TestClient client(c.hub);
  const auto keys = preload(c, client, 40);

  auto joinTx = c.hub.makeEndpoint(kBasePort + 2);
  LossyJoinerEndpoint joinEp(*joinTx, c);
  std::vector<NodeEntry> grown = c.entries;
  grown.push_back(launchEntry(joinTx->localAddr()));
  const MemberRing ring(grown, OverlayNode::Options{}.virtualNodes);
  size_t joinersKeys = 0;
  for (const std::string& key : keys) {
    joinersKeys += ring.owner(key) == grown.back().id ? 1 : 0;
  }
  ASSERT_GT(joinersKeys, 0u);

  OverlayNode::Options jo;
  jo.name = "joiner";
  auto joiner = std::make_unique<OverlayNode>(jo, joinEp);
  ASSERT_TRUE(joiner->joinCluster(c.addr(0), /*deadlineMs=*/10'000));
  joinEp.detach();
  c.nodes.push_back(std::move(joiner));  // pumped with the incumbents now
  const auto clocks = [&] {
    return std::min({c.tx[0]->nowMs(), c.tx[1]->nowMs(), joinTx->nowMs()});
  };
  const auto pumpFor = [&](u64 ms) {
    const u64 until = clocks() + ms;
    for (int i = 0; i < 100'000 && clocks() < until; ++i) c.pumpAll(50);
    ASSERT_GE(clocks(), until);
  };

  // Every Handoff batch is lost for longer than four failed batches take
  // (4 x the 800 ms call deadline) and than the joiner's 3 s warm window.
  pumpFor(6000);
  EXPECT_EQ(c.nodes[2]->server().primaryKeyCount(), 0u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(c.nodes[i]->membership().ringMemberCount(), 3u) << i;
  }
  // The streams still run: once batches get through, the joiner's range
  // lands and the incumbents demote it. A stream that gave up instead
  // would leave those keys primary on a node the ring no longer names,
  // and reading absent at their owner.
  joinEp.lossy = false;
  pumpFor(3000);
  EXPECT_EQ(c.nodes[0]->pendingHandoffJobs(), 0u);
  EXPECT_EQ(c.nodes[1]->pendingHandoffJobs(), 0u);
  EXPECT_EQ(c.nodes[2]->server().primaryKeyCount(), joinersKeys);
  EXPECT_EQ(c.nodes[0]->server().primaryKeyCount() +
                c.nodes[1]->server().primaryKeyCount() + joinersKeys,
            keys.size());
  expectAllReadable(c, client, keys, {0, 1});
}

TEST(OverlayNode, GracefulLeaveStreamsEverythingOut) {
  // Unbounded deadlines for the same cross-thread virtual-clock reason
  // as the join test.
  constexpr u64 kNoDeadline = u64{1} << 40;
  OverlayNode::Options base;
  base.rpc.requestDeadlineMs = kNoDeadline;
  OverlayCluster c(3, base);
  TestClient client(c.hub);
  const auto keys = preload(c, client, 40);
  const size_t leaverPrimaries = c.nodes[2]->server().primaryKeyCount();
  ASSERT_GT(leaverPrimaries, 0u);  // 40 keys across 3 nodes: owns some

  std::atomic<bool> done{false};
  size_t streamed = 0;
  std::thread leaveThread([&] {
    streamed = c.nodes[2]->leaveGracefully(/*deadlineMs=*/kNoDeadline);
    done.store(true);
  });
  while (!done.load()) {
    c.nodes[0]->pumpOnce(1);
    c.nodes[1]->pumpOnce(1);
  }
  leaveThread.join();
  EXPECT_EQ(streamed, leaverPrimaries);

  // Survivors saw the announcement: the leaver is Left and off the ring.
  for (size_t i = 0; i < 2; ++i) {
    auto entry = c.nodes[i]->membership().find(c.entries[2].id);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->state, static_cast<u8>(NodeState::Left));
    EXPECT_EQ(c.nodes[i]->membership().ringMemberCount(), 2u);
  }

  // Every record reads back through the survivors.
  auto leaver = std::move(c.nodes[2]);  // keep alive, but stop pumping it
  c.nodes.pop_back();
  expectAllReadable(c, client, keys, {0, 1});
}

TEST(OverlayNode, CrashIsDetectedAndReplicasPromoted) {
  OverlayNode::Options base;
  base.replication = 2;
  OverlayCluster c(3, base);
  TestClient client(c.hub);

  // Write primary + one replica exactly where the ring says they belong —
  // what a replication=2 RoutedNetDht does on every put.
  MemberRing ring(c.entries, base.virtualNodes);
  std::vector<std::string> keys;
  for (size_t i = 0; i < 30; ++i) {
    std::string key = "key-" + std::to_string(i);
    const std::string value = "val-" + std::to_string(i);
    const auto holders = ring.holders(key, 1);
    ASSERT_EQ(holders.size(), 2u);
    size_t ownerIdx = 0;
    size_t replicaIdx = 0;
    for (size_t j = 0; j < c.entries.size(); ++j) {
      if (c.entries[j].id == holders[0]) ownerIdx = j;
      if (c.entries[j].id == holders[1]) replicaIdx = j;
    }
    auto put = client.call(c, c.addr(ownerIdx), PutReq{key, value});
    ASSERT_TRUE(put.ok());
    auto rp = client.call(
        c, c.addr(replicaIdx),
        rpc::wire::ReplicaPutReq{key, value,
                                 std::get<PutRep>(put.body).version});
    ASSERT_TRUE(rp.ok());
    keys.push_back(std::move(key));
  }

  // Node 2 crashes (no goodbye). Gossip rounds to it now time out;
  // Alive → Suspect → Dead, then reconcile promotes the survivors'
  // replica copies of its range.
  c.hub.setOnline(static_cast<u16>(kBasePort + 2), false);
  const u64 deadId = c.entries[2].id;
  auto isDeadAt = [&](size_t i) {
    auto e = c.nodes[i]->membership().find(deadId);
    return e.has_value() && e->state >= static_cast<u8>(NodeState::Dead);
  };
  for (int i = 0; i < 50000 && !(isDeadAt(0) && isDeadAt(1)); ++i) {
    c.nodes[0]->pumpOnce(50);  // real waits: virtual clocks advance,
    c.nodes[1]->pumpOnce(50);  // gossip fires, timeouts accumulate
  }
  ASSERT_TRUE(isDeadAt(0) && isDeadAt(1));
  EXPECT_EQ(c.nodes[0]->membership().ringMemberCount(), 2u);
  EXPECT_GE(c.nodes[0]->overlayStats().gossipTimeouts +
                c.nodes[1]->overlayStats().gossipTimeouts,
            1u);
  EXPECT_GE(c.nodes[0]->overlayStats().replicasPromoted +
                c.nodes[1]->overlayStats().replicasPromoted,
            1u);

  // Zero lost keys: everything the dead node owned answers from the
  // promoted copies on the survivors.
  auto crashed = std::move(c.nodes[2]);
  c.nodes.pop_back();
  expectAllReadable(c, client, keys, {0, 1});
}

}  // namespace
}  // namespace lht::overlay
