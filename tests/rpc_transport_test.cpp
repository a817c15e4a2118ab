// RPC layer over the deterministic SimHub twin: retransmit-on-drop,
// deadline timeouts, reordering tolerance, and at-most-once execution
// (server dedup replaying a lost reply instead of re-executing); and
// NodeServer's own answers: prefix replies, the datagram cap, and
// conditional reads.
#include "rpc/rpc_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "rpc/node_server.h"
#include "rpc/sim_transport.h"

namespace lht::rpc {
namespace {

using namespace wire;

/// A NodeServer living "in" the hub at `port` (handler endpoint).
void attachServer(SimHub& hub, NodeServer& server, u16 port) {
  hub.registerHandler(port, [&server](const Datagram& d,
                                      const std::function<void(std::string)>& reply) {
    std::string out = server.handle(d.from, d.payload);
    if (!out.empty()) reply(std::move(out));
  });
}

TEST(SimTransport, DeliversAndCounts) {
  SimHub hub;
  auto a = hub.makeEndpoint(100);
  auto b = hub.makeEndpoint(200);
  EXPECT_TRUE(a->send(NetAddr{0, 200}, "hello"));
  std::vector<Datagram> got;
  EXPECT_EQ(b->receive(got, 0), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].payload, "hello");
  EXPECT_EQ(got[0].from.port, 100);
  EXPECT_EQ(a->stats().datagramsSent.load(), 1u);
  EXPECT_EQ(b->stats().datagramsReceived.load(), 1u);
}

TEST(SimTransport, EmptyWaitAdvancesVirtualClock) {
  SimHub hub;
  auto a = hub.makeEndpoint();
  std::vector<Datagram> got;
  const u64 before = a->nowMs();
  EXPECT_EQ(a->receive(got, 250), 0u);
  EXPECT_EQ(a->nowMs(), before + 250);
}

TEST(SimTransport, OversizedSendRejected) {
  SimHub hub;
  auto a = hub.makeEndpoint();
  std::string big(kMaxDatagramBytes + 1, 'x');
  EXPECT_FALSE(a->send(NetAddr{0, 999}, big));
  EXPECT_EQ(a->stats().sendErrors.load(), 1u);
}

TEST(RpcClient, BasicCall) {
  SimHub hub;
  NodeServer server;
  attachServer(hub, server, 1000);
  auto endpoint = hub.makeEndpoint();
  RpcClient cli(*endpoint);
  auto r = cli.callOne(NetAddr{0, 1000}, PutReq{"k", "v"});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::get<PutRep>(r.body).version, 1u);
  r = cli.callOne(NetAddr{0, 1000}, GetReq{"k"});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::get<GetRep>(r.body).present);
  EXPECT_EQ(std::get<GetRep>(r.body).value, "v");
  EXPECT_EQ(r.sends, 1u);
}

TEST(RpcClient, RetransmitRecoversDroppedRequest) {
  SimHub hub;
  NodeServer server;
  attachServer(hub, server, 1000);
  auto endpoint = hub.makeEndpoint();
  RpcClient cli(*endpoint);
  hub.dropNext(1);  // lose the first request datagram
  auto r = cli.callOne(NetAddr{0, 1000}, PutReq{"k", "v"});
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.sends, 2u);
  EXPECT_GE(cli.stats().retransmits.load(), 1u);
  EXPECT_EQ(server.primaryValue("k"), "v");
}

TEST(RpcClient, LostReplyDoesNotReExecute) {
  SimHub hub;
  NodeServer server;
  // A handler that executes every request but swallows its first reply:
  // the "request arrived, reply lost" half of the at-most-once problem.
  int replyDrops = 1;
  hub.registerHandler(
      1000, [&](const Datagram& d, const std::function<void(std::string)>& reply) {
        std::string out = server.handle(d.from, d.payload);
        if (out.empty()) return;
        if (replyDrops > 0) {
          --replyDrops;
          return;
        }
        reply(std::move(out));
      });
  auto endpoint = hub.makeEndpoint();
  RpcClient cli(*endpoint);

  // CAS expecting the key absent (guard 0). The first request executes
  // but its reply is lost; the retransmit must be answered from the dedup
  // cache, NOT re-executed — a re-execution would find the value it wrote
  // where it expects none and spuriously conflict.
  auto r = cli.callOne(NetAddr{0, 1000}, CasReq{"k", 0, true, "v1"});
  ASSERT_TRUE(r.ok());
  const auto& rep = std::get<CasRep>(r.body);
  EXPECT_TRUE(rep.applied);
  EXPECT_GE(r.sends, 2u);
  EXPECT_GE(server.stats().dedupHits.load(), 1u);
  EXPECT_EQ(server.primaryValue("k"), "v1");
}

/// A fresh client's request ids start at a random point that encodes in
/// at most five varint bytes, so its request header is at most 9 bytes.
TEST(RpcClient, FreshClientsSendNineByteHeaders) {
  SimHub hub;
  std::vector<std::string> seen;
  hub.registerHandler(1000, [&seen](const Datagram& d,
                                    const std::function<void(std::string)>&) {
    seen.push_back(d.payload);
  });
  for (int i = 0; i < 64; ++i) {
    auto endpoint = hub.makeEndpoint();
    RpcClient cli(*endpoint);
    (void)cli.call(NetAddr{0, 1000}, PingReq{});
  }
  ASSERT_EQ(seen.size(), 64u);
  std::set<u64> ids;
  for (const std::string& d : seen) {
    EXPECT_LE(d.size(), 9u);  // a Ping is all header
    const Header h = std::get<Header>(decodeHeader(d));
    EXPECT_GE(h.requestId, 1u);
    EXPECT_LE(h.requestId, u64{1} << 34);
    ids.insert(h.requestId);
  }
  // Random starts: 64 draws from 2^34 repeat with odds about 1e-7.
  EXPECT_EQ(ids.size(), seen.size());
}

TEST(RpcClient, DeadEndpointTimesOut) {
  SimHub hub;
  NodeServer server;
  attachServer(hub, server, 1000);
  hub.setOnline(1000, false);
  auto endpoint = hub.makeEndpoint();
  RpcClient::Options opts;
  opts.requestDeadlineMs = 500;
  RpcClient cli(*endpoint, opts);
  auto r = cli.callOne(NetAddr{0, 1000}, GetReq{"k"});
  EXPECT_TRUE(r.timedOut);
  EXPECT_FALSE(r.ok());
  EXPECT_GE(r.sends, 2u);  // it kept trying until the deadline
  EXPECT_EQ(cli.stats().timeouts.load(), 1u);
  // Virtual time advanced past the deadline, not unboundedly.
  EXPECT_GE(endpoint->nowMs(), 500u);
  EXPECT_LT(endpoint->nowMs(), 5000u);
}

TEST(RpcClient, ManyInFlightSettleTogether) {
  SimHub hub;
  NodeServer server;
  attachServer(hub, server, 1000);
  auto endpoint = hub.makeEndpoint();
  RpcClient cli(*endpoint);
  std::vector<RpcClient::Token> tokens;
  for (int i = 0; i < 64; ++i) {
    tokens.push_back(cli.call(NetAddr{0, 1000},
                              PutReq{common::numbered("k", i), "v"}));
  }
  // Replies are already queued (inline hub) but not yet processed.
  EXPECT_EQ(cli.pendingCount(), 64u);
  cli.settle();
  EXPECT_EQ(cli.pendingCount(), 0u);
  for (auto t : tokens) EXPECT_TRUE(cli.take(t).ok());
  EXPECT_EQ(server.primaryKeyCount(), 64u);
}

TEST(RpcClient, SeededLossStillCompletes) {
  SimHub::Options hopts;
  hopts.dropProbability = 0.2;
  hopts.duplicateProbability = 0.05;
  hopts.reorderProbability = 0.1;
  hopts.seed = 99;
  SimHub hub(hopts);
  NodeServer server;
  attachServer(hub, server, 1000);
  auto endpoint = hub.makeEndpoint();
  RpcClient::Options opts;
  opts.initialRetransmitMs = 10;
  opts.requestDeadlineMs = 60'000;
  RpcClient cli(*endpoint, opts);
  for (int i = 0; i < 200; ++i) {
    auto r = cli.callOne(NetAddr{0, 1000},
                         PutReq{common::numbered("k", i), std::to_string(i)});
    ASSERT_TRUE(r.ok()) << "op " << i;
  }
  EXPECT_EQ(server.primaryKeyCount(), 200u);
  EXPECT_GT(cli.stats().retransmits.load(), 0u);
  EXPECT_GT(hub.datagramsDropped(), 0u);
  // At-most-once held under duplicates+retransmits: every stored value
  // is the one its own put wrote.
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(server.primaryValue(common::numbered("k", i)),
              std::to_string(i));
  }
}

TEST(RpcClient, OversizedRequestFailsFastLocally) {
  SimHub hub;
  NodeServer server;
  attachServer(hub, server, 1000);
  auto endpoint = hub.makeEndpoint();
  RpcClient cli(*endpoint);
  const u64 before = endpoint->nowMs();
  auto r = cli.callOne(NetAddr{0, 1000},
                       PutReq{"k", std::string(kMaxDatagramBytes, 'x')});
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.timedOut);  // a local failure, not a fake remote timeout
  EXPECT_EQ(r.status, Status::TooLarge);
  EXPECT_EQ(r.sends, 0u);  // never touched the wire
  EXPECT_EQ(cli.stats().oversized.load(), 1u);
  EXPECT_EQ(endpoint->stats().datagramsSent.load(), 0u);
  // Resolved immediately: no request deadline burned waiting on silence.
  EXPECT_EQ(endpoint->nowMs(), before);
  // The client stays usable for normal traffic afterwards.
  EXPECT_TRUE(cli.callOne(NetAddr{0, 1000}, PutReq{"k", "v"}).ok());
}

TEST(RpcClient, MismatchedOpReplyIgnored) {
  SimHub hub;
  // A peer that echoes our ids under the wrong op — the shape a dedup
  // cache replaying a previous incarnation's reply takes. Accepting it
  // would hand a GetRep to a caller that sent a Put (bad_variant_access
  // downstream); the client must drop it as stale and time out instead.
  hub.registerHandler(
      1000, [](const Datagram& d, const std::function<void(std::string)>& reply) {
        auto decoded = decodeRequest(d.payload);
        if (!std::holds_alternative<Request>(decoded)) return;
        reply(encodeReply(std::get<Request>(decoded).header.requestId, Op::Get,
                          Status::Ok, GetRep{}));
      });
  auto endpoint = hub.makeEndpoint();
  RpcClient::Options opts;
  opts.requestDeadlineMs = 300;
  RpcClient cli(*endpoint, opts);
  auto r = cli.callOne(NetAddr{0, 1000}, PutReq{"k", "v"});
  EXPECT_TRUE(r.timedOut);
  EXPECT_EQ(r.op, Op::Put);  // the request's op survives the timeout
  EXPECT_GE(cli.stats().staleReplies.load(), 1u);
}

TEST(NodeServer, UnknownOpcodeGetsUnknownOpReply) {
  NodeServer server;
  // Hand-build a framed request carrying a future opcode (99): a newer
  // client must get a fast UnknownOp echo, not a silent timeout.
  std::string req = encodeRequest(7, PingReq{});
  req[2] = static_cast<char>(99);
  std::string reply = server.handle(NetAddr{0, 7}, req);
  ASSERT_FALSE(reply.empty());
  auto h = decodeHeader(reply);  // lenient peek: unknown op passes through
  ASSERT_TRUE(std::holds_alternative<Header>(h));
  const Header& hd = std::get<Header>(h);
  EXPECT_TRUE(hd.isReply);
  EXPECT_EQ(hd.status, Status::UnknownOp);
  EXPECT_EQ(hd.requestId, 7u);
  EXPECT_EQ(static_cast<u8>(hd.op), 99u);
}

TEST(NodeServer, SilentOnGarbageRepliesOnBrokenBody) {
  NodeServer server;
  // Pure noise: silence.
  EXPECT_TRUE(server.handle(NetAddr{0, 7}, "not-a-message").empty());
  // Valid header, truncated body: a BadRequest reply.
  std::string req = encodeRequest(42, PutReq{"key", "value"});
  std::string truncated = req.substr(0, req.size() - 3);
  std::string reply = server.handle(NetAddr{0, 7}, truncated);
  ASSERT_FALSE(reply.empty());
  auto decoded = decodeReply(reply);
  ASSERT_TRUE(std::holds_alternative<Reply>(decoded));
  EXPECT_EQ(std::get<Reply>(decoded).header.status, Status::BadRequest);
  EXPECT_EQ(std::get<Reply>(decoded).header.requestId, 42u);
}

TEST(NodeServer, VersionsAdvancePerKey) {
  SimHub hub;
  NodeServer server;
  attachServer(hub, server, 10);
  auto endpoint = hub.makeEndpoint();
  RpcClient cli(*endpoint);
  auto call = [&](const RequestBody& body) -> ReplyBody {
    auto res = cli.callOne(NetAddr{0, 10}, body);
    EXPECT_TRUE(res.ok());
    return res.body;
  };
  EXPECT_EQ(std::get<PutRep>(call(PutReq{"a", "1"})).version, 1u);
  EXPECT_EQ(std::get<PutRep>(call(PutReq{"a", "2"})).version, 2u);
  // A CAS is guarded by the digest of the value it starts from; the
  // daemon still numbers the versions.
  auto cas = std::get<CasRep>(
      call(CasReq{"a", common::hash::valueDigest("2"), true, "3"}));
  EXPECT_TRUE(cas.applied);
  EXPECT_EQ(cas.currentVersion, 3u);
  auto conflict = std::get<CasRep>(
      call(CasReq{"a", common::hash::valueDigest("1"), true, "x"}));
  EXPECT_FALSE(conflict.applied);
  EXPECT_EQ(conflict.currentVersion, 3u);
  EXPECT_EQ(conflict.currentValue, "3");
}

/// Decodes a reply the test expects to be well formed.
Reply decodedReply(const std::string& bytes) {
  auto decoded = decodeReply(bytes);
  EXPECT_TRUE(std::holds_alternative<Reply>(decoded));
  return std::get<Reply>(std::move(decoded));
}

/// ROADMAP item 10's first probe case at the daemon. A key erased and
/// created again restarts at version 1, so after as many writes it is back
/// at the version of a copy of its erased incarnation. A CAS guarded by
/// that copy's digest conflicts and carries the new value, alone and in a
/// MultiCas; a guard naming the new bytes applies.
TEST(NodeServer, CasFromAnErasedIncarnationConflicts) {
  NodeServer server;
  u64 id = 1;
  const auto send = [&](const RequestBody& body) {
    return decodedReply(server.handle(NetAddr{0, 7}, encodeRequest(id++, body))).body;
  };
  (void)send(PutReq{"leaf", "old-1"});
  (void)send(PutReq{"leaf", "old-2"});
  const u64 erased = common::hash::valueDigest("old-2");  // a copy at version 2
  EXPECT_TRUE(std::get<RemoveRep>(send(RemoveReq{"leaf"})).existed);
  (void)send(PutReq{"leaf", "new-1"});
  EXPECT_EQ(std::get<PutRep>(send(PutReq{"leaf", "new-2"})).version, 2u);

  const auto conflict = std::get<CasRep>(send(CasReq{"leaf", erased, true, "old-2+x"}));
  EXPECT_FALSE(conflict.applied);
  EXPECT_TRUE(conflict.currentPresent);
  EXPECT_EQ(conflict.currentVersion, 2u);
  EXPECT_EQ(conflict.currentValue, "new-2");
  MultiCasReq batch;
  batch.entries = {CasReq{"leaf", erased, true, "old-2+y"}};
  const auto multi = std::get<MultiCasRep>(send(batch));
  ASSERT_EQ(multi.entries.size(), 1u);
  EXPECT_EQ(multi.entries[0], conflict);
  EXPECT_EQ(server.primaryValue("leaf"), "new-2");
  EXPECT_EQ(server.stats().casConflicts.load(), 2u);

  const auto applied = std::get<CasRep>(
      send(CasReq{"leaf", common::hash::valueDigest("new-2"), true, "new-2+x"}));
  EXPECT_TRUE(applied.applied);
  EXPECT_EQ(applied.currentVersion, 3u);
  EXPECT_EQ(server.primaryValue("leaf"), "new-2+x");
}

MultiGetReq multiGetOf(const std::vector<std::string>& keys) {
  MultiGetReq req;
  for (const auto& k : keys) req.entries.push_back(GetReq{k});
  return req;
}

TEST(NodeServer, MultiGetAnswersTheLongestPrefixThatFits) {
  NodeServer server;
  const std::string value(20 * 1024, 'v');
  for (int i = 0; i < 5; ++i) {
    server.installPrimary(common::numbered("k", i), 1, value);
  }
  // Two 20 KB values fit one datagram, three do not: the reply answers
  // the first two, in order, and leaves room for a gossip hint trailer.
  const std::string bytes = server.handle(
      NetAddr{0, 7}, encodeRequest(1, multiGetOf({"k0", "k1", "k2", "k3", "k4"})));
  EXPECT_LE(bytes.size() + kMaxGossipHintBytes, kMaxDatagramBytes);
  Reply reply = decodedReply(bytes);
  ASSERT_EQ(reply.header.status, Status::Ok);
  const auto& rep = std::get<MultiGetRep>(reply.body);
  ASSERT_EQ(rep.entries.size(), 2u);
  for (const GetRep& g : rep.entries) {
    EXPECT_TRUE(g.present);
    EXPECT_EQ(g.value, value);
  }
  EXPECT_EQ(server.stats().prefixReplies.load(), 1u);

  // Re-sending the tail answers the next prefix; a tail that fits is
  // answered whole.
  Reply next = decodedReply(
      server.handle(NetAddr{0, 7}, encodeRequest(2, multiGetOf({"k2", "k3", "k4"}))));
  EXPECT_EQ(std::get<MultiGetRep>(next.body).entries.size(), 2u);
  Reply last = decodedReply(
      server.handle(NetAddr{0, 7}, encodeRequest(3, multiGetOf({"k4"}))));
  EXPECT_EQ(std::get<MultiGetRep>(last.body).entries.size(), 1u);
  EXPECT_EQ(server.stats().prefixReplies.load(), 2u);
  EXPECT_EQ(server.stats().oversizedReplies.load(), 0u);
}

TEST(NodeServer, EntryTooLargeForAnyDatagramIsTooLarge) {
  NodeServer server;
  server.installPrimary("big", 1, std::string(kMaxDatagramBytes, 'b'));
  server.installPrimary("small", 1, "s");
  // Leading the batch, the oversized entry fails the reply: TooLarge
  // says "my first entry alone does not fit".
  Reply first = decodedReply(
      server.handle(NetAddr{0, 7}, encodeRequest(1, multiGetOf({"big", "small"}))));
  EXPECT_EQ(first.header.status, Status::TooLarge);
  // Behind another entry it just ends the prefix.
  Reply behind = decodedReply(
      server.handle(NetAddr{0, 7}, encodeRequest(2, multiGetOf({"small", "big"}))));
  ASSERT_EQ(behind.header.status, Status::Ok);
  ASSERT_EQ(std::get<MultiGetRep>(behind.body).entries.size(), 1u);
  EXPECT_EQ(std::get<MultiGetRep>(behind.body).entries[0].value, "s");
  Reply single = decodedReply(
      server.handle(NetAddr{0, 7}, encodeRequest(3, GetReq{"big"})));
  EXPECT_EQ(single.header.status, Status::TooLarge);
  EXPECT_EQ(server.stats().oversizedReplies.load(), 2u);
}

TEST(NodeServer, RepliesLeaveRoomForTheHintTrailer) {
  NodeServer server;
  // A Get reply is 4 header bytes + the id varint (1 byte for id 1) + a
  // flag, a 1-byte version, the `unchanged` flag and a 3-byte length
  // varint + the value.
  const size_t overhead = 4 + 1 + 1 + 1 + 1 + 3;
  const size_t fits = kMaxDatagramBytes - kMaxGossipHintBytes - overhead;
  server.installPrimary("edge", 1, std::string(fits, 'e'));
  server.installPrimary("window", 1, std::string(fits + 5, 'w'));
  const std::string edge =
      server.handle(NetAddr{0, 7}, encodeRequest(1, GetReq{"edge"}));
  EXPECT_EQ(edge.size(), kMaxDatagramBytes - kMaxGossipHintBytes);
  EXPECT_EQ(decodedReply(edge).header.status, Status::Ok);
  // Under the cap, but a hint trailer would push it over: TooLarge now,
  // not a reply no transport will carry.
  EXPECT_EQ(decodedReply(server.handle(NetAddr{0, 7},
                                       encodeRequest(2, GetReq{"window"})))
                .header.status,
            Status::TooLarge);
}

// Conditional reads: a Get carrying the digest of the copy its caller
// holds is answered `unchanged`, with the version and no value, exactly
// while the stored value still has that digest.

GetRep getOf(NodeServer& server, u64 id, const std::string& key, u64 held) {
  const Reply reply =
      decodedReply(server.handle(NetAddr{0, 7}, encodeRequest(id, GetReq{key, held})));
  EXPECT_EQ(reply.header.status, Status::Ok);
  return std::get<GetRep>(reply.body);
}

TEST(NodeServer, MatchingDigestAnswersUnchangedWithTheVersion) {
  NodeServer server;
  const std::string value(1900, 'b');
  server.installPrimary("leaf", 7, value);
  const std::string bytes = server.handle(
      NetAddr{0, 7}, encodeRequest(1, GetReq{"leaf", common::hash::valueDigest(value)}));
  const GetRep rep = std::get<GetRep>(decodedReply(bytes).body);
  EXPECT_TRUE(rep.present);
  EXPECT_TRUE(rep.unchanged);
  EXPECT_EQ(rep.version, 7u);
  EXPECT_TRUE(rep.value.empty());
  EXPECT_LE(bytes.size(), 8u);  // header, id, present, version, unchanged
  EXPECT_EQ(server.stats().unchangedReads.load(), 1u);
}

TEST(NodeServer, ChangedAbsentOrUnheldReadsAnswerAsBefore) {
  NodeServer server;
  server.installPrimary("leaf", 1, "old");
  const u64 held = common::hash::valueDigest("old");
  server.installPrimary("leaf", 2, "new");
  // The value changed since the caller's copy: it ships.
  const GetRep changed = getOf(server, 1, "leaf", held);
  EXPECT_TRUE(changed.present);
  EXPECT_FALSE(changed.unchanged);
  EXPECT_EQ(changed.version, 2u);
  EXPECT_EQ(changed.value, "new");
  // An absent key reads absent, whatever the caller holds.
  const GetRep absent = getOf(server, 2, "gone", held);
  EXPECT_FALSE(absent.present);
  EXPECT_FALSE(absent.unchanged);
  // Digest 0 holds nothing, even for a value whose digest is asked about.
  const GetRep plain = getOf(server, 3, "leaf", 0);
  EXPECT_FALSE(plain.unchanged);
  EXPECT_EQ(plain.value, "new");
  // The same entries inside a MultiGet.
  MultiGetReq batch;
  batch.entries = {GetReq{"leaf", held}, GetReq{"gone", held}, GetReq{"leaf", 0}};
  const Reply reply =
      decodedReply(server.handle(NetAddr{0, 7}, encodeRequest(4, batch)));
  const auto& entries = std::get<MultiGetRep>(reply.body).entries;
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], changed);
  EXPECT_EQ(entries[1], absent);
  EXPECT_EQ(entries[2], plain);
  EXPECT_EQ(server.stats().unchangedReads.load(), 0u);
}

TEST(NodeServer, HeldMultiGetAnswersEveryEntryInOneReply) {
  NodeServer server;
  MultiGetReq full;
  MultiGetReq held;
  for (int i = 0; i < 40; ++i) {
    const std::string key = common::numbered("leaf", i);
    const std::string value = std::string(2000, 'v') + key;
    server.installPrimary(key, 1, value);
    full.entries.push_back(GetReq{key});
    held.entries.push_back(GetReq{key, common::hash::valueDigest(value)});
  }
  // 80 KB of values need a prefix reply ...
  const Reply prefix =
      decodedReply(server.handle(NetAddr{0, 7}, encodeRequest(1, full)));
  EXPECT_LT(std::get<MultiGetRep>(prefix.body).entries.size(), 40u);
  EXPECT_EQ(server.stats().prefixReplies.load(), 1u);
  // ... while the held copies are all revalidated in one small one.
  const std::string bytes = server.handle(NetAddr{0, 7}, encodeRequest(2, held));
  const Reply reply = decodedReply(bytes);
  const auto& entries = std::get<MultiGetRep>(reply.body).entries;
  ASSERT_EQ(entries.size(), 40u);
  for (const GetRep& g : entries) {
    EXPECT_TRUE(g.present && g.unchanged);
    EXPECT_TRUE(g.value.empty());
  }
  EXPECT_LE(bytes.size(), 8 + 3 * 40u);
  EXPECT_EQ(server.stats().prefixReplies.load(), 1u);
  EXPECT_EQ(server.stats().unchangedReads.load(), 40u);
}

}  // namespace
}  // namespace lht::rpc
