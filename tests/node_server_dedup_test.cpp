// NodeServer dedup-cache bounds: the at-most-once guarantee lives in a
// FIFO cache keyed (source host, source port, request id). These tests
// pin down its edges — eviction at capacity re-executes an old
// retransmit, request-id reuse from a different source incarnation is a
// distinct request, ids are opaque u64s all the way to the top, and only
// requests that change the store are cached (reads run again).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "rpc/node_server.h"
#include "rpc/wire.h"

namespace lht::rpc {
namespace {

std::string putBytes(u64 requestId, const std::string& key,
                     const std::string& value) {
  return wire::encodeRequest(requestId, wire::PutReq{key, value});
}

u64 putVersion(const std::string& replyBytes) {
  auto decoded = wire::decodeReply(replyBytes);
  EXPECT_TRUE(std::holds_alternative<wire::Reply>(decoded));
  return std::get<wire::PutRep>(std::get<wire::Reply>(decoded).body).version;
}

TEST(NodeServerDedup, ReplaysCachedBytesVerbatim) {
  NodeServer srv;
  const NetAddr from{1, 1000};
  const std::string first = srv.handle(from, putBytes(7, "k", "v"));
  const std::string replay = srv.handle(from, putBytes(7, "k", "v"));
  EXPECT_EQ(first, replay);  // byte-identical, not re-encoded
  EXPECT_EQ(srv.stats().dedupHits, 1u);
  EXPECT_EQ(srv.stats().requestsHandled, 1u);
  // The mutation ran once: version stayed 1.
  ASSERT_TRUE(srv.primaryRecord("k").has_value());
  EXPECT_EQ(srv.primaryRecord("k")->first, 1u);
}

TEST(NodeServerDedup, EvictionAtCapacityReExecutes) {
  NodeServer::Options opts;
  opts.dedupCapacity = 3;
  NodeServer srv(opts);
  const NetAddr from{1, 1000};

  const std::string r1 = srv.handle(from, putBytes(1, "k", "a"));
  EXPECT_EQ(putVersion(r1), 1u);
  // Three fresh ids fill the cache past capacity; id 1 is the FIFO head
  // and falls out.
  (void)srv.handle(from, putBytes(2, "x2", "b"));
  (void)srv.handle(from, putBytes(3, "x3", "c"));
  (void)srv.handle(from, putBytes(4, "x4", "d"));

  // Id 4 is still cached: replayed, no re-execution.
  const std::string r4 = srv.handle(from, putBytes(4, "x4", "d"));
  EXPECT_EQ(srv.stats().dedupHits, 1u);
  EXPECT_EQ(putVersion(r4), 1u);

  // Id 1 was evicted: the retransmit re-executes (the documented limit of
  // a bounded cache — visible here as the version bumping to 2).
  const std::string r1again = srv.handle(from, putBytes(1, "k", "a"));
  EXPECT_EQ(srv.stats().dedupHits, 1u);  // not a cache hit
  EXPECT_EQ(putVersion(r1again), 2u);
  EXPECT_EQ(srv.primaryRecord("k")->first, 2u);
}

TEST(NodeServerDedup, SameIdNewSourceIncarnationIsDistinct) {
  // A restarted client re-randomizes its id space, but the cache must be
  // safe even against an outright collision: the source (host, port) is
  // part of the key, so a different incarnation (different ephemeral
  // port) executes fresh instead of stealing the predecessor's reply.
  NodeServer srv;
  const NetAddr gen1{1, 1000};
  const NetAddr gen2{1, 2000};  // same host, new ephemeral port

  const std::string r1 = srv.handle(gen1, putBytes(42, "k", "first"));
  EXPECT_EQ(putVersion(r1), 1u);
  const std::string r2 = srv.handle(gen2, putBytes(42, "k", "second"));
  EXPECT_EQ(putVersion(r2), 2u);  // executed, not replayed
  EXPECT_EQ(srv.stats().dedupHits, 0u);
  EXPECT_EQ(srv.primaryValue("k").value(), "second");

  // Each incarnation's retransmit still replays its OWN reply: gen1 sees
  // version 1 even though the store has moved on.
  EXPECT_EQ(putVersion(srv.handle(gen1, putBytes(42, "k", "first"))), 1u);
  EXPECT_EQ(putVersion(srv.handle(gen2, putBytes(42, "k", "second"))), 2u);
  EXPECT_EQ(srv.stats().dedupHits, 2u);
  // A different host with the same port+id is yet another key.
  const NetAddr other{2, 1000};
  EXPECT_EQ(putVersion(srv.handle(other, putBytes(42, "k", "third"))), 3u);
}

TEST(NodeServerDedup, IdSpaceEdgesAreOpaque) {
  // Ids at the wraparound edges of u64 are nothing special: cached and
  // replayed like any other, and 0 does not collide with ~0.
  NodeServer srv;
  const NetAddr from{1, 1000};
  const u64 top = ~u64{0};
  EXPECT_EQ(putVersion(srv.handle(from, putBytes(top, "k", "v"))), 1u);
  EXPECT_EQ(putVersion(srv.handle(from, putBytes(0, "k", "v"))), 2u);
  // Both replay from cache independently.
  EXPECT_EQ(putVersion(srv.handle(from, putBytes(top, "k", "v"))), 1u);
  EXPECT_EQ(putVersion(srv.handle(from, putBytes(0, "k", "v"))), 2u);
  EXPECT_EQ(srv.stats().dedupHits, 2u);
}

TEST(NodeServerDedup, BadRequestsDoNotPolluteTheCache) {
  // Undecodable traffic is answered (or dropped) before the dedup lookup;
  // a later well-formed request under the same id must execute.
  NodeServer srv;
  const NetAddr from{1, 1000};
  std::string broken = putBytes(9, "k", "v");
  broken.resize(broken.size() - 2);  // truncate the body
  const std::string errReply = srv.handle(from, broken);
  EXPECT_FALSE(errReply.empty());  // header parsed: BadRequest, not silence
  EXPECT_EQ(srv.stats().badRequests, 1u);

  const std::string ok = srv.handle(from, putBytes(9, "k", "v"));
  EXPECT_EQ(putVersion(ok), 1u);
  EXPECT_EQ(srv.stats().dedupHits, 0u);
  EXPECT_TRUE(srv.primaryRecord("k").has_value());
}

/// The value a Get / ReplicaGet reply carries ("" when absent).
std::string getValue(const std::string& replyBytes) {
  auto decoded = wire::decodeReply(replyBytes);
  EXPECT_TRUE(std::holds_alternative<wire::Reply>(decoded));
  return std::get<wire::GetRep>(std::get<wire::Reply>(decoded).body).value;
}

TEST(NodeServerDedup, ReadRetransmitsRunAgain) {
  NodeServer srv;
  const NetAddr from{1, 1000};
  (void)srv.handle(from, putBytes(1, "k", "old"));
  (void)srv.handle(from, wire::encodeRequest(
                             2, wire::ReplicaPutReq{"r", "old", 1}));
  const std::string get = wire::encodeRequest(3, wire::GetReq{"k"});
  const std::string replicaGet = wire::encodeRequest(4, wire::ReplicaGetReq{"r"});
  wire::MultiGetReq mg;
  mg.entries.push_back(wire::GetReq{"k"});
  const std::string multiGet = wire::encodeRequest(5, mg);
  EXPECT_EQ(getValue(srv.handle(from, get)), "old");
  EXPECT_EQ(getValue(srv.handle(from, replicaGet)), "old");
  (void)srv.handle(from, multiGet);

  // Writes land between the reads and their retransmits.
  (void)srv.handle(from, putBytes(6, "k", "new"));
  (void)srv.handle(from, wire::encodeRequest(
                             7, wire::ReplicaPutReq{"r", "new", 2}));
  const size_t cached = srv.dedupSize();

  // Each retransmit executes again and sees the newer value: no dedup
  // hit, and the cache neither grew nor replayed a stale read.
  EXPECT_EQ(getValue(srv.handle(from, get)), "new");
  EXPECT_EQ(getValue(srv.handle(from, replicaGet)), "new");
  auto decoded = wire::decodeReply(srv.handle(from, multiGet));
  ASSERT_TRUE(std::holds_alternative<wire::Reply>(decoded));
  const auto& rep =
      std::get<wire::MultiGetRep>(std::get<wire::Reply>(decoded).body);
  ASSERT_EQ(rep.entries.size(), 1u);
  EXPECT_EQ(rep.entries[0].value, "new");
  EXPECT_EQ(srv.stats().dedupHits.load(), 0u);
  EXPECT_EQ(srv.dedupSize(), cached);
  EXPECT_EQ(cached, 4u);  // the four writes, none of the reads
}

TEST(NodeServerDedup, MutatingRetransmitsReplayByteIdentical) {
  NodeServer srv;
  const NetAddr from{1, 1000};
  (void)srv.handle(from, putBytes(1, "gone", "x"));
  wire::MultiCasReq multiCas;
  multiCas.entries.push_back(wire::CasReq{"m1", 0, true, "a"});
  multiCas.entries.push_back(wire::CasReq{"m2", 0, true, "b"});
  const std::vector<std::pair<u64, wire::RequestBody>> writes = {
      {10, wire::PutReq{"p", "1"}},
      {11, wire::CasReq{"c", 0, true, "2"}},
      {12, multiCas},
      {13, wire::RemoveReq{"gone"}},
      {14, wire::ReplicaPutReq{"rp", "3", 7}},
  };
  std::vector<std::string> firsts;
  for (const auto& [id, body] : writes) {
    firsts.push_back(srv.handle(from, wire::encodeRequest(id, body)));
  }
  // Move the store on, so a re-execution would answer (or act)
  // differently: a re-put bumps p's version, a re-CAS conflicts, a
  // re-remove finds nothing, a replayed ReplicaPut would roll rp back.
  (void)srv.handle(from, putBytes(20, "p", "newer"));
  (void)srv.handle(from, wire::encodeRequest(
                             21, wire::ReplicaPutReq{"rp", "newer", 9}));

  for (size_t i = 0; i < writes.size(); ++i) {
    EXPECT_EQ(srv.handle(from, wire::encodeRequest(writes[i].first,
                                                   writes[i].second)),
              firsts[i])
        << "request " << writes[i].first;
  }
  EXPECT_EQ(srv.stats().dedupHits.load(), writes.size());
  EXPECT_EQ(srv.primaryValue("p").value(), "newer");
  EXPECT_EQ(srv.replicaValue("rp").value(), "newer");
}

}  // namespace
}  // namespace lht::rpc
