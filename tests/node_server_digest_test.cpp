// NodeServer's digest guard through every write and install path: after a
// write, a conditional read carrying the digest of the value before it
// gets the new value (or reads absent), one carrying the new value's
// digest answers `unchanged`, and a CAS guarded by the old digest
// conflicts. Each case first reads the old value conditionally, so a
// server that kept a digest beside the value has one to go stale.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <variant>

#include "common/hash.h"
#include "rpc/node_server.h"
#include "rpc/wire.h"

namespace lht::rpc {
namespace {

using namespace wire;

const std::string kKey = "leaf";
const std::string kOld = std::string(1900, 'o');
const std::string kNew = std::string(1900, 'n');

class NodeServerDigest : public ::testing::Test {
 protected:
  template <typename Body>
  ReplyBody send(const Body& body) {
    // Fresh ids: a reused id on a write would replay the cached reply.
    const auto decoded =
        decodeReply(server_.handle(NetAddr{0, 7}, encodeRequest(nextId_++, body)));
    EXPECT_TRUE(std::holds_alternative<Reply>(decoded));
    const Reply& reply = std::get<Reply>(decoded);
    EXPECT_EQ(reply.header.status, Status::Ok);
    return reply.body;
  }

  /// The primary holds kOld, and a conditional read has matched it.
  void storeOldAndReadIt() {
    server_.installPrimary(kKey, 1, kOld);
    const GetRep rep = std::get<GetRep>(send(GetReq{kKey, digest(kOld)}));
    ASSERT_TRUE(rep.present && rep.unchanged);
  }

  /// What every read and guard must see once the write left `now` as the
  /// primary value (nullopt: the key is gone).
  void expectGuardsSee(const std::optional<std::string>& now) {
    const GetRep single = std::get<GetRep>(send(GetReq{kKey, digest(kOld)}));
    MultiGetReq batch;
    batch.entries = {GetReq{kKey, digest(kOld)}};
    const auto multi = std::get<MultiGetRep>(send(batch)).entries;
    ASSERT_EQ(multi.size(), 1u);
    for (const GetRep& rep : {single, multi[0]}) {
      EXPECT_EQ(rep.present, now.has_value());
      EXPECT_FALSE(rep.unchanged);
      EXPECT_EQ(rep.value, now.value_or(""));
    }
    if (now) {
      const GetRep held = std::get<GetRep>(send(GetReq{kKey, digest(*now)}));
      EXPECT_TRUE(held.present && held.unchanged);
      EXPECT_TRUE(held.value.empty());
    }
    const CasRep cas =
        std::get<CasRep>(send(CasReq{kKey, digest(kOld), true, "clobber"}));
    EXPECT_FALSE(cas.applied);
    EXPECT_EQ(cas.currentPresent, now.has_value());
    EXPECT_EQ(cas.currentValue, now.value_or(""));
    EXPECT_EQ(server_.primaryValue(kKey), now);
  }

  static u64 digest(const std::string& value) {
    return common::hash::valueDigest(value);
  }

  NodeServer server_;
  u64 nextId_ = 1;
};

TEST_F(NodeServerDigest, Put) {
  storeOldAndReadIt();
  send(PutReq{kKey, kNew});
  expectGuardsSee(kNew);
}

TEST_F(NodeServerDigest, Cas) {
  storeOldAndReadIt();
  ASSERT_TRUE(std::get<CasRep>(send(CasReq{kKey, digest(kOld), true, kNew})).applied);
  expectGuardsSee(kNew);
}

TEST_F(NodeServerDigest, CasErase) {
  storeOldAndReadIt();
  ASSERT_TRUE(std::get<CasRep>(send(CasReq{kKey, digest(kOld), false, ""})).applied);
  expectGuardsSee(std::nullopt);
}

TEST_F(NodeServerDigest, MultiCas) {
  storeOldAndReadIt();
  MultiCasReq batch;
  batch.entries = {CasReq{kKey, digest(kOld), true, kNew}};
  const auto entries = std::get<MultiCasRep>(send(batch)).entries;
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_TRUE(entries[0].applied);
  expectGuardsSee(kNew);
}

TEST_F(NodeServerDigest, Remove) {
  storeOldAndReadIt();
  EXPECT_TRUE(std::get<RemoveRep>(send(RemoveReq{kKey})).existed);
  expectGuardsSee(std::nullopt);
}

TEST_F(NodeServerDigest, Handoff) {
  storeOldAndReadIt();
  HandoffReq batch;
  batch.entries = {HandoffEntry{kKey, 5, kNew}};
  EXPECT_EQ(std::get<HandoffRep>(send(batch)).installed, 1u);
  expectGuardsSee(kNew);
}

TEST_F(NodeServerDigest, InstallPrimary) {
  storeOldAndReadIt();
  EXPECT_TRUE(server_.installPrimary(kKey, 5, kNew));
  expectGuardsSee(kNew);
}

TEST_F(NodeServerDigest, PromoteReplica) {
  send(ReplicaPutReq{kKey, kNew, 9});
  storeOldAndReadIt();
  EXPECT_EQ(server_.promoteReplica([](const std::string&) { return true; }), 1u);
  expectGuardsSee(kNew);
}

TEST_F(NodeServerDigest, DemotePrimary) {
  storeOldAndReadIt();
  EXPECT_EQ(server_.demotePrimary([](const std::string&) { return true; }), 1u);
  expectGuardsSee(std::nullopt);
}

TEST_F(NodeServerDigest, ReplicaPutOverADemotedCopy) {
  // The old value, read while it was a primary, steps down to a replica;
  // a replica push overwrites that copy, and promotion brings the pushed
  // value back as the primary.
  storeOldAndReadIt();
  EXPECT_EQ(server_.demotePrimary([](const std::string&) { return true; }), 1u);
  send(ReplicaPutReq{kKey, kNew, 9});
  EXPECT_EQ(server_.promoteReplica([](const std::string&) { return true; }), 1u);
  expectGuardsSee(kNew);
}

}  // namespace
}  // namespace lht::rpc
