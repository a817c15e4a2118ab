// Wire-format tests: pin every message kind's bytes, round-trip every
// message kind, then hold the codec to its "decoding is total" promise by
// truncating and bit-flipping real datagrams — typed DecodeErrors only,
// never a crash or an over-read (ASan enforces the latter in the
// asan-ubsan preset).
#include "rpc/wire.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/random.h"

namespace lht::rpc::wire {
namespace {

// Every request body, one of each opcode, with representative payloads
// (empty strings, binary bytes, multi-entry batches). Each holds only what
// the wire carries (an erase has no value), so it decodes back equal.
std::vector<RequestBody> sampleRequests() {
  std::vector<RequestBody> out;
  out.push_back(PingReq{});
  out.push_back(PutReq{"leaf/0101", std::string("\x00\xff\x7f bucket", 9)});
  out.push_back(PutReq{"", ""});
  out.push_back(GetReq{"leaf/0101"});
  out.push_back(RemoveReq{"k"});
  // A CAS guard is the digest of the value the writer started from.
  out.push_back(CasReq{"leaf/1", common::hash::valueDigest("old-bytes"), true,
                       "new-bytes"});
  out.push_back(CasReq{"leaf/2", 0, false, ""});  // expect-absent erase
  MultiGetReq mg;
  for (int i = 0; i < 40; ++i) mg.entries.push_back(GetReq{common::numbered("k", i)});
  out.push_back(std::move(mg));
  MultiCasReq mc;
  for (int i = 0; i < 7; ++i) {
    const bool present = i % 2 == 0;
    mc.entries.push_back(CasReq{common::numbered("k", i),
                                i == 0 ? 0 : common::hash::valueDigest(std::string(i, 'o')),
                                present, present ? std::string(i * 3, 'v') : ""});
  }
  out.push_back(std::move(mc));
  out.push_back(ReplicaPutReq{"leaf/0", "copy", 17});
  out.push_back(ReplicaRemoveReq{"leaf/0"});
  out.push_back(ReplicaGetReq{"leaf/0"});
  out.push_back(SizeReq{});
  out.push_back(SyncReq{});
  out.push_back(CompactReq{});
  // Overlay membership protocol (DESIGN.md §15).
  GossipSyncReq gs;
  gs.senderId = 0xAB54A98CEB1F0AD2ull;
  gs.version = 17;
  gs.entries.push_back(NodeEntry{0x1111, 0x7F000001u, 9001, 3, 1, 0x1111});
  gs.entries.push_back(NodeEntry{0x2222, 0, 9002, 1, 0, 0x2222});
  out.push_back(std::move(gs));
  out.push_back(GossipSyncReq{});  // a client pull: senderId 0, no entries
  out.push_back(JoinReq{NodeEntry{0x3333, 0x7F000001u, 9003, 1, 0, 0x3333}});
  out.push_back(LeaveReq{0x4444, 12});
  HandoffReq ho;
  ho.entries.push_back(HandoffEntry{"leaf/0101", 5, std::string("\x00z", 2)});
  ho.entries.push_back(HandoffEntry{"", 0, ""});
  out.push_back(std::move(ho));
  // Conditional reads: the digest of the copy the caller holds.
  out.push_back(GetReq{"leaf/0101", 0x9E3779B97F4A7C15ull});
  MultiGetReq held;
  held.entries.push_back(GetReq{"#01", 0xC0FFEEull});
  held.entries.push_back(GetReq{"#1", 0});
  out.push_back(std::move(held));
  return out;
}

struct SampleReply {
  Op op;
  ReplyBody body;
};

std::vector<SampleReply> sampleReplies() {
  std::vector<SampleReply> out;
  out.push_back({Op::Ping, PingRep{"node-3"}});
  out.push_back({Op::Put, PutRep{9}});
  out.push_back({Op::Get, GetRep{true, 4, std::string("\x01\x02", 2)}});
  out.push_back({Op::Get, GetRep{false, 0, ""}});
  out.push_back({Op::Remove, RemoveRep{true}});
  out.push_back({Op::Cas, CasRep{true, false, 1, true, ""}});
  out.push_back({Op::Cas, CasRep{false, true, 12, true, "current"}});
  MultiGetRep mg;
  mg.entries.push_back(GetRep{true, 2, "a"});
  mg.entries.push_back(GetRep{false, 0, ""});
  out.push_back({Op::MultiGet, std::move(mg)});
  MultiCasRep mc;
  mc.entries.push_back(CasRep{true, true, 3, true, ""});
  mc.entries.push_back(CasRep{false, false, 8, true, "cur"});
  out.push_back({Op::MultiCas, std::move(mc)});
  out.push_back({Op::ReplicaPut, ReplicaPutRep{}});
  out.push_back({Op::ReplicaRemove, ReplicaRemoveRep{false}});
  out.push_back({Op::ReplicaGet, GetRep{true, 7, "replica"}});
  out.push_back({Op::Size, SizeRep{123456}});
  out.push_back({Op::Sync, SyncRep{}});
  out.push_back({Op::Compact, CompactRep{}});
  GossipSyncRep gs;
  gs.version = 9;
  gs.entries.push_back(NodeEntry{0x5555, 0x7F000001u, 9005, 2, 2, 0x5555});
  out.push_back({Op::GossipSync, std::move(gs)});
  JoinRep jr;
  jr.accepted = true;
  jr.keysStreamed = 40;
  jr.version = 11;
  jr.entries.push_back(NodeEntry{0x6666, 0, 9006, 1, 0, 0x6666});
  out.push_back({Op::Join, std::move(jr)});
  out.push_back({Op::Leave, LeaveRep{true}});
  out.push_back({Op::Handoff, HandoffRep{32}});
  // Answers to conditional reads: `unchanged` carries the version only.
  out.push_back({Op::Get, GetRep{true, 6, "", true}});
  MultiGetRep held;
  held.entries.push_back(GetRep{true, 300, "", true});
  held.entries.push_back(GetRep{true, 2, "b", false});
  held.entries.push_back(GetRep{false, 0, "", false});
  out.push_back({Op::MultiGet, std::move(held)});
  return out;
}

// The bytes every sample encodes to. They are the protocol running peers
// speak, so the encoder must keep writing exactly these. Message i carries
// request id 1 + 0x1234567 * i. Requests: {plain, noForward}. Replies
// (Status::Ok): {plain, with the gossip hint {0xFEED, 23}}.
const char* const kRequestHex[][2] = {
    {"a701010001",
     "a701010101"},
    {"a7010200e88a8d09096c6561662f303130310900ff7f206275636b65",
     "a7010201e88a8d09096c6561662f303130310900ff7f206275636b65"},
    {"a7010200cf959a120000",
     "a7010201cf959a120000"},
    {"a7010300b6a0a71b096c6561662f3031303100",
     "a7010301b6a0a71b096c6561662f3031303100"},
    {"a70104009dabb424016b",
     "a70104019dabb424016b"},
    {"a701050084b6c12d066c6561662f31f8a9c2dda3cd89d47c01096e65772d6279746573",
     "a701050184b6c12d066c6561662f31f8a9c2dda3cd89d47c01096e65772d6279746573"},
    {"a7010500ebc0ce36066c6561662f320000",
     "a7010501ebc0ce36066c6561662f320000"},
    {"a7010600d2cbdb3f28026b3000026b3100026b3200026b3300026b3400026b35"
     "00026b3600026b3700026b3800026b3900036b313000036b313100036b313200"
     "036b313300036b313400036b313500036b313600036b313700036b313800036b"
     "313900036b323000036b323100036b323200036b323300036b323400036b3235"
     "00036b323600036b323700036b323800036b323900036b333000036b33310003"
     "6b333200036b333300036b333400036b333500036b333600036b333700036b33"
     "3800036b333900",
     "a7010601d2cbdb3f28026b3000026b3100026b3200026b3300026b3400026b35"
     "00026b3600026b3700026b3800026b3900036b313000036b313100036b313200"
     "036b313300036b313400036b313500036b313600036b313700036b313800036b"
     "313900036b323000036b323100036b323200036b323300036b323400036b3235"
     "00036b323600036b323700036b323800036b323900036b333000036b33310003"
     "6b333200036b333300036b333400036b333500036b333600036b333700036b33"
     "3800036b333900"},
    {"a7010700b9d6e84807026b30000100026b31dac2ea8cbfda9ddd4600026b32fb"
     "ebe2b2dc86c19aa0010106767676767676026b33aea8bdb9b1daf896b6010002"
     "6b34d9d6d2fcd7fab8d257010c767676767676767676767676026b358fc68bea"
     "ecdab784a80100026b36f8d0f5c0c795d2ac0501127676767676767676767676"
     "76767676767676",
     "a7010701b9d6e84807026b30000100026b31dac2ea8cbfda9ddd4600026b32fb"
     "ebe2b2dc86c19aa0010106767676767676026b33aea8bdb9b1daf896b6010002"
     "6b34d9d6d2fcd7fab8d257010c767676767676767676767676026b358fc68bea"
     "ecdab784a80100026b36f8d0f5c0c795d2ac0501127676767676767676767676"
     "76767676767676"},
    {"a7010800a0e1f551066c6561662f3004636f707911",
     "a7010801a0e1f551066c6561662f3004636f707911"},
    {"a701090087ec825b066c6561662f30",
     "a701090187ec825b066c6561662f30"},
    {"a7010a00eef68f64066c6561662f30",
     "a7010a01eef68f64066c6561662f30"},
    {"a7010b00d5819d6d",
     "a7010b01d5819d6d"},
    {"a7010c00bc8caa76",
     "a7010c01bc8caa76"},
    {"a7010d00a397b77f",
     "a7010d01a397b77f"},
    {"a7010e008aa2c48801d295fcd8ceb1aaaaab01110291220100007fa946030191"
     "22a24400000000aa460100a244",
     "a7010e018aa2c48801d295fcd8ceb1aaaaab01110291220100007fa946030191"
     "22a24400000000aa460100a244"},
    {"a7010e00f1acd19101000000",
     "a7010e01f1acd19101000000"},
    {"a7010f00d8b7de9a01b3660100007fab460100b366",
     "a7010f01d8b7de9a01b3660100007fab460100b366"},
    {"a7011000bfc2eba301c488010c",
     "a7011001bfc2eba301c488010c"},
    {"a7011100a6cdf8ac0102096c6561662f303130310502007a000000",
     "a7011101a6cdf8ac0102096c6561662f303130310502007a000000"},
    {"a70103008dd885b601096c6561662f3031303195f8a9fa97b7de9b9e01",
     "a70103018dd885b601096c6561662f3031303195f8a9fa97b7de9b9e01"},
    {"a7010600f4e292bf010203233031eeff830602233100",
     "a7010601f4e292bf010203233031eeff830602233100"},
};

const char* const kReplyHex[][2] = {
    {"a701810001066e6f64652d33",
     "a701818001066e6f64652d33edfd0317"},
    {"a7018200e88a8d0909",
     "a7018280e88a8d0909edfd0317"},
    {"a7018300cf959a12010400020102",
     "a7018380cf959a12010400020102edfd0317"},
    {"a7018300b6a0a71b00",
     "a7018380b6a0a71b00edfd0317"},
    {"a70184009dabb42401",
     "a70184809dabb42401edfd0317"},
    {"a701850084b6c12d01000101",
     "a701858084b6c12d01000101edfd0317"},
    {"a7018500ebc0ce3600010c010763757272656e74",
     "a7018580ebc0ce3600010c010763757272656e74edfd0317"},
    {"a7018600d2cbdb3f02010200016100",
     "a7018680d2cbdb3f02010200016100edfd0317"},
    {"a7018700b9d6e84802010103010000080103637572",
     "a7018780b9d6e84802010103010000080103637572edfd0317"},
    {"a7018800a0e1f551",
     "a7018880a0e1f551edfd0317"},
    {"a701890087ec825b00",
     "a701898087ec825b00edfd0317"},
    {"a7018a00eef68f64010700077265706c696361",
     "a7018a80eef68f64010700077265706c696361edfd0317"},
    {"a7018b00d5819d6dc0c407",
     "a7018b80d5819d6dc0c407edfd0317"},
    {"a7018c00bc8caa76",
     "a7018c80bc8caa76edfd0317"},
    {"a7018d00a397b77f",
     "a7018d80a397b77fedfd0317"},
    {"a7018e008aa2c488010901d5aa010100007fad460202d5aa01",
     "a7018e808aa2c488010901d5aa010100007fad460202d5aa01edfd0317"},
    {"a7018f00f1acd1910101280b01e6cc0100000000ae460100e6cc01",
     "a7018f80f1acd1910101280b01e6cc0100000000ae460100e6cc01edfd0317"},
    {"a7019000d8b7de9a0101",
     "a7019080d8b7de9a0101edfd0317"},
    {"a7019100bfc2eba30120",
     "a7019180bfc2eba30120edfd0317"},
    {"a7018300a6cdf8ac01010601",
     "a7018380a6cdf8ac01010601edfd0317"},
    {"a70186008dd885b6010301ac0201010200016200",
     "a70186808dd885b6010301ac0201010200016200edfd0317"},
};

std::string hexOf(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<u8>(c) >> 4];
    out += kDigits[static_cast<u8>(c) & 0xF];
  }
  return out;
}

TEST(RpcWire, EncodingsMatchGoldenBytes) {
  const std::vector<RequestBody> requests = sampleRequests();
  ASSERT_EQ(requests.size(), std::size(kRequestHex));
  for (size_t i = 0; i < requests.size(); ++i) {
    const u64 id = 1 + 0x1234567ull * i;
    EXPECT_EQ(hexOf(encodeRequest(id, requests[i])), kRequestHex[i][0])
        << "request " << i;
    EXPECT_EQ(hexOf(encodeRequest(id, requests[i], /*noForward=*/true)),
              kRequestHex[i][1])
        << "request " << i;
  }
  const std::vector<SampleReply> replies = sampleReplies();
  ASSERT_EQ(replies.size(), std::size(kReplyHex));
  for (size_t i = 0; i < replies.size(); ++i) {
    const u64 id = 1 + 0x1234567ull * i;
    const SampleReply& r = replies[i];
    std::string bytes = encodeReply(id, r.op, Status::Ok, r.body);
    EXPECT_EQ(hexOf(bytes), kReplyHex[i][0]) << opName(r.op);
    appendGossipHint(bytes, GossipHint{0xFEED, 23});
    EXPECT_EQ(hexOf(bytes), kReplyHex[i][1]) << opName(r.op);
  }
  EXPECT_EQ(hexOf(encodeReply(4, Op::Put, Status::Redirect,
                              RedirectRep{0xABCDu, 0x7F000001u, 9007, 6})),
            "a701820404cdd7020100007faf4606");
  EXPECT_EQ(hexOf(encodeReply(5, Op::MultiGet, Status::TooLarge, EmptyRep{})),
            "a701860305");
}

// A field a flag makes meaningless stays off the wire: an erase's value,
// an applied CAS's current value, an absent read's version and value.
TEST(RpcWire, FlaggedOffFieldsAreNotSent) {
  EXPECT_EQ(encodeRequest(1, CasReq{"k", 3, false, "stale"}),
            encodeRequest(1, CasReq{"k", 3, false, ""}));
  EXPECT_EQ(encodeReply(1, Op::Cas, Status::Ok, CasRep{true, true, 4, true, "v"}),
            encodeReply(1, Op::Cas, Status::Ok, CasRep{true, true, 4, true, ""}));
  EXPECT_EQ(encodeReply(1, Op::Get, Status::Ok, GetRep{false, 9, "v"}),
            encodeReply(1, Op::Get, Status::Ok, GetRep{}));
  EXPECT_EQ(encodeReply(1, Op::Get, Status::Ok, GetRep{true, 9, "v", true}),
            encodeReply(1, Op::Get, Status::Ok, GetRep{true, 9, "", true}));
  EXPECT_EQ(encodeReply(1, Op::Get, Status::Ok, GetRep{false, 0, "", true}),
            encodeReply(1, Op::Get, Status::Ok, GetRep{}));
}

TEST(RpcWire, RequestRoundTrip) {
  u64 id = 1;
  for (const RequestBody& body : sampleRequests()) {
    const std::string bytes = encodeRequest(id, body);
    auto decoded = decodeRequest(bytes);
    ASSERT_TRUE(std::holds_alternative<Request>(decoded))
        << "req id " << id << " failed: "
        << decodeErrorName(std::get<DecodeError>(decoded));
    const Request& req = std::get<Request>(decoded);
    EXPECT_EQ(req.header.requestId, id);
    EXPECT_FALSE(req.header.isReply);
    EXPECT_EQ(req.body, body);
    id += 0x1234567;  // sweep through multi-byte varint ids
  }
}

TEST(RpcWire, RequestFieldFidelity) {
  const std::string bytes =
      encodeRequest(77, CasReq{"key-π", 0xDEADBEEFCAFEull, true, "value"});
  auto decoded = decodeRequest(bytes);
  ASSERT_TRUE(std::holds_alternative<Request>(decoded));
  const auto& cas = std::get<CasReq>(std::get<Request>(decoded).body);
  EXPECT_EQ(cas.key, "key-π");
  EXPECT_EQ(cas.expected, 0xDEADBEEFCAFEull);
  EXPECT_TRUE(cas.present);
  EXPECT_EQ(cas.value, "value");
}

TEST(RpcWire, ReplyRoundTrip) {
  u64 id = 3;
  for (const SampleReply& s : sampleReplies()) {
    const std::string bytes = encodeReply(id, s.op, Status::Ok, s.body);
    auto decoded = decodeReply(bytes);
    ASSERT_TRUE(std::holds_alternative<Reply>(decoded))
        << opName(s.op) << " failed: "
        << decodeErrorName(std::get<DecodeError>(decoded));
    const Reply& rep = std::get<Reply>(decoded);
    EXPECT_EQ(rep.header.requestId, id);
    EXPECT_TRUE(rep.header.isReply);
    EXPECT_EQ(rep.header.op, s.op);
    EXPECT_EQ(rep.body, s.body);
    id = id * 31 + 7;
  }
}

TEST(RpcWire, NonOkReplyCarriesEmptyBody) {
  const std::string bytes =
      encodeReply(5, Op::Get, Status::BadRequest, EmptyRep{});
  auto decoded = decodeReply(bytes);
  ASSERT_TRUE(std::holds_alternative<Reply>(decoded));
  const Reply& rep = std::get<Reply>(decoded);
  EXPECT_EQ(rep.header.status, Status::BadRequest);
  EXPECT_TRUE(std::holds_alternative<EmptyRep>(rep.body));
}

TEST(RpcWire, RequestRejectsReplyBit) {
  std::string bytes = encodeReply(9, Op::Get, Status::Ok, GetRep{});
  EXPECT_TRUE(std::holds_alternative<DecodeError>(decodeRequest(bytes)));
  bytes = encodeRequest(9, GetReq{"k"});
  EXPECT_TRUE(std::holds_alternative<DecodeError>(decodeReply(bytes)));
}

TEST(RpcWire, TrailingBytesRejected) {
  std::string bytes = encodeRequest(1, GetReq{"k"});
  bytes += '\x00';
  auto decoded = decodeRequest(bytes);
  ASSERT_TRUE(std::holds_alternative<DecodeError>(decoded));
  EXPECT_EQ(std::get<DecodeError>(decoded), DecodeError::TrailingBytes);
}

TEST(RpcWire, BadMagicAndVersion) {
  std::string bytes = encodeRequest(1, PingReq{});
  std::string wrongMagic = bytes;
  wrongMagic[0] = '\x55';
  auto d1 = decodeRequest(wrongMagic);
  ASSERT_TRUE(std::holds_alternative<DecodeError>(d1));
  EXPECT_EQ(std::get<DecodeError>(d1), DecodeError::BadMagic);
  std::string wrongVersion = bytes;
  wrongVersion[1] = '\x09';
  auto d2 = decodeRequest(wrongVersion);
  ASSERT_TRUE(std::holds_alternative<DecodeError>(d2));
  EXPECT_EQ(std::get<DecodeError>(d2), DecodeError::BadVersion);
}

// Every proper prefix of every sample message must decode to a typed
// error — never crash, never succeed (the full message has no redundant
// tail, so any cut loses information).
TEST(RpcWireFuzz, TruncationIsTyped) {
  u64 id = 11;
  for (const RequestBody& body : sampleRequests()) {
    const std::string bytes = encodeRequest(id++, body);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      auto decoded = decodeRequest(std::string_view(bytes).substr(0, cut));
      EXPECT_TRUE(std::holds_alternative<DecodeError>(decoded))
          << "prefix " << cut << "/" << bytes.size() << " decoded";
    }
  }
  for (const SampleReply& s : sampleReplies()) {
    const std::string bytes = encodeReply(id++, s.op, Status::Ok, s.body);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      auto decoded = decodeReply(std::string_view(bytes).substr(0, cut));
      EXPECT_TRUE(std::holds_alternative<DecodeError>(decoded))
          << "prefix " << cut << "/" << bytes.size() << " decoded";
    }
  }
}

// Bit-flip fuzz: decode must terminate with either a valid message or a
// typed error for every single-bit corruption of every sample message,
// and additionally for bursts of random byte garbage. ASan/UBSan turn
// any over-read into a hard failure.
TEST(RpcWireFuzz, BitFlipsNeverCrash) {
  size_t decodedOk = 0, decodedErr = 0;
  u64 id = 21;
  for (const RequestBody& body : sampleRequests()) {
    const std::string bytes = encodeRequest(id++, body);
    for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
      std::string mutated = bytes;
      mutated[bit / 8] = static_cast<char>(mutated[bit / 8] ^ (1u << (bit % 8)));
      auto decoded = decodeRequest(mutated);
      if (std::holds_alternative<Request>(decoded)) {
        decodedOk += 1;  // a flip in a value byte is still a valid message
      } else {
        decodedErr += 1;
      }
    }
  }
  // Sanity: the fuzz actually exercised both outcomes.
  EXPECT_GT(decodedOk, 0u);
  EXPECT_GT(decodedErr, 0u);
}

TEST(RpcWireFuzz, RandomGarbageNeverCrashes) {
  common::Pcg32 rng(0xF00D);
  for (int i = 0; i < 5000; ++i) {
    std::string junk(rng.below(64), '\0');
    for (char& c : junk) c = static_cast<char>(rng.below(256));
    // Half the probes get a valid magic+version prefix so the fuzz
    // reaches the body decoders, not just the header checks.
    if (i % 2 == 0 && junk.size() >= 2) {
      junk[0] = static_cast<char>(kMagic);
      junk[1] = static_cast<char>(kVersion);
    }
    (void)decodeRequest(junk);
    (void)decodeReply(junk);
    (void)decodeHeader(junk);
  }
  SUCCEED();
}

TEST(RpcWire, CompactEncoding) {
  // The design claim: a small GET is ~20 bytes on the wire.
  const std::string bytes = encodeRequest(1, GetReq{"leaf/01011010"});
  EXPECT_LE(bytes.size(), 4 + 1 + 1 + 13 + 1u);  // header + id + len + key + held
}

TEST(RpcWire, NoForwardBitRoundTrips) {
  const std::string plain = encodeRequest(5, GetReq{"k"});
  const std::string marked = encodeRequest(5, GetReq{"k"}, /*noForward=*/true);
  auto d1 = decodeRequest(plain);
  auto d2 = decodeRequest(marked);
  ASSERT_TRUE(std::holds_alternative<Request>(d1));
  ASSERT_TRUE(std::holds_alternative<Request>(d2));
  EXPECT_FALSE(std::get<Request>(d1).header.noForward);
  EXPECT_TRUE(std::get<Request>(d2).header.noForward);
}

TEST(RpcWire, UndefinedRequestFlagBitsRejected) {
  // Byte 3 of a request is the flags field; only kNoForwardBit is
  // defined, so any other set bit is a future protocol — reject, don't
  // guess.
  std::string bytes = encodeRequest(5, GetReq{"k"}, /*noForward=*/true);
  bytes[3] = static_cast<char>(static_cast<u8>(bytes[3]) | 0x02);
  auto decoded = decodeRequest(bytes);
  ASSERT_TRUE(std::holds_alternative<DecodeError>(decoded));
  EXPECT_EQ(std::get<DecodeError>(decoded), DecodeError::BadField);
}

TEST(RpcWire, GossipHintTrailerRoundTrips) {
  std::string bytes = encodeReply(9, Op::Get, Status::Ok,
                                  GetRep{true, 4, "value"});
  const std::string withoutHint = bytes;
  appendGossipHint(bytes, GossipHint{0xFEEDu, 23});

  auto plain = decodeReply(withoutHint);
  ASSERT_TRUE(std::holds_alternative<Reply>(plain));
  EXPECT_FALSE(std::get<Reply>(plain).hint.has_value());

  auto hinted = decodeReply(bytes);
  ASSERT_TRUE(std::holds_alternative<Reply>(hinted));
  const Reply& rep = std::get<Reply>(hinted);
  EXPECT_EQ(rep.header.status, Status::Ok);  // hint bit masked back out
  ASSERT_TRUE(rep.hint.has_value());
  EXPECT_EQ(rep.hint->senderId, 0xFEEDu);
  EXPECT_EQ(rep.hint->version, 23u);
  const auto& body = std::get<GetRep>(rep.body);  // body survives the trailer
  EXPECT_TRUE(body.present);
  EXPECT_EQ(body.value, "value");

  // A hinted reply with the trailer torn off mid-varint is Truncated.
  auto torn = decodeReply(std::string_view(bytes).substr(0, bytes.size() - 1));
  if (std::holds_alternative<DecodeError>(torn)) {
    EXPECT_EQ(std::get<DecodeError>(torn), DecodeError::Truncated);
  }
}

TEST(RpcWire, RedirectCarriesOwnerAndHint) {
  // Status::Redirect is the one non-Ok status with a body: the fresh
  // owner endpoint. The gossip trailer composes with it.
  std::string bytes = encodeReply(
      4, Op::Put, Status::Redirect, RedirectRep{0xABCDu, 0x7F000001u, 9007, 6});
  appendGossipHint(bytes, GossipHint{0x1234u, 6});
  auto decoded = decodeReply(bytes);
  ASSERT_TRUE(std::holds_alternative<Reply>(decoded));
  const Reply& rep = std::get<Reply>(decoded);
  EXPECT_EQ(rep.header.status, Status::Redirect);
  const auto& body = std::get<RedirectRep>(rep.body);
  EXPECT_EQ(body.ownerId, 0xABCDu);
  EXPECT_EQ(body.host, 0x7F000001u);
  EXPECT_EQ(body.port, 9007u);
  EXPECT_EQ(body.version, 6u);
  ASSERT_TRUE(rep.hint.has_value());
  EXPECT_EQ(rep.hint->senderId, 0x1234u);
}

TEST(RpcWire, NodeEntryBadStateRejected) {
  // NodeState stops at Left (3); a table entry claiming state 7 is a
  // corrupted or future datagram, typed BadField.
  GossipSyncReq gs;
  gs.senderId = 1;
  gs.version = 1;
  NodeEntry bad;
  bad.id = 42;
  bad.port = 9001;
  bad.state = 7;
  gs.entries.push_back(bad);
  auto decoded = decodeRequest(encodeRequest(3, gs));
  ASSERT_TRUE(std::holds_alternative<DecodeError>(decoded));
  EXPECT_EQ(std::get<DecodeError>(decoded), DecodeError::BadField);
}

TEST(RpcWire, OverlayFieldFidelity) {
  JoinReq in{NodeEntry{0x77, 0x7F000001u, 9010, 3, 1, 0x78}};
  auto decoded = decodeRequest(encodeRequest(11, in));
  ASSERT_TRUE(std::holds_alternative<Request>(decoded));
  const auto& join = std::get<JoinReq>(std::get<Request>(decoded).body);
  EXPECT_EQ(join.joiner, in.joiner);

  HandoffReq ho;
  ho.entries.push_back(HandoffEntry{"leaf/0", 9, std::string("\x00\x01", 2)});
  auto hod = decodeRequest(encodeRequest(12, ho));
  ASSERT_TRUE(std::holds_alternative<Request>(hod));
  const auto& entries =
      std::get<HandoffReq>(std::get<Request>(hod).body).entries;
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "leaf/0");
  EXPECT_EQ(entries[0].version, 9u);
  EXPECT_EQ(entries[0].value, std::string("\x00\x01", 2));
}

}  // namespace
}  // namespace lht::rpc::wire
