// RPC wire format: compact binary messages over unreliable datagrams.
//
// Every message is one datagram: a fixed 4-byte header (magic, version,
// opcode, status) followed by a ULEB128 request id and an op-specific
// body. Strings and list counts are varint-framed (common/varint.h), so a
// small GET is ~20 bytes on the wire. Replies echo the request's id and
// set the high bit of its opcode.
//
//   offset  field
//   0       magic   0xA7
//   1       version 1
//   2       opcode  (Op; replies: Op | 0x80)
//   3       status  (replies: Status in the low 7 bits, bit 7 = a gossip
//                    hint trailer follows the body; requests: flags —
//                    bit 0 = kNoForwardBit, all other bits must be 0)
//   4..     request id (varint)
//   ..      body
//   ..      gossip hint trailer (replies, only when bit 7 of status set):
//           sender node id (varint), membership version (varint)
//
// Each body's layout is written once, as a field list in wire.cpp that
// encoding, decoding and sizing (getRepWireBytes) all run; DESIGN.md §14
// says how to add an opcode.
//
// Decoding is total: any truncated, overlong, or type-violating input
// yields a typed DecodeError, never a crash or an over-read — these bytes
// arrive from the network, and the fuzz suite (rpc_wire_test) bit-flips
// and truncates every message kind under ASan to hold the codec to that.
//
// Payload values reuse the index layers' existing serialization (bucket
// wire-format-v2 bytes travel opaquely in `value` fields), so the codec
// composes with, and never re-interprets, what the DHT stores.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/codec.h"
#include "common/types.h"
#include "common/varint.h"

namespace lht::rpc::wire {

using common::u8;
using common::u32;
using common::u64;
using u16 = std::uint16_t;

inline constexpr u8 kMagic = 0xA7;
inline constexpr u8 kVersion = 1;
inline constexpr u8 kReplyBit = 0x80;
/// Reply status byte, bit 7: a gossip hint trailer (sender node id +
/// membership version, both varints) follows the body. Overlay nodes set
/// it on every reply so clients learn about membership changes for free.
inline constexpr u8 kGossipHintBit = 0x80;
/// Longest gossip hint trailer (two u64 varints). A server leaves this
/// much room under the datagram cap so a hint never pushes a reply over.
inline constexpr size_t kMaxGossipHintBytes = 2 * common::kMaxVarintBytes;
/// Request status byte, bit 0: answer here. An overlay node stamps it on
/// its warm-window fetches, and the receiver answers from its own store
/// even for a key it does not own, instead of redirecting.
inline constexpr u8 kNoForwardBit = 0x01;

/// Request opcodes. Replica* ops address a holder's replica table (the
/// client routes them). GossipSync/Join/Leave/Handoff are the overlay
/// membership protocol (src/overlay): bare NodeServers answer them with
/// empty/refusal bodies, OverlayNode implements them for real.
enum class Op : u8 {
  Ping = 1,
  Put = 2,
  Get = 3,
  Remove = 4,
  Cas = 5,
  MultiGet = 6,
  MultiCas = 7,
  ReplicaPut = 8,
  ReplicaRemove = 9,
  ReplicaGet = 10,
  Size = 11,
  Sync = 12,
  Compact = 13,
  GossipSync = 14,  ///< anti-entropy membership exchange (push + pull)
  Join = 15,        ///< join handshake: stream my future keys to me
  Leave = 16,       ///< graceful departure announcement
  Handoff = 17,     ///< bulk key transfer (join streaming / reconcile)
};
[[nodiscard]] const char* opName(Op op);
[[nodiscard]] bool opKnown(u8 raw);

/// Reply status. In-band outcomes (key absent, CAS conflict) are NOT
/// errors — they live in the reply bodies; Status covers only requests the
/// server could not execute. Redirect is the overlay's routing outcome:
/// "not my key" plus the fresh owner endpoint in a RedirectRep body.
enum class Status : u8 {
  Ok = 0,
  BadRequest = 1,   ///< body failed to decode
  UnknownOp = 2,    ///< header parsed but the opcode is from a future protocol
  TooLarge = 3,     ///< message would exceed kMaxDatagramBytes (replies:
                    ///< server-side; requests: failed locally by RpcClient)
  Redirect = 4,     ///< wrong node for this key; body is a RedirectRep
};
[[nodiscard]] const char* statusName(Status s);

/// Why a datagram failed to decode (typed, for tests and metrics).
enum class DecodeError : u8 {
  Truncated = 1,     ///< ran out of bytes mid-field
  BadMagic = 2,      ///< first byte is not kMagic (not ours; drop silently)
  BadVersion = 3,
  BadOpcode = 4,
  BadField = 5,      ///< a field violates its invariant (flag byte > 1, …)
  TrailingBytes = 6, ///< body decoded but bytes remain
};
[[nodiscard]] const char* decodeErrorName(DecodeError e);

/// Decoded message header.
struct Header {
  Op op = Op::Ping;
  bool isReply = false;
  Status status = Status::Ok;
  u64 requestId = 0;
  bool noForward = false;   ///< requests: kNoForwardBit was set
  bool hasGossipHint = false;  ///< replies: a hint trailer follows the body
};

/// One membership table entry as it travels on the wire. `state` is the
/// overlay NodeState (0 alive, 1 suspect, 2 dead, 3 left); `ringBase` is
/// the node's ring position seed (virtual-node points derive from it), so
/// every participant computes the identical ring from the same table.
struct NodeEntry {
  u64 id = 0;
  u32 host = 0;
  u16 port = 0;
  u64 incarnation = 0;
  u8 state = 0;
  u64 ringBase = 0;

  friend bool operator==(const NodeEntry&, const NodeEntry&) = default;
};
inline constexpr u8 kMaxNodeState = 3;

/// Piggybacked membership freshness: appended to replies so clients and
/// peers notice a stale view without dedicated gossip traffic.
struct GossipHint {
  u64 senderId = 0;
  u64 version = 0;
};

// --- Request bodies --------------------------------------------------------

struct PingReq { bool operator==(const PingReq&) const = default; };
struct PutReq {
  std::string key;
  std::string value;
  bool operator==(const PutReq&) const = default;
};
/// A read. `held` is the valueDigest of the copy the caller holds (0 =
/// none): while the stored value still has it, the reply says `unchanged`
/// instead of shipping the value back.
struct GetReq {
  std::string key;
  u64 held = 0;
  bool operator==(const GetReq&) const = default;
};
struct RemoveReq {
  std::string key;
  bool operator==(const RemoveReq&) const = default;
};
/// Optimistic read-modify-write: applies iff the key's stored value still
/// has the valueDigest `expected`, the digest of the value the writer
/// started from (0 = expect absent). present=false erases.
struct CasReq {
  std::string key;
  u64 expected = 0;
  bool present = true;
  std::string value;
  bool operator==(const CasReq&) const = default;
};
struct MultiGetReq {
  std::vector<GetReq> entries;
  bool operator==(const MultiGetReq&) const = default;
};
struct MultiCasReq {
  std::vector<CasReq> entries;
  bool operator==(const MultiCasReq&) const = default;
};
/// Replica copy install: carries the primary's version so a holder's copy
/// is identifiable with the snapshot it mirrors.
struct ReplicaPutReq {
  std::string key;
  std::string value;
  u64 version = 0;
  bool operator==(const ReplicaPutReq&) const = default;
};
struct ReplicaRemoveReq {
  std::string key;
  bool operator==(const ReplicaRemoveReq&) const = default;
};
struct ReplicaGetReq {
  std::string key;
  bool operator==(const ReplicaGetReq&) const = default;
};
struct SizeReq { bool operator==(const SizeReq&) const = default; };
struct SyncReq { bool operator==(const SyncReq&) const = default; };
struct CompactReq { bool operator==(const CompactReq&) const = default; };
/// Anti-entropy exchange: the sender pushes its table, the receiver merges
/// and answers with its own (post-merge) table. A client pulls by sending
/// senderId 0 with no entries.
struct GossipSyncReq {
  u64 senderId = 0;
  u64 version = 0;
  std::vector<NodeEntry> entries;
  bool operator==(const GossipSyncReq&) const = default;
};
/// Join handshake, sent by the joiner to every current member: "stream the
/// primary keys I will own to my endpoint". The receiver streams via
/// Handoff batches before replying.
struct JoinReq {
  NodeEntry joiner;
  bool operator==(const JoinReq&) const = default;
};
struct LeaveReq {
  u64 nodeId = 0;
  u64 incarnation = 0;
  bool operator==(const LeaveReq&) const = default;
};
/// One transferred record (primary copy with its version).
struct HandoffEntry {
  std::string key;
  u64 version = 0;
  std::string value;
  bool operator==(const HandoffEntry&) const = default;
};
struct HandoffReq {
  std::vector<HandoffEntry> entries;
  bool operator==(const HandoffReq&) const = default;
};

// --- Reply bodies ----------------------------------------------------------

struct PingRep {
  std::string nodeName;
  bool operator==(const PingRep&) const = default;
};
struct PutRep {
  u64 version = 0;  ///< version assigned to the stored value
  bool operator==(const PutRep&) const = default;
};
struct GetRep {
  bool present = false;
  u64 version = 0;
  std::string value;
  /// Present, and still the value the request's held digest names: no
  /// value follows, the caller's copy is current.
  bool unchanged = false;
  bool operator==(const GetRep&) const = default;
};
struct RemoveRep {
  bool existed = false;
  bool operator==(const RemoveRep&) const = default;
};
struct CasRep {
  bool applied = false;
  bool existedBefore = false;
  /// Current state after (applied) or instead of (conflict) the write;
  /// on conflict the value rides along so the caller can re-run its
  /// mutator without another GET round. The version is the daemon's own
  /// (a replica push carries it); the guard never reads it.
  u64 currentVersion = 0;
  bool currentPresent = false;
  std::string currentValue;
  bool operator==(const CasRep&) const = default;
};
/// Answers a prefix of the request's entries, in order: the longest one
/// that fits one datagram (at least one entry; a first entry too large
/// for any datagram is answered Status::TooLarge instead). The client
/// re-sends the unanswered tail.
struct MultiGetRep {
  std::vector<GetRep> entries;
  bool operator==(const MultiGetRep&) const = default;
};
struct MultiCasRep {
  std::vector<CasRep> entries;
  bool operator==(const MultiCasRep&) const = default;
};
struct ReplicaPutRep { bool operator==(const ReplicaPutRep&) const = default; };
struct ReplicaRemoveRep {
  bool existed = false;
  bool operator==(const ReplicaRemoveRep&) const = default;
};
struct SizeRep {
  u64 primaryKeys = 0;
  bool operator==(const SizeRep&) const = default;
};
struct SyncRep { bool operator==(const SyncRep&) const = default; };
struct CompactRep { bool operator==(const CompactRep&) const = default; };
struct GossipSyncRep {
  u64 version = 0;
  std::vector<NodeEntry> entries;
  bool operator==(const GossipSyncRep&) const = default;
};
struct JoinRep {
  bool accepted = false;
  u64 keysStreamed = 0;
  u64 version = 0;
  std::vector<NodeEntry> entries;  ///< the member's current table
  bool operator==(const JoinRep&) const = default;
};
struct LeaveRep {
  bool known = false;
  bool operator==(const LeaveRep&) const = default;
};
struct HandoffRep {
  u64 installed = 0;
  bool operator==(const HandoffRep&) const = default;
};
/// Status::Redirect body: the receiver's idea of the key's owner, so the
/// client retries in one extra hop and knows its table (at `version`) is
/// stale.
struct RedirectRep {
  u64 ownerId = 0;
  u32 host = 0;
  u16 port = 0;
  u64 version = 0;
  bool operator==(const RedirectRep&) const = default;
};
/// The body of every other non-Ok reply: none.
struct EmptyRep { bool operator==(const EmptyRep&) const = default; };

using RequestBody =
    std::variant<PingReq, PutReq, GetReq, RemoveReq, CasReq, MultiGetReq,
                 MultiCasReq, ReplicaPutReq, ReplicaRemoveReq, ReplicaGetReq,
                 SizeReq, SyncReq, CompactReq, GossipSyncReq, JoinReq,
                 LeaveReq, HandoffReq>;
using ReplyBody =
    std::variant<EmptyRep, PingRep, PutRep, GetRep, RemoveRep, CasRep,
                 MultiGetRep, MultiCasRep, ReplicaPutRep, ReplicaRemoveRep,
                 SizeRep, SyncRep, CompactRep, GossipSyncRep, JoinRep,
                 LeaveRep, HandoffRep, RedirectRep>;

struct Request {
  Header header;
  RequestBody body;
};
struct Reply {
  Header header;
  ReplyBody body;
  std::optional<GossipHint> hint;  ///< piggybacked trailer, when present
};

/// The opcode a request body travels under.
[[nodiscard]] Op opOf(const RequestBody& body);

// --- Encode ----------------------------------------------------------------

[[nodiscard]] std::string encodeRequest(u64 requestId, const RequestBody& body,
                                        bool noForward = false);
[[nodiscard]] std::string encodeReply(u64 requestId, Op op, Status status,
                                      const ReplyBody& body);

/// Bytes one GetRep adds to an encoded Get/MultiGet reply body.
[[nodiscard]] size_t getRepWireBytes(const GetRep& g);

/// Stamps a gossip hint onto an already-encoded reply in place: sets
/// kGossipHintBit in the status byte and appends the trailer. Lets the
/// overlay piggyback on NodeServer's (and its dedup cache's) reply bytes
/// without re-encoding the body.
void appendGossipHint(std::string& encodedReply, const GossipHint& hint);

// --- Decode ----------------------------------------------------------------

template <typename T>
using DecodeResult = std::variant<T, DecodeError>;

/// Decodes a request datagram (server side).
[[nodiscard]] DecodeResult<Request> decodeRequest(std::string_view datagram);

/// Decodes a reply datagram (client side). The body variant matches the
/// header's opcode; non-Ok statuses decode to EmptyRep.
[[nodiscard]] DecodeResult<Reply> decodeReply(std::string_view datagram);

/// Peeks at the header only (dispatch without full body decode). Unlike
/// the full decoders, an UNKNOWN opcode passes through (`op` then holds
/// the raw value) so a server can answer a future client's opcode with
/// Status::UnknownOp instead of silence — check opKnown() before
/// treating `op` as a member of the enum.
[[nodiscard]] DecodeResult<Header> decodeHeader(std::string_view datagram);

}  // namespace lht::rpc::wire
