#include "rpc/wire.h"

#include <concepts>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

namespace lht::rpc::wire {

using common::Decoder;
using common::Encoder;

const char* opName(Op op) {
  switch (op) {
    case Op::Ping: return "ping";
    case Op::Put: return "put";
    case Op::Get: return "get";
    case Op::Remove: return "remove";
    case Op::Cas: return "cas";
    case Op::MultiGet: return "multi_get";
    case Op::MultiCas: return "multi_cas";
    case Op::ReplicaPut: return "replica_put";
    case Op::ReplicaRemove: return "replica_remove";
    case Op::ReplicaGet: return "replica_get";
    case Op::Size: return "size";
    case Op::Sync: return "sync";
    case Op::Compact: return "compact";
    case Op::GossipSync: return "gossip_sync";
    case Op::Join: return "join";
    case Op::Leave: return "leave";
    case Op::Handoff: return "handoff";
  }
  return "?";
}

const char* statusName(Status s) {
  switch (s) {
    case Status::Ok: return "ok";
    case Status::BadRequest: return "bad_request";
    case Status::UnknownOp: return "unknown_op";
    case Status::TooLarge: return "too_large";
    case Status::Redirect: return "redirect";
  }
  return "?";
}

const char* decodeErrorName(DecodeError e) {
  switch (e) {
    case DecodeError::Truncated: return "truncated";
    case DecodeError::BadMagic: return "bad_magic";
    case DecodeError::BadVersion: return "bad_version";
    case DecodeError::BadOpcode: return "bad_opcode";
    case DecodeError::BadField: return "bad_field";
    case DecodeError::TrailingBytes: return "trailing_bytes";
  }
  return "?";
}

namespace {

// --- Field lists -------------------------------------------------------------
//
// Each body's layout is written once, as a field list: fields(v, body)
// names the body's fields in wire order, and the visitor `v` decides what
// naming a field does. Writer<Encoder> appends it, Writer<ByteCount> counts
// its bytes and Reader reads it back. A field may depend on an earlier
// flag, so a list is code, not a table. The field kinds:
//
//   varint     ULEB128 u64              fixed32    4-byte little-endian u32
//   flag       one byte, strictly 0/1   bytes      varint length, then bytes
//   port       varint, at most 65535    nodeState  one byte, ≤ kMaxNodeState
//   list       varint count, then each element's own field list
//
// A body without members needs no list. A body with members and no list
// does not compile: the encoder visits every alternative of both body
// variants, and no overload of fields() matches it.

template <class B, class... Bodies>
concept OneOf = (std::same_as<std::remove_const_t<B>, Bodies> || ...);

template <class V, class B>
  requires std::is_empty_v<B>
void fields(V&, B&) {}

template <class V, OneOf<NodeEntry> B>
void fields(V& v, B& n) {
  v.varint(n.id);
  v.fixed32(n.host);
  v.port(n.port);
  v.varint(n.incarnation);
  v.nodeState(n.state);
  v.varint(n.ringBase);
}

// Requests. PingReq, SizeReq, SyncReq and CompactReq are empty.

template <class V, OneOf<RemoveReq, ReplicaRemoveReq, ReplicaGetReq> B>
void fields(V& v, B& b) { v.bytes(b.key); }

template <class V, OneOf<GetReq> B>
void fields(V& v, B& b) {
  v.bytes(b.key);
  v.varint(b.held);  // 0, one byte, for a caller that holds no copy
}

template <class V, OneOf<PutReq> B>
void fields(V& v, B& b) {
  v.bytes(b.key);
  v.bytes(b.value);
}

template <class V, OneOf<CasReq> B>
void fields(V& v, B& b) {
  v.bytes(b.key);
  v.varint(b.expected);  // a digest, 0 for a writer that expects no value
  v.flag(b.present);
  if (b.present) v.bytes(b.value);  // an erase carries no value
}

template <class V, OneOf<ReplicaPutReq> B>
void fields(V& v, B& b) {
  v.bytes(b.key);
  v.bytes(b.value);
  v.varint(b.version);
}

template <class V, OneOf<GossipSyncReq> B>
void fields(V& v, B& b) {
  v.varint(b.senderId);
  v.varint(b.version);
  v.list(b.entries);
}

template <class V, OneOf<JoinReq> B>
void fields(V& v, B& b) { fields(v, b.joiner); }

template <class V, OneOf<LeaveReq> B>
void fields(V& v, B& b) {
  v.varint(b.nodeId);
  v.varint(b.incarnation);
}

template <class V, OneOf<HandoffEntry> B>
void fields(V& v, B& b) {
  v.bytes(b.key);
  v.varint(b.version);
  v.bytes(b.value);
}

// Batches, both ways: a list of single-entry bodies.
template <class V, OneOf<MultiGetReq, MultiCasReq, HandoffReq, MultiGetRep,
                         MultiCasRep> B>
void fields(V& v, B& b) { v.list(b.entries); }

// Replies. EmptyRep, ReplicaPutRep, SyncRep and CompactRep are empty.

template <class V, OneOf<PingRep> B>
void fields(V& v, B& b) { v.bytes(b.nodeName); }

template <class V, OneOf<PutRep> B>
void fields(V& v, B& b) { v.varint(b.version); }

template <class V, OneOf<GetRep> B>
void fields(V& v, B& b) {
  v.flag(b.present);
  if (b.present) {
    v.varint(b.version);
    v.flag(b.unchanged);
    if (!b.unchanged) v.bytes(b.value);  // the caller already holds it
  }
}

template <class V, OneOf<RemoveRep, ReplicaRemoveRep> B>
void fields(V& v, B& b) { v.flag(b.existed); }

template <class V, OneOf<CasRep> B>
void fields(V& v, B& b) {
  v.flag(b.applied);
  v.flag(b.existedBefore);
  v.varint(b.currentVersion);
  v.flag(b.currentPresent);
  // The value rides only on a conflict, for the caller's re-run.
  if (!b.applied && b.currentPresent) v.bytes(b.currentValue);
}

template <class V, OneOf<SizeRep> B>
void fields(V& v, B& b) { v.varint(b.primaryKeys); }

template <class V, OneOf<GossipSyncRep> B>
void fields(V& v, B& b) {
  v.varint(b.version);
  v.list(b.entries);
}

template <class V, OneOf<JoinRep> B>
void fields(V& v, B& b) {
  v.flag(b.accepted);
  v.varint(b.keysStreamed);
  v.varint(b.version);
  v.list(b.entries);
}

template <class V, OneOf<LeaveRep> B>
void fields(V& v, B& b) { v.flag(b.known); }

template <class V, OneOf<HandoffRep> B>
void fields(V& v, B& b) { v.varint(b.installed); }

template <class V, OneOf<RedirectRep> B>
void fields(V& v, B& b) {
  v.varint(b.ownerId);
  v.fixed32(b.host);
  v.port(b.port);
  v.varint(b.version);
}

// --- Visitors ----------------------------------------------------------------

/// Appends each field to `Sink`: an Encoder, or a ByteCount to size it.
template <class Sink>
class Writer {
 public:
  explicit Writer(Sink& sink) : sink_(sink) {}
  void varint(u64 x) { sink_.putVarint(x); }
  void fixed32(u32 x) { sink_.putU32(x); }
  void flag(bool b) { sink_.putU8(b ? 1 : 0); }
  void port(u16 p) { sink_.putVarint(p); }
  void nodeState(u8 s) { sink_.putU8(s); }
  void bytes(std::string_view s) { sink_.putVarBytes(s); }
  template <class T>
  void list(const std::vector<T>& xs) {
    sink_.putVarint(xs.size());
    for (const T& x : xs) fields(*this, x);
  }

 private:
  Sink& sink_;
};

/// The bytes each Encoder call appends, counted instead of written.
struct ByteCount {
  size_t n = 0;
  void putU8(u8) { n += 1; }
  void putU32(u32) { n += sizeof(u32); }
  void putVarint(u64 v) { n += common::varintSize(v); }
  void putVarBytes(std::string_view s) {
    n += common::varintSize(s.size()) + s.size();
  }
};

/// Reads each field back, totally: the first missing or invalid field
/// stops the read, and error() then types it. Like every decode here, a
/// failure with no bytes left is Truncated, any other a BadField.
class Reader {
 public:
  explicit Reader(Decoder& d) : d_(d) {}
  void varint(u64& x) { read(x, &Decoder::getVarint); }
  void fixed32(u32& x) { read(x, &Decoder::getU32); }
  // Flags are strict booleans: a lax decode would let bit-flipped
  // datagrams pass as valid.
  void flag(bool& b) { read(b, &Decoder::getU8, u8{1}); }
  void port(u16& p) { read(p, &Decoder::getVarint, u64{65535}); }
  void nodeState(u8& s) { read(s, &Decoder::getU8, kMaxNodeState); }
  void bytes(std::string& s) {
    if (!ok_) return;
    auto v = d_.getVarBytes();
    ok_ = v.has_value();
    if (ok_) s = std::move(*v);
  }
  template <class T>
  void list(std::vector<T>& xs) {
    u64 n = 0;
    varint(n);
    // A count is bounded by what can physically fit in the datagram that
    // carried it, so a corrupt count cannot drive allocation.
    ok_ = ok_ && n <= d_.remaining();
    if (!ok_) return;
    xs.reserve(n);
    for (u64 i = 0; i < n && ok_; ++i) fields(*this, xs.emplace_back());
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] DecodeError error() const {
    return d_.remaining() == 0 ? DecodeError::Truncated : DecodeError::BadField;
  }

 private:
  template <class U, class T>
  void read(U& out, std::optional<T> (Decoder::*get)(),
            T max = std::numeric_limits<T>::max()) {
    if (!ok_) return;
    const std::optional<T> v = (d_.*get)();
    ok_ = v && *v <= max;
    if (ok_) out = static_cast<U>(*v);
  }

  Decoder& d_;
  bool ok_ = true;
};

// --- Opcodes -----------------------------------------------------------------

/// An opcode with the body its request carries and the one its Ok reply
/// carries.
template <Op kOp, class Req, class Rep>
struct Route {
  static constexpr Op op = kOp;
  using Request = Req;
  using Reply = Rep;
};

/// Every opcode, in Op order. A reply's body mirrors its request's, except
/// that ReplicaGet answers with a GetRep.
using Routes = std::tuple<
    Route<Op::Ping, PingReq, PingRep>,
    Route<Op::Put, PutReq, PutRep>,
    Route<Op::Get, GetReq, GetRep>,
    Route<Op::Remove, RemoveReq, RemoveRep>,
    Route<Op::Cas, CasReq, CasRep>,
    Route<Op::MultiGet, MultiGetReq, MultiGetRep>,
    Route<Op::MultiCas, MultiCasReq, MultiCasRep>,
    Route<Op::ReplicaPut, ReplicaPutReq, ReplicaPutRep>,
    Route<Op::ReplicaRemove, ReplicaRemoveReq, ReplicaRemoveRep>,
    Route<Op::ReplicaGet, ReplicaGetReq, GetRep>,
    Route<Op::Size, SizeReq, SizeRep>,
    Route<Op::Sync, SyncReq, SyncRep>,
    Route<Op::Compact, CompactReq, CompactRep>,
    Route<Op::GossipSync, GossipSyncReq, GossipSyncRep>,
    Route<Op::Join, JoinReq, JoinRep>,
    Route<Op::Leave, LeaveReq, LeaveRep>,
    Route<Op::Handoff, HandoffReq, HandoffRep>>;
constexpr size_t kOps = std::tuple_size_v<Routes>;

// Opcodes run 1..kOps, and RequestBody's alternative i is Op(i + 1)'s
// request: opOf and the decode tables index by that.
template <size_t... I>
constexpr bool inOpOrder(std::index_sequence<I...>) {
  return ((std::tuple_element_t<I, Routes>::op == static_cast<Op>(I + 1) &&
           std::is_same_v<typename std::tuple_element_t<I, Routes>::Request,
                          std::variant_alternative_t<I, RequestBody>>) &&
          ...);
}
static_assert(std::variant_size_v<RequestBody> == kOps);
static_assert(inOpOrder(std::make_index_sequence<kOps>()),
              "Routes and RequestBody must list the opcodes in Op order");

template <class Variant, class Body>
Variant readAs(Reader& r) {
  Variant v(std::in_place_type<Body>);
  fields(r, std::get<Body>(v));
  return v;
}

/// Body readers indexed by opcode - 1.
template <class Table>
struct ReadersByOp;
template <class... R>
struct ReadersByOp<std::tuple<R...>> {
  static constexpr RequestBody (*request[])(Reader&) = {
      &readAs<RequestBody, typename R::Request>...};
  static constexpr ReplyBody (*reply[])(Reader&) = {
      &readAs<ReplyBody, typename R::Reply>...};
};
using Readers = ReadersByOp<Routes>;

template <class Body>
std::string encode(u8 opByte, u8 flags, u64 requestId, const Body& body) {
  Encoder e(64);
  e.putU8(kMagic);
  e.putU8(kVersion);
  e.putU8(opByte);
  e.putU8(flags);
  e.putVarint(requestId);
  Writer<Encoder> w(e);
  std::visit([&w](const auto& b) { fields(w, b); }, body);
  return std::move(e).take();
}

}  // namespace

bool opKnown(u8 raw) { return raw >= 1 && raw <= kOps; }

Op opOf(const RequestBody& body) { return static_cast<Op>(body.index() + 1); }

// --- Encode ----------------------------------------------------------------

std::string encodeRequest(u64 requestId, const RequestBody& body,
                          bool noForward) {
  return encode(static_cast<u8>(opOf(body)), noForward ? kNoForwardBit : 0,
                requestId, body);
}

std::string encodeReply(u64 requestId, Op op, Status status,
                        const ReplyBody& body) {
  return encode(static_cast<u8>(op) | kReplyBit, static_cast<u8>(status),
                requestId, body);
}

size_t getRepWireBytes(const GetRep& g) {
  ByteCount count;
  Writer<ByteCount> w(count);
  fields(w, g);
  return count.n;
}

void appendGossipHint(std::string& encodedReply, const GossipHint& hint) {
  // Byte 3 is the status byte of every well-formed reply this code ever
  // produced; the trailer rides after the body, where only hint-aware
  // decoders look.
  common::checkInvariant(encodedReply.size() >= 4,
                         "appendGossipHint: not an encoded reply");
  encodedReply[3] = static_cast<char>(
      static_cast<u8>(encodedReply[3]) | kGossipHintBit);
  common::appendVarint(encodedReply, hint.senderId);
  common::appendVarint(encodedReply, hint.version);
}

// --- Decode ----------------------------------------------------------------

namespace {

DecodeResult<Header> decodeHeaderFrom(Decoder& d, bool requireKnownOp) {
  auto magic = d.getU8();
  if (!magic) return DecodeError::Truncated;
  if (*magic != kMagic) return DecodeError::BadMagic;
  auto version = d.getU8();
  if (!version) return DecodeError::Truncated;
  if (*version != kVersion) return DecodeError::BadVersion;
  auto opByte = d.getU8();
  auto statusByte = d.getU8();
  if (!opByte || !statusByte) return DecodeError::Truncated;
  if (requireKnownOp && !opKnown(*opByte & ~kReplyBit)) {
    return DecodeError::BadOpcode;
  }
  Header h;
  h.op = static_cast<Op>(*opByte & ~kReplyBit);
  h.isReply = (*opByte & kReplyBit) != 0;
  if (h.isReply) {
    // Replies: low 7 bits are the status, bit 7 flags a gossip trailer.
    const u8 status = *statusByte & static_cast<u8>(~kGossipHintBit);
    if (status > static_cast<u8>(Status::Redirect)) return DecodeError::BadField;
    h.status = static_cast<Status>(status);
    h.hasGossipHint = (*statusByte & kGossipHintBit) != 0;
  } else {
    // Requests: the byte is a flags field; only kNoForwardBit is defined.
    if ((*statusByte & static_cast<u8>(~kNoForwardBit)) != 0) {
      return DecodeError::BadField;
    }
    h.status = Status::Ok;
    h.noForward = (*statusByte & kNoForwardBit) != 0;
  }
  auto id = d.getVarint();
  if (!id) return DecodeError::Truncated;
  h.requestId = *id;
  return h;
}

size_t opIndex(const Header& h) { return static_cast<size_t>(h.op) - 1; }

}  // namespace

DecodeResult<Header> decodeHeader(std::string_view datagram) {
  Decoder d(datagram);
  // Lenient about the opcode (see header comment): the op field carries
  // the raw value through so callers can answer unknown-op requests.
  return decodeHeaderFrom(d, /*requireKnownOp=*/false);
}

DecodeResult<Request> decodeRequest(std::string_view datagram) {
  Decoder d(datagram);
  auto h = decodeHeaderFrom(d, /*requireKnownOp=*/true);
  if (auto* err = std::get_if<DecodeError>(&h)) return *err;
  Request req;
  req.header = std::get<Header>(h);
  if (req.header.isReply) return DecodeError::BadOpcode;
  Reader r(d);
  req.body = Readers::request[opIndex(req.header)](r);
  if (!r.ok()) return r.error();
  if (!d.atEnd()) return DecodeError::TrailingBytes;
  return req;
}

DecodeResult<Reply> decodeReply(std::string_view datagram) {
  Decoder d(datagram);
  auto h = decodeHeaderFrom(d, /*requireKnownOp=*/true);
  if (auto* err = std::get_if<DecodeError>(&h)) return *err;
  Reply rep;
  rep.header = std::get<Header>(h);
  if (!rep.header.isReply) return DecodeError::BadOpcode;
  Reader r(d);
  if (rep.header.status == Status::Ok) {
    rep.body = Readers::reply[opIndex(rep.header)](r);
  } else if (rep.header.status == Status::Redirect) {
    rep.body = readAs<ReplyBody, RedirectRep>(r);
  }  // other statuses carry no body: rep.body stays EmptyRep
  if (!r.ok()) return r.error();
  if (rep.header.hasGossipHint) {
    auto sender = d.getVarint();
    if (!sender) return DecodeError::Truncated;
    auto version = d.getVarint();
    if (!version) return DecodeError::Truncated;
    rep.hint = GossipHint{*sender, *version};
  }
  if (!d.atEnd()) return DecodeError::TrailingBytes;
  return rep;
}

}  // namespace lht::rpc::wire
