#include "rpc/wire.h"

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

bool opKnown(u8 raw) {
  return raw >= static_cast<u8>(Op::Ping) && raw <= static_cast<u8>(Op::Handoff);
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

void putHeader(Encoder& e, u8 opByte, Status status, u64 requestId) {
  e.putU8(kMagic);
  e.putU8(kVersion);
  e.putU8(opByte);
  e.putU8(static_cast<u8>(status));
  e.putVarint(requestId);
}

// Flag bytes are strict booleans on the wire: 0 or 1, anything else is a
// BadField. (A lax decode would let bit-flipped datagrams pass as valid.)
std::optional<bool> getFlag(Decoder& d) {
  auto v = d.getU8();
  if (!v || *v > 1) return std::nullopt;
  return *v == 1;
}

void putCasEntry(Encoder& e, const CasReq& c) {
  e.putVarBytes(c.key);
  e.putVarint(c.expectedVersion);
  e.putU8(c.present ? 1 : 0);
  if (c.present) e.putVarBytes(c.value);
}

bool getCasEntry(Decoder& d, CasReq& out) {
  auto key = d.getVarBytes();
  auto ver = d.getVarint();
  if (!key || !ver) return false;
  auto present = getFlag(d);
  if (!present) return false;
  out.key = std::move(*key);
  out.expectedVersion = *ver;
  out.present = *present;
  if (out.present) {
    auto value = d.getVarBytes();
    if (!value) return false;
    out.value = std::move(*value);
  }
  return true;
}

void putGetRep(Encoder& e, const GetRep& g) {
  e.putU8(g.present ? 1 : 0);
  if (g.present) {
    e.putVarint(g.version);
    e.putVarBytes(g.value);
  }
}

}  // namespace

size_t getRepWireBytes(const GetRep& g) {
  // Mirrors putGetRep: flag byte, then (present) version + framed value.
  if (!g.present) return 1;
  return 1 + common::varintSize(g.version) + common::varintSize(g.value.size()) +
         g.value.size();
}

namespace {

bool getGetRep(Decoder& d, GetRep& out) {
  auto present = getFlag(d);
  if (!present) return false;
  out.present = *present;
  if (out.present) {
    auto ver = d.getVarint();
    if (!ver) return false;
    auto value = d.getVarBytes();
    if (!value) return false;
    out.version = *ver;
    out.value = std::move(*value);
  }
  return true;
}

void putCasRep(Encoder& e, const CasRep& c) {
  e.putU8(c.applied ? 1 : 0);
  e.putU8(c.existedBefore ? 1 : 0);
  e.putVarint(c.currentVersion);
  e.putU8(c.currentPresent ? 1 : 0);
  if (!c.applied && c.currentPresent) e.putVarBytes(c.currentValue);
}

bool getCasRep(Decoder& d, CasRep& out) {
  auto applied = getFlag(d);
  if (!applied) return false;
  auto existed = getFlag(d);
  if (!existed) return false;
  auto ver = d.getVarint();
  if (!ver) return false;
  auto present = getFlag(d);
  if (!present) return false;
  out.applied = *applied;
  out.existedBefore = *existed;
  out.currentVersion = *ver;
  out.currentPresent = *present;
  if (!out.applied && out.currentPresent) {
    auto value = d.getVarBytes();
    if (!value) return false;
    out.currentValue = std::move(*value);
  }
  return true;
}

// List counts are bounded by what can physically fit in the datagram that
// carried them, so a corrupt count cannot drive allocation.
std::optional<u64> getCount(Decoder& d) {
  auto n = d.getVarint();
  if (!n || *n > d.remaining()) return std::nullopt;
  return n;
}

void putNodeEntry(Encoder& e, const NodeEntry& n) {
  e.putVarint(n.id);
  e.putU32(n.host);
  e.putVarint(n.port);
  e.putVarint(n.incarnation);
  e.putU8(n.state);
  e.putVarint(n.ringBase);
}

bool getNodeEntry(Decoder& d, NodeEntry& out) {
  auto id = d.getVarint();
  if (!id) return false;
  auto host = d.getU32();
  if (!host) return false;
  auto port = d.getVarint();
  if (!port || *port > 65535) return false;
  auto inc = d.getVarint();
  if (!inc) return false;
  auto state = d.getU8();
  if (!state || *state > kMaxNodeState) return false;
  auto ring = d.getVarint();
  if (!ring) return false;
  out.id = *id;
  out.host = *host;
  out.port = static_cast<u16>(*port);
  out.incarnation = *inc;
  out.state = *state;
  out.ringBase = *ring;
  return true;
}

void putNodeEntries(Encoder& e, const std::vector<NodeEntry>& entries) {
  e.putVarint(entries.size());
  for (const NodeEntry& n : entries) putNodeEntry(e, n);
}

bool getNodeEntries(Decoder& d, std::vector<NodeEntry>& out) {
  auto n = getCount(d);
  if (!n) return false;
  out.reserve(*n);
  for (u64 i = 0; i < *n; ++i) {
    NodeEntry entry;
    if (!getNodeEntry(d, entry)) return false;
    out.push_back(entry);
  }
  return true;
}

}  // namespace

Op opOf(const RequestBody& body) {
  return std::visit(
      [](const auto& b) -> Op {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, PingReq>) return Op::Ping;
        else if constexpr (std::is_same_v<T, PutReq>) return Op::Put;
        else if constexpr (std::is_same_v<T, GetReq>) return Op::Get;
        else if constexpr (std::is_same_v<T, RemoveReq>) return Op::Remove;
        else if constexpr (std::is_same_v<T, CasReq>) return Op::Cas;
        else if constexpr (std::is_same_v<T, MultiGetReq>) return Op::MultiGet;
        else if constexpr (std::is_same_v<T, MultiCasReq>) return Op::MultiCas;
        else if constexpr (std::is_same_v<T, ReplicaPutReq>) return Op::ReplicaPut;
        else if constexpr (std::is_same_v<T, ReplicaRemoveReq>) return Op::ReplicaRemove;
        else if constexpr (std::is_same_v<T, ReplicaGetReq>) return Op::ReplicaGet;
        else if constexpr (std::is_same_v<T, SizeReq>) return Op::Size;
        else if constexpr (std::is_same_v<T, SyncReq>) return Op::Sync;
        else if constexpr (std::is_same_v<T, CompactReq>) return Op::Compact;
        else if constexpr (std::is_same_v<T, GossipSyncReq>) return Op::GossipSync;
        else if constexpr (std::is_same_v<T, JoinReq>) return Op::Join;
        else if constexpr (std::is_same_v<T, LeaveReq>) return Op::Leave;
        else return Op::Handoff;
      },
      body);
}

// --- Encode ----------------------------------------------------------------

std::string encodeRequest(u64 requestId, const RequestBody& body,
                          bool noForward) {
  Encoder e(64);
  e.putU8(kMagic);
  e.putU8(kVersion);
  e.putU8(static_cast<u8>(opOf(body)));
  e.putU8(noForward ? kNoForwardBit : 0);
  e.putVarint(requestId);
  std::visit(
      [&e](const auto& b) {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, PutReq>) {
          e.putVarBytes(b.key);
          e.putVarBytes(b.value);
        } else if constexpr (std::is_same_v<T, GetReq> ||
                             std::is_same_v<T, RemoveReq> ||
                             std::is_same_v<T, ReplicaRemoveReq> ||
                             std::is_same_v<T, ReplicaGetReq>) {
          e.putVarBytes(b.key);
        } else if constexpr (std::is_same_v<T, CasReq>) {
          putCasEntry(e, b);
        } else if constexpr (std::is_same_v<T, MultiGetReq>) {
          e.putVarint(b.entries.size());
          for (const GetReq& g : b.entries) e.putVarBytes(g.key);
        } else if constexpr (std::is_same_v<T, MultiCasReq>) {
          e.putVarint(b.entries.size());
          for (const CasReq& c : b.entries) putCasEntry(e, c);
        } else if constexpr (std::is_same_v<T, ReplicaPutReq>) {
          e.putVarBytes(b.key);
          e.putVarBytes(b.value);
          e.putVarint(b.version);
        } else if constexpr (std::is_same_v<T, GossipSyncReq>) {
          e.putVarint(b.senderId);
          e.putVarint(b.version);
          putNodeEntries(e, b.entries);
        } else if constexpr (std::is_same_v<T, JoinReq>) {
          putNodeEntry(e, b.joiner);
        } else if constexpr (std::is_same_v<T, LeaveReq>) {
          e.putVarint(b.nodeId);
          e.putVarint(b.incarnation);
        } else if constexpr (std::is_same_v<T, HandoffReq>) {
          e.putVarint(b.entries.size());
          for (const HandoffEntry& h : b.entries) {
            e.putVarBytes(h.key);
            e.putVarint(h.version);
            e.putVarBytes(h.value);
          }
        }
        // Ping/Size/Sync/Compact: empty bodies.
      },
      body);
  return std::move(e).take();
}

std::string encodeReply(u64 requestId, Op op, Status status,
                        const ReplyBody& body) {
  Encoder e(64);
  putHeader(e, static_cast<u8>(op) | kReplyBit, status, requestId);
  std::visit(
      [&e](const auto& b) {
        using T = std::decay_t<decltype(b)>;
        if constexpr (std::is_same_v<T, PingRep>) {
          e.putVarBytes(b.nodeName);
        } else if constexpr (std::is_same_v<T, PutRep>) {
          e.putVarint(b.version);
        } else if constexpr (std::is_same_v<T, GetRep>) {
          putGetRep(e, b);
        } else if constexpr (std::is_same_v<T, RemoveRep>) {
          e.putU8(b.existed ? 1 : 0);
        } else if constexpr (std::is_same_v<T, CasRep>) {
          putCasRep(e, b);
        } else if constexpr (std::is_same_v<T, MultiGetRep>) {
          e.putVarint(b.entries.size());
          for (const GetRep& g : b.entries) putGetRep(e, g);
        } else if constexpr (std::is_same_v<T, MultiCasRep>) {
          e.putVarint(b.entries.size());
          for (const CasRep& c : b.entries) putCasRep(e, c);
        } else if constexpr (std::is_same_v<T, ReplicaRemoveRep>) {
          e.putU8(b.existed ? 1 : 0);
        } else if constexpr (std::is_same_v<T, SizeRep>) {
          e.putVarint(b.primaryKeys);
        } else if constexpr (std::is_same_v<T, GossipSyncRep>) {
          e.putVarint(b.version);
          putNodeEntries(e, b.entries);
        } else if constexpr (std::is_same_v<T, JoinRep>) {
          e.putU8(b.accepted ? 1 : 0);
          e.putVarint(b.keysStreamed);
          e.putVarint(b.version);
          putNodeEntries(e, b.entries);
        } else if constexpr (std::is_same_v<T, LeaveRep>) {
          e.putU8(b.known ? 1 : 0);
        } else if constexpr (std::is_same_v<T, HandoffRep>) {
          e.putVarint(b.installed);
        } else if constexpr (std::is_same_v<T, RedirectRep>) {
          e.putVarint(b.ownerId);
          e.putU32(b.host);
          e.putVarint(b.port);
          e.putVarint(b.version);
        }
        // EmptyRep/ReplicaPutRep/SyncRep/CompactRep: empty bodies.
      },
      body);
  return std::move(e).take();
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

DecodeResult<Reply> decodeGossipTrailer(Decoder& d, Reply rep) {
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

  auto fail = [&]() -> DecodeError {
    return d.remaining() == 0 ? DecodeError::Truncated : DecodeError::BadField;
  };
  switch (req.header.op) {
    case Op::Ping: req.body = PingReq{}; break;
    case Op::Size: req.body = SizeReq{}; break;
    case Op::Sync: req.body = SyncReq{}; break;
    case Op::Compact: req.body = CompactReq{}; break;
    case Op::Put: {
      PutReq b;
      auto key = d.getVarBytes();
      if (!key) return fail();
      auto value = d.getVarBytes();
      if (!value) return fail();
      b.key = std::move(*key);
      b.value = std::move(*value);
      req.body = std::move(b);
      break;
    }
    case Op::Get: case Op::Remove: case Op::ReplicaRemove: case Op::ReplicaGet: {
      auto key = d.getVarBytes();
      if (!key) return fail();
      if (req.header.op == Op::Get) req.body = GetReq{std::move(*key)};
      else if (req.header.op == Op::Remove) req.body = RemoveReq{std::move(*key)};
      else if (req.header.op == Op::ReplicaRemove)
        req.body = ReplicaRemoveReq{std::move(*key)};
      else req.body = ReplicaGetReq{std::move(*key)};
      break;
    }
    case Op::Cas: {
      CasReq b;
      if (!getCasEntry(d, b)) return fail();
      req.body = std::move(b);
      break;
    }
    case Op::MultiGet: {
      auto n = getCount(d);
      if (!n) return fail();
      MultiGetReq b;
      b.entries.reserve(*n);
      for (u64 i = 0; i < *n; ++i) {
        auto key = d.getVarBytes();
        if (!key) return fail();
        b.entries.push_back(GetReq{std::move(*key)});
      }
      req.body = std::move(b);
      break;
    }
    case Op::MultiCas: {
      auto n = getCount(d);
      if (!n) return fail();
      MultiCasReq b;
      b.entries.reserve(*n);
      for (u64 i = 0; i < *n; ++i) {
        CasReq c;
        if (!getCasEntry(d, c)) return fail();
        b.entries.push_back(std::move(c));
      }
      req.body = std::move(b);
      break;
    }
    case Op::ReplicaPut: {
      ReplicaPutReq b;
      auto key = d.getVarBytes();
      if (!key) return fail();
      auto value = d.getVarBytes();
      if (!value) return fail();
      auto ver = d.getVarint();
      if (!ver) return fail();
      b.key = std::move(*key);
      b.value = std::move(*value);
      b.version = *ver;
      req.body = std::move(b);
      break;
    }
    case Op::GossipSync: {
      GossipSyncReq b;
      auto sender = d.getVarint();
      if (!sender) return fail();
      auto ver = d.getVarint();
      if (!ver) return fail();
      b.senderId = *sender;
      b.version = *ver;
      if (!getNodeEntries(d, b.entries)) return fail();
      req.body = std::move(b);
      break;
    }
    case Op::Join: {
      JoinReq b;
      if (!getNodeEntry(d, b.joiner)) return fail();
      req.body = std::move(b);
      break;
    }
    case Op::Leave: {
      LeaveReq b;
      auto id = d.getVarint();
      if (!id) return fail();
      auto inc = d.getVarint();
      if (!inc) return fail();
      b.nodeId = *id;
      b.incarnation = *inc;
      req.body = std::move(b);
      break;
    }
    case Op::Handoff: {
      auto n = getCount(d);
      if (!n) return fail();
      HandoffReq b;
      b.entries.reserve(*n);
      for (u64 i = 0; i < *n; ++i) {
        HandoffEntry h2;
        auto key = d.getVarBytes();
        if (!key) return fail();
        auto ver = d.getVarint();
        if (!ver) return fail();
        auto value = d.getVarBytes();
        if (!value) return fail();
        h2.key = std::move(*key);
        h2.version = *ver;
        h2.value = std::move(*value);
        b.entries.push_back(std::move(h2));
      }
      req.body = std::move(b);
      break;
    }
  }
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
  auto fail = [&]() -> DecodeError {
    return d.remaining() == 0 ? DecodeError::Truncated : DecodeError::BadField;
  };
  if (rep.header.status == Status::Redirect) {
    RedirectRep b;
    auto owner = d.getVarint();
    if (!owner) return fail();
    auto host = d.getU32();
    if (!host) return fail();
    auto port = d.getVarint();
    if (!port || *port > 65535) return fail();
    auto ver = d.getVarint();
    if (!ver) return fail();
    b.ownerId = *owner;
    b.host = *host;
    b.port = static_cast<u16>(*port);
    b.version = *ver;
    rep.body = std::move(b);
    return decodeGossipTrailer(d, std::move(rep));
  }
  if (rep.header.status != Status::Ok) {
    rep.body = EmptyRep{};
    return decodeGossipTrailer(d, std::move(rep));
  }
  switch (rep.header.op) {
    case Op::Ping: {
      auto name = d.getVarBytes();
      if (!name) return fail();
      rep.body = PingRep{std::move(*name)};
      break;
    }
    case Op::Put: {
      auto ver = d.getVarint();
      if (!ver) return fail();
      rep.body = PutRep{*ver};
      break;
    }
    case Op::Get: case Op::ReplicaGet: {
      GetRep b;
      if (!getGetRep(d, b)) return fail();
      rep.body = std::move(b);
      break;
    }
    case Op::Remove: {
      auto existed = getFlag(d);
      if (!existed) return fail();
      rep.body = RemoveRep{*existed};
      break;
    }
    case Op::Cas: {
      CasRep b;
      if (!getCasRep(d, b)) return fail();
      rep.body = std::move(b);
      break;
    }
    case Op::MultiGet: {
      auto n = getCount(d);
      if (!n) return fail();
      MultiGetRep b;
      b.entries.reserve(*n);
      for (u64 i = 0; i < *n; ++i) {
        GetRep g;
        if (!getGetRep(d, g)) return fail();
        b.entries.push_back(std::move(g));
      }
      rep.body = std::move(b);
      break;
    }
    case Op::MultiCas: {
      auto n = getCount(d);
      if (!n) return fail();
      MultiCasRep b;
      b.entries.reserve(*n);
      for (u64 i = 0; i < *n; ++i) {
        CasRep c;
        if (!getCasRep(d, c)) return fail();
        b.entries.push_back(std::move(c));
      }
      rep.body = std::move(b);
      break;
    }
    case Op::ReplicaPut: rep.body = ReplicaPutRep{}; break;
    case Op::ReplicaRemove: {
      auto existed = getFlag(d);
      if (!existed) return fail();
      rep.body = ReplicaRemoveRep{*existed};
      break;
    }
    case Op::Size: {
      auto n = d.getVarint();
      if (!n) return fail();
      rep.body = SizeRep{*n};
      break;
    }
    case Op::Sync: rep.body = SyncRep{}; break;
    case Op::Compact: rep.body = CompactRep{}; break;
    case Op::GossipSync: {
      GossipSyncRep b;
      auto ver = d.getVarint();
      if (!ver) return fail();
      b.version = *ver;
      if (!getNodeEntries(d, b.entries)) return fail();
      rep.body = std::move(b);
      break;
    }
    case Op::Join: {
      JoinRep b;
      auto accepted = getFlag(d);
      if (!accepted) return fail();
      auto streamed = d.getVarint();
      if (!streamed) return fail();
      auto ver = d.getVarint();
      if (!ver) return fail();
      b.accepted = *accepted;
      b.keysStreamed = *streamed;
      b.version = *ver;
      if (!getNodeEntries(d, b.entries)) return fail();
      rep.body = std::move(b);
      break;
    }
    case Op::Leave: {
      auto known = getFlag(d);
      if (!known) return fail();
      rep.body = LeaveRep{*known};
      break;
    }
    case Op::Handoff: {
      auto installed = d.getVarint();
      if (!installed) return fail();
      rep.body = HandoffRep{*installed};
      break;
    }
  }
  return decodeGossipTrailer(d, std::move(rep));
}

}  // namespace lht::rpc::wire
