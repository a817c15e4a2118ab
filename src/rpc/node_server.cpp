#include "rpc/node_server.h"

#include "common/hash.h"
#include "common/types.h"

namespace lht::rpc {

using namespace wire;  // NOLINT — implementation file for the wire protocol

namespace {

/// Largest encoded reply NodeServer emits: an overlay node appends a
/// gossip hint trailer after it, and the result must still fit.
constexpr size_t kReplyBudget = kMaxDatagramBytes - kMaxGossipHintBytes;

/// Requests whose replies the at-most-once cache keeps: the ones that
/// change the store, where a re-execution would act twice.
bool changesStore(Op op) {
  switch (op) {
    case Op::Put:
    case Op::Remove:
    case Op::Cas:
    case Op::MultiCas:
    case Op::ReplicaPut:
    case Op::ReplicaRemove:
    case Op::Handoff:
      return true;
    default:
      return false;
  }
}

}  // namespace

NodeServer::NodeServer(Options options) : opts_(std::move(options)) {}

size_t NodeServer::dedupSize() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dedup_.size();
}

size_t NodeServer::primaryKeyCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return primary_.size();
}

size_t NodeServer::replicaKeyCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return replica_.size();
}

std::optional<std::string> NodeServer::primaryValue(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = primary_.find(key);
  if (it == primary_.end()) return std::nullopt;
  return it->second.value;
}

std::optional<std::string> NodeServer::replicaValue(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = replica_.find(key);
  if (it == replica_.end()) return std::nullopt;
  return it->second.value;
}

std::optional<std::pair<u64, std::string>> NodeServer::primaryRecord(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = primary_.find(key);
  if (it == primary_.end()) return std::nullopt;
  return std::make_pair(it->second.version, it->second.value);
}

std::optional<std::pair<u64, std::string>> NodeServer::replicaRecord(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = replica_.find(key);
  if (it == replica_.end()) return std::nullopt;
  return std::make_pair(it->second.version, it->second.value);
}

std::vector<HandoffEntry> NodeServer::collectPrimary(
    const std::function<bool(const std::string&)>& pred) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HandoffEntry> out;
  for (const auto& [key, stored] : primary_) {
    if (!pred(key)) continue;
    out.push_back(HandoffEntry{key, stored.version, stored.value});
  }
  return out;
}

bool NodeServer::installNewer(Table& table, const std::string& key,
                              Stored copy) {
  auto [it, fresh] = table.try_emplace(key);
  if (!fresh && it->second.version >= copy.version) return false;
  it->second = std::move(copy);
  return true;
}

bool NodeServer::installPrimary(const std::string& key, u64 version,
                                const std::string& value) {
  std::lock_guard<std::mutex> lock(mutex_);
  return installNewer(primary_, key, Stored{version, value});
}

size_t NodeServer::demotePrimary(
    const std::function<bool(const std::string&)>& pred) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t moved = 0;
  for (auto it = primary_.begin(); it != primary_.end();) {
    if (!pred(it->first)) {
      ++it;
      continue;
    }
    installNewer(replica_, it->first, std::move(it->second));
    it = primary_.erase(it);
    moved += 1;
  }
  return moved;
}

size_t NodeServer::promoteReplica(
    const std::function<bool(const std::string&)>& pred) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t moved = 0;
  for (auto it = replica_.begin(); it != replica_.end();) {
    if (!pred(it->first)) {
      ++it;
      continue;
    }
    installNewer(primary_, it->first, std::move(it->second));
    it = replica_.erase(it);
    moved += 1;
  }
  return moved;
}

GetRep NodeServer::doGet(const GetReq& req) const {
  // Caller holds mutex_.
  GetRep rep;
  auto it = primary_.find(req.key);
  if (it == primary_.end()) return rep;
  rep.present = true;
  rep.version = it->second.version;
  // The digest is taken here, from the value being answered, and only
  // when the request carries one: no write path keeps a digest that could
  // go stale.
  rep.unchanged =
      req.held != 0 && common::hash::valueDigest(it->second.value) == req.held;
  if (!rep.unchanged) rep.value = it->second.value;
  return rep;
}

CasRep NodeServer::doCas(const CasReq& entry) {
  // Caller holds mutex_.
  CasRep rep;
  auto it = primary_.find(entry.key);
  const u64 storedVersion = (it == primary_.end()) ? 0 : it->second.version;
  rep.existedBefore = it != primary_.end();
  // The guard is the stored bytes' digest, taken here as doGet takes it:
  // a version restarts after an erase, the bytes of a recreated key do not
  // match an old copy's.
  const u64 storedDigest =
      it == primary_.end() ? 0 : common::hash::valueDigest(it->second.value);
  if (storedDigest != entry.expected) {
    // Conflict: ship back current state so the client can re-run its
    // mutator without another GET round.
    stats_.casConflicts += 1;
    rep.applied = false;
    rep.currentVersion = storedVersion;
    if (it != primary_.end()) {
      rep.currentPresent = true;
      rep.currentValue = it->second.value;
    }
    return rep;
  }
  rep.applied = true;
  if (entry.present) {
    Stored& s = primary_[entry.key];
    s.version = storedVersion + 1;
    s.value = entry.value;
    rep.currentVersion = s.version;
    rep.currentPresent = true;
  } else {
    if (it != primary_.end()) primary_.erase(it);
    rep.currentVersion = storedVersion + 1;  // erases advance versions too
    rep.currentPresent = false;
  }
  return rep;
}

ReplyBody NodeServer::dispatch(const RequestBody& req, size_t bodyBudget) {
  // Caller holds mutex_.
  return std::visit(
      [this, bodyBudget](const auto& body) -> ReplyBody {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, PingReq>) {
          return PingRep{opts_.name};
        } else if constexpr (std::is_same_v<T, PutReq>) {
          Stored& s = primary_[body.key];
          s.version += 1;
          s.value = body.value;
          return PutRep{s.version};
        } else if constexpr (std::is_same_v<T, GetReq>) {
          GetRep rep = doGet(body);
          if (rep.unchanged) stats_.unchangedReads += 1;
          return rep;
        } else if constexpr (std::is_same_v<T, RemoveReq>) {
          const bool existed = primary_.erase(body.key) > 0;
          return RemoveRep{existed};
        } else if constexpr (std::is_same_v<T, CasReq>) {
          return doCas(body);
        } else if constexpr (std::is_same_v<T, MultiGetReq>) {
          // The longest prefix that fits one datagram; the client re-sends
          // the tail. The count varint is sized for the full request, an
          // upper bound on the prefix's.
          MultiGetRep rep;
          const size_t countBytes = common::varintSize(body.entries.size());
          size_t room = bodyBudget > countBytes ? bodyBudget - countBytes : 0;
          u64 unchanged = 0;
          for (const GetReq& g : body.entries) {
            GetRep entry = doGet(g);
            const size_t bytes = getRepWireBytes(entry);
            if (bytes > room) break;
            room -= bytes;
            unchanged += entry.unchanged ? 1 : 0;
            rep.entries.push_back(std::move(entry));
          }
          if (unchanged != 0) stats_.unchangedReads += unchanged;
          return rep;
        } else if constexpr (std::is_same_v<T, MultiCasReq>) {
          MultiCasRep rep;
          rep.entries.reserve(body.entries.size());
          for (const CasReq& c : body.entries) rep.entries.push_back(doCas(c));
          return rep;
        } else if constexpr (std::is_same_v<T, ReplicaPutReq>) {
          Stored& s = replica_[body.key];
          s.version = body.version;
          s.value = body.value;
          return ReplicaPutRep{};
        } else if constexpr (std::is_same_v<T, ReplicaRemoveReq>) {
          const bool existed = replica_.erase(body.key) > 0;
          return ReplicaRemoveRep{existed};
        } else if constexpr (std::is_same_v<T, ReplicaGetReq>) {
          GetRep rep;
          auto it = replica_.find(body.key);
          if (it != replica_.end()) {
            rep.present = true;
            rep.version = it->second.version;
            rep.value = it->second.value;
          }
          return rep;
        } else if constexpr (std::is_same_v<T, SizeReq>) {
          return SizeRep{primary_.size()};
        } else if constexpr (std::is_same_v<T, SyncReq>) {
          return SyncRep{};  // store is always in-memory-durable here
        } else if constexpr (std::is_same_v<T, CompactReq>) {
          return CompactRep{};
        } else if constexpr (std::is_same_v<T, HandoffReq>) {
          // Bulk key install (overlay join streaming / reconcile).
          // Max-version: a retransmitted batch is idempotent, and a client
          // write that raced ahead of the stream is never rolled back.
          HandoffRep rep;
          for (const HandoffEntry& h : body.entries) {
            if (installNewer(primary_, h.key, Stored{h.version, h.value})) {
              rep.installed += 1;
            }
          }
          return rep;
        } else if constexpr (std::is_same_v<T, GossipSyncReq>) {
          // A bare node has no membership table; the empty reply leaves a
          // pulling client's view as it is.
          return GossipSyncRep{};
        } else if constexpr (std::is_same_v<T, JoinReq>) {
          return JoinRep{};  // accepted=false: bare nodes refuse joins
        } else {
          static_assert(std::is_same_v<T, LeaveReq>);
          return LeaveRep{};  // known=false
        }
      },
      req);
}

std::string NodeServer::handle(const NetAddr& from, std::string_view payload) {
  auto decoded = decodeRequest(payload);
  if (std::holds_alternative<DecodeError>(decoded)) {
    stats_.badRequests += 1;
    // Reply only when the header (magic, version, id) parsed cleanly:
    // then a future opcode earns an UnknownOp (echoing the raw opcode —
    // decodeHeader is lenient there) and a broken body a BadRequest, so
    // the client fails fast instead of retransmitting a poison request
    // until deadline. Anything less trustworthy — noise, foreign
    // traffic, truncated headers — is dropped silently to avoid
    // amplifying junk.
    auto h = decodeHeader(payload);
    if (std::holds_alternative<DecodeError>(h)) return {};
    const Header& hd = std::get<Header>(h);
    if (hd.isReply) return {};
    if (!opKnown(static_cast<u8>(hd.op))) {
      return encodeReply(hd.requestId, hd.op, Status::UnknownOp, EmptyRep{});
    }
    return encodeReply(hd.requestId, hd.op, Status::BadRequest, EmptyRep{});
  }
  return handle(from, std::get<Request>(decoded));
}

std::string NodeServer::handle(const NetAddr& from, const Request& req) {
  const u64 id = req.header.requestId;
  const bool cacheable = changesStore(req.header.op);
  const DedupKey dkey{from.host, from.port, id};
  std::lock_guard<std::mutex> lock(mutex_);
  if (cacheable) {
    auto cached = dedup_.find(dkey);
    if (cached != dedup_.end()) {
      stats_.dedupHits += 1;
      return cached->second;
    }
  }
  // Header: magic, version, op, status, then the request id varint.
  const size_t headerBytes = 4 + common::varintSize(id);
  const ReplyBody rep = dispatch(req.body, kReplyBudget - headerBytes);
  bool emptyPrefix = false;
  if (const auto* multi = std::get_if<MultiGetRep>(&rep)) {
    const size_t asked = std::get<MultiGetReq>(req.body).entries.size();
    emptyPrefix = multi->entries.empty() && asked > 0;
    if (!emptyPrefix && multi->entries.size() < asked) stats_.prefixReplies += 1;
  }
  std::string encoded;
  if (!emptyPrefix) encoded = encodeReply(id, req.header.op, Status::Ok, rep);
  if (emptyPrefix || encoded.size() > kReplyBudget) {
    encoded = encodeReply(id, req.header.op, Status::TooLarge, EmptyRep{});
    stats_.oversizedReplies += 1;
  }
  if (cacheable) {
    dedup_.emplace(dkey, encoded);
    dedupOrder_.push_back(dkey);
    while (dedupOrder_.size() > opts_.dedupCapacity) {
      dedup_.erase(dedupOrder_.front());
      dedupOrder_.pop_front();
    }
  }
  stats_.requestsHandled += 1;
  return encoded;
}

}  // namespace lht::rpc
