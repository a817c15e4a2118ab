#include "overlay/overlay_node.h"

#include <algorithm>
#include <unordered_set>

#include "common/types.h"

namespace lht::overlay {

using namespace rpc::wire;  // NOLINT — implementation file for the protocol
using rpc::Datagram;
using rpc::RpcClient;

namespace {

/// Consecutive gossip-round timeouts before Suspect / Dead.
constexpr size_t kSuspectAfterFailures = 2;
constexpr size_t kDeadAfterFailures = 4;
/// Warm window after joinCluster(): primary misses are fetched from the
/// previous owner instead of answered absent.
constexpr u64 kWarmupMs = 3000;
/// Bounded relay bookkeeping: in-flight/replayable forwarded requests per
/// origin (at-most-once across the forwarding hop).
constexpr size_t kRelayDedupCapacity = 1024;

}  // namespace

OverlayNode::OverlayNode(Options options, rpc::Transport& transport)
    : opts_(std::move(options)),
      transport_(transport),
      server_(opts_.server),
      table_(launchEntry(transport.localAddr()), /*incarnation=*/1),
      client_(transport, opts_.rpc),
      rng_(table_.selfId(), 0x5eed) {
  refreshRing();
}

// --- Request path -----------------------------------------------------------

void OverlayNode::stampHint(std::string& reply) {
  if (reply.empty()) return;
  const GossipHint hint{table_.selfId(), table_.version()};
  appendGossipHint(reply, hint);
  if (reply.size() <= rpc::kMaxDatagramBytes) return;
  // The cap holds on the final bytes. NodeServer leaves room for the
  // trailer, but this node's own encodes bypass it (a relayed reply
  // re-encoded under the origin's request id, a read served from a
  // replica copy). No transport would carry an overflowing reply, and the
  // client would retransmit until its deadline: answer TooLarge instead.
  const Header h = std::get<Header>(decodeHeader(reply));
  reply = encodeReply(h.requestId, h.op, Status::TooLarge, EmptyRep{});
  appendGossipHint(reply, hint);
}

std::string OverlayNode::finishLocal(const NetAddr& from, const Request& req) {
  std::string reply = server_.handle(from, req);
  stampHint(reply);
  return reply;
}

std::string OverlayNode::makeRedirect(u64 requestId, Op op, u64 ownerId) {
  RedirectRep body;
  body.ownerId = ownerId;
  body.version = table_.version();
  if (auto entry = table_.find(ownerId)) {
    body.host = entry->host;
    body.port = entry->port;
  }
  stats_.redirects += 1;
  std::string reply = encodeReply(requestId, op, Status::Redirect, body);
  stampHint(reply);
  return reply;
}

const std::string* OverlayNode::routedKey(const RequestBody& body) {
  if (const auto* p = std::get_if<PutReq>(&body)) return &p->key;
  if (const auto* g = std::get_if<GetReq>(&body)) return &g->key;
  if (const auto* r = std::get_if<RemoveReq>(&body)) return &r->key;
  if (const auto* c = std::get_if<CasReq>(&body)) return &c->key;
  return nullptr;
}

bool OverlayNode::warming() const {
  return warmUntilMs_ != 0;  // cleared by pumpOnce when the window closes
}

std::string OverlayNode::handleRequest(const NetAddr& from,
                                       std::string_view payload) {
  auto decoded = decodeRequest(payload);
  if (std::holds_alternative<DecodeError>(decoded)) {
    // NodeServer owns the garbage policy (reply BadRequest/UnknownOp when
    // the header parsed, silence otherwise).
    std::string reply = server_.handle(from, payload);
    stampHint(reply);
    return reply;
  }
  Request& req = std::get<Request>(decoded);
  const u64 reqId = req.header.requestId;

  // Overlay protocol ops.
  if (auto* gs = std::get_if<GossipSyncReq>(&req.body)) {
    if (gs->senderId != 0 && table_.mergeAll(gs->entries) > 0) {
      noteMembershipChanged();
    }
    GossipSyncRep rep;
    rep.version = table_.version();
    rep.entries = table_.snapshot();
    std::string reply = encodeReply(reqId, Op::GossipSync, Status::Ok, rep);
    stampHint(reply);
    return reply;
  }
  if (auto* join = std::get_if<JoinReq>(&req.body)) {
    // At-most-once across retransmits: announcing twice must not stream
    // the key range twice.
    const RelayKey rkey{from.host, from.port, reqId};
    if (auto it = relays_.find(rkey); it != relays_.end()) {
      stats_.relayDedupHits += 1;
      return it->second.done ? it->second.reply : std::string{};
    }
    JoinRep rep;
    if (join->joiner.id != 0 && join->joiner.id != table_.selfId()) {
      table_.merge(join->joiner);
      noteMembershipChanged();
      const u64 joinerId = join->joiner.id;
      auto toStream = server_.collectPrimary([&](const std::string& key) {
        return ring_.owner(key) == joinerId;
      });
      rep.accepted = true;
      rep.keysStreamed = toStream.size();
      stats_.joinsServed += 1;
      if (!toStream.empty()) {
        startHandoffTo(join->joiner, std::move(toStream),
                       /*demoteOnDone=*/true);
      }
    }
    rep.version = table_.version();
    rep.entries = table_.snapshot();
    std::string reply = encodeReply(reqId, Op::Join, Status::Ok, rep);
    stampHint(reply);
    trackRelay(rkey);
    finishRelay(rkey, from, reply);
    return {};  // finishRelay already sent it
  }
  if (auto* leave = std::get_if<LeaveReq>(&req.body)) {
    LeaveRep rep;
    rep.known = table_.find(leave->nodeId).has_value();
    if (table_.markLeft(leave->nodeId, leave->incarnation)) {
      noteMembershipChanged();
    }
    std::string reply = encodeReply(reqId, Op::Leave, Status::Ok, rep);
    stampHint(reply);
    return reply;
  }

  // Keyed data ops: route on the ring.
  refreshRing();
  if (const std::string* key = routedKey(req.body)) {
    const u64 owner = ring_.empty() ? 0 : ring_.owner(*key);
    if (owner != 0 && owner != table_.selfId()) {
      if (req.header.noForward) {
        // Forwarded here on a stale view (or we just demoted the key):
        // answer locally; a read can still be served from the demoted
        // replica copy.
        if (std::holds_alternative<GetReq>(req.body)) {
          if (!server_.primaryRecord(*key).has_value()) {
            if (auto rec = server_.replicaRecord(*key)) {
              GetRep rep;
              rep.present = true;
              rep.version = rec->first;
              rep.value = std::move(rec->second);
              std::string reply = encodeReply(reqId, Op::Get, Status::Ok, rep);
              stampHint(reply);
              return reply;
            }
          }
        }
        return finishLocal(from, req);
      }
      auto entry = table_.find(owner);
      const bool ownerAlive =
          entry && entry->state == static_cast<u8>(NodeState::Alive);
      if (opts_.forwardData && ownerAlive) {
        const RelayKey rkey{from.host, from.port, reqId};
        if (auto it = relays_.find(rkey); it != relays_.end()) {
          stats_.relayDedupHits += 1;
          return it->second.done ? it->second.reply : std::string{};
        }
        PendingRelay relay;
        relay.origin = from;
        relay.originId = reqId;
        relay.op = req.header.op;
        relay.ownerId = owner;
        const RpcClient::Token t =
            client_.call(addrOf(*entry), std::move(req.body),
                         /*noForward=*/true);
        Pending p;
        p.kind = Pending::Kind::Relay;
        p.relay = std::move(relay);
        pending_.emplace(t, std::move(p));
        trackRelay(rkey);
        stats_.forwards += 1;
        return {};  // reply follows when the relayed call resolves
      }
      return makeRedirect(reqId, req.header.op, owner);
    }
    // We own the key (or the ring is unknown — stand-alone node).
    if (owner != 0 && warming() && !server_.primaryRecord(*key).has_value()) {
      const u64 prev = ring_.ownerExcluding(*key, table_.selfId());
      auto prevEntry = prev == 0 ? std::nullopt : table_.find(prev);
      if (prevEntry &&
          prevEntry->state <= static_cast<u8>(NodeState::Suspect)) {
        const RelayKey rkey{from.host, from.port, reqId};
        if (auto it = relays_.find(rkey); it != relays_.end()) {
          stats_.relayDedupHits += 1;
          return it->second.done ? it->second.reply : std::string{};
        }
        auto job = std::make_shared<WarmJob>();
        job->origin = from;
        job->originId = reqId;
        job->outstanding = 1;
        PendingWarmFetch fetch;
        fetch.job = job;
        fetch.key = *key;
        const RpcClient::Token t = client_.call(
            addrOf(*prevEntry), GetReq{*key}, /*noForward=*/true);
        job->request = std::move(req);  // `key` points into it: moved last
        Pending p;
        p.kind = Pending::Kind::WarmFetch;
        p.warm = std::move(fetch);
        pending_.emplace(t, std::move(p));
        trackRelay(rkey);
        stats_.warmFetches += 1;
        return {};  // reply follows once the previous owner answered
      }
    }
    return finishLocal(from, req);
  }

  // Batched ops: never forwarded — a foreign key means the client's
  // grouping is stale, so redirect and let it regroup.
  const std::vector<GetReq>* multiGets = nullptr;
  const std::vector<CasReq>* multiCass = nullptr;
  if (const auto* mg = std::get_if<MultiGetReq>(&req.body)) {
    multiGets = &mg->entries;
  } else if (const auto* mc = std::get_if<MultiCasReq>(&req.body)) {
    multiCass = &mc->entries;
  }
  if ((multiGets != nullptr || multiCass != nullptr) && !ring_.empty() &&
      !req.header.noForward) {
    const size_t n = multiGets ? multiGets->size() : multiCass->size();
    for (size_t i = 0; i < n; ++i) {
      const std::string& key =
          multiGets ? (*multiGets)[i].key : (*multiCass)[i].key;
      const u64 owner = ring_.owner(key);
      if (owner != 0 && owner != table_.selfId()) {
        return makeRedirect(reqId, req.header.op, owner);
      }
    }
    // All ours. During the warm window, pre-fetch the misses before the
    // batch executes so the batch sees the transferred state.
    if (warming()) {
      auto job = std::make_shared<WarmJob>();
      for (size_t i = 0; i < n; ++i) {
        const std::string& key =
            multiGets ? (*multiGets)[i].key : (*multiCass)[i].key;
        if (server_.primaryRecord(key).has_value()) continue;
        const u64 prev = ring_.ownerExcluding(key, table_.selfId());
        auto prevEntry = prev == 0 ? std::nullopt : table_.find(prev);
        if (!prevEntry ||
            prevEntry->state > static_cast<u8>(NodeState::Suspect)) {
          continue;
        }
        if (job->outstanding == 0) {
          const RelayKey rkey{from.host, from.port, reqId};
          if (auto it = relays_.find(rkey); it != relays_.end()) {
            stats_.relayDedupHits += 1;
            return it->second.done ? it->second.reply : std::string{};
          }
          job->origin = from;
          job->originId = reqId;
          trackRelay(rkey);
        }
        PendingWarmFetch fetch;
        fetch.job = job;
        fetch.key = key;
        const RpcClient::Token t =
            client_.call(addrOf(*prevEntry), GetReq{key}, /*noForward=*/true);
        Pending p;
        p.kind = Pending::Kind::WarmFetch;
        p.warm = std::move(fetch);
        pending_.emplace(t, std::move(p));
        job->outstanding += 1;
        stats_.warmFetches += 1;
      }
      if (job->outstanding > 0) {
        job->request = std::move(req);  // the loop above reads its keys
        return {};
      }
    }
  }

  // Everything else (Ping/Size/Sync/Compact, replica ops, Handoff) is
  // plain storage — the wrapped server executes it.
  return finishLocal(from, req);
}

void OverlayNode::trackRelay(const RelayKey& key) {
  relays_.emplace(key, RelayState{});
  relayOrder_.push_back(key);
  while (relayOrder_.size() > kRelayDedupCapacity) {
    relays_.erase(relayOrder_.front());
    relayOrder_.pop_front();
  }
}

void OverlayNode::finishRelay(const RelayKey& key, const NetAddr& origin,
                              std::string reply) {
  if (auto it = relays_.find(key); it != relays_.end()) {
    it->second.done = true;
    it->second.reply = reply;
  }
  if (!reply.empty()) transport_.send(origin, reply);
}

// --- Continuation resolution ------------------------------------------------

void OverlayNode::drainResolved() {
  std::vector<RpcClient::Token> ready;
  for (const auto& [token, p] : pending_) {
    if (client_.resolved(token)) ready.push_back(token);
  }
  for (const RpcClient::Token token : ready) {
    auto it = pending_.find(token);
    Pending p = std::move(it->second);
    pending_.erase(it);
    RpcClient::Result r = client_.take(token);
    if (r.hint && r.hint->senderId != 0) {
      // Piggybacked freshness from the callee; a version we have not
      // seen will be pulled in on the next gossip round.
      if (auto peer = table_.find(r.hint->senderId);
          peer && gossipFailures_.count(peer->id)) {
        gossipFailures_[peer->id] = 0;  // it answered something, at least
      }
    }
    switch (p.kind) {
      case Pending::Kind::Relay: resolveRelay(p.relay, std::move(r)); break;
      case Pending::Kind::Gossip: resolveGossip(p.gossip, r); break;
      case Pending::Kind::WarmFetch: resolveWarmFetch(p.warm, r); break;
      case Pending::Kind::Handoff: resolveHandoff(p.handoff, r); break;
      case Pending::Kind::ReplicaPush: break;  // best-effort, like the client's
    }
  }
}

void OverlayNode::resolveRelay(const PendingRelay& p, RpcClient::Result r) {
  const RelayKey rkey{p.origin.host, p.origin.port, p.originId};
  std::string reply;
  if (r.timedOut) {
    // The owner went quiet under us: hand the origin a redirect so it can
    // retry against its own (possibly fresher) view.
    stats_.forwardTimeouts += 1;
    reply = makeRedirect(p.originId, p.op, p.ownerId);
  } else {
    reply = encodeReply(p.originId, p.op, r.status, r.body);
    stampHint(reply);
  }
  finishRelay(rkey, p.origin, std::move(reply));
}

void OverlayNode::resolveGossip(const PendingGossip& p,
                                const RpcClient::Result& r) {
  if (r.timedOut) {
    stats_.gossipTimeouts += 1;
    const size_t fails = ++gossipFailures_[p.peerId];
    if (fails == kSuspectAfterFailures && table_.markSuspect(p.peerId)) {
      stats_.suspectsRaised += 1;
      noteMembershipChanged();
    }
    if (fails >= kDeadAfterFailures && table_.markDead(p.peerId)) {
      stats_.deadRaised += 1;
      noteMembershipChanged();
    }
    return;
  }
  gossipFailures_[p.peerId] = 0;
  if (const auto* rep = std::get_if<GossipSyncRep>(&r.body)) {
    if (table_.mergeAll(rep->entries) > 0) noteMembershipChanged();
  }
}

void OverlayNode::resolveWarmFetch(const PendingWarmFetch& p,
                                   const RpcClient::Result& r) {
  if (r.ok()) {
    if (const auto* rep = std::get_if<GetRep>(&r.body); rep && rep->present) {
      server_.installPrimary(p.key, rep->version, rep->value);
    }
  }
  // A timed-out fetch degrades to "absent here": the op proceeds on local
  // state; retries re-fetch.
  WarmJob& job = *p.job;
  common::checkInvariant(job.outstanding > 0,
                         "OverlayNode: warm job underflow");
  if (--job.outstanding > 0) return;
  const RelayKey rkey{job.origin.host, job.origin.port, job.originId};
  finishRelay(rkey, job.origin, finishLocal(job.origin, job.request));
}

void OverlayNode::resolveHandoff(const PendingHandoff& p,
                                 const RpcClient::Result& r) {
  HandoffJob& job = *p.job;
  job.inFlight = false;
  if (r.ok()) {
    job.cursor += job.lastBatch;
    job.retries = 0;
    return;
  }
  job.retries += 1;
  if (job.retries > 3) {
    // The receiver is gone. Keep the keys — we stay primary for them, so
    // nothing is lost; a later reconcile settles ownership.
    job.done = true;
  }
}

// --- Membership machinery ---------------------------------------------------

void OverlayNode::refreshRing() {
  const u64 v = table_.version();
  if (v == ringVersion_) return;
  ring_ = MemberRing(table_.snapshot(), opts_.virtualNodes);
  ringVersion_ = v;
}

void OverlayNode::reconcileOwnership() {
  const u64 v = table_.version();
  if (v == reconciledVersion_) return;
  reconciledVersion_ = v;
  refreshRing();
  if (ring_.empty()) return;
  // Crash/leave repair: replica copies of ranges that now belong to us
  // become primaries (max-version, so a handoff that already delivered a
  // fresher copy wins). Demotion is NOT done here — a node only demotes
  // once a handoff it streamed has been fully acknowledged.
  const u64 self = table_.selfId();
  const size_t promoted = server_.promoteReplica(
      [&](const std::string& key) { return ring_.owner(key) == self; });
  stats_.replicasPromoted += promoted;
  stats_.reconciles += 1;

  // Re-replication: after any ring change, the successor set of a key can
  // move, leaving the old replica copies on non-owners — where a later
  // crash could not be repaired from. Re-push every owned record's
  // replicas to the CURRENT successors (idempotent version-stamped
  // ReplicaPut, fire-and-forget continuations), so the crash invariant
  // "each key's replicas sit on its ring successors" heals lazily.
  if (opts_.replication > 1 && ring_.memberCount() > 1) {
    const auto all =
        server_.collectPrimary([](const std::string&) { return true; });
    for (const HandoffEntry& e : all) {
      const auto holders = ring_.holders(e.key, opts_.replication - 1);
      for (size_t i = 1; i < holders.size(); ++i) {
        if (holders[i] == self) continue;
        auto entry = table_.find(holders[i]);
        if (!entry) continue;
        const RpcClient::Token t = client_.call(
            addrOf(*entry), ReplicaPutReq{e.key, e.value, e.version});
        Pending p;
        p.kind = Pending::Kind::ReplicaPush;
        pending_.emplace(t, std::move(p));
        stats_.replicaPushes += 1;
      }
    }
  }
}

void OverlayNode::noteMembershipChanged() {
  refreshRing();
  reconcileOwnership();
}

void OverlayNode::maybeGossip(u64 now) {
  if (now < nextGossipAtMs_) return;
  // Jittered cadence so a cluster started in lockstep doesn't synchronize
  // its rounds.
  nextGossipAtMs_ =
      now + opts_.gossipIntervalMs / 2 +
      rng_.below(static_cast<u32>(opts_.gossipIntervalMs) + 1);
  const std::vector<u64> peers = table_.peerIds();
  if (peers.empty()) return;
  const u64 peerId = peers[rng_.below(static_cast<u32>(peers.size()))];
  auto entry = table_.find(peerId);
  if (!entry) return;
  GossipSyncReq req;
  req.senderId = table_.selfId();
  req.version = table_.version();
  req.entries = table_.snapshot();
  const RpcClient::Token t = client_.call(addrOf(*entry), std::move(req));
  Pending p;
  p.kind = Pending::Kind::Gossip;
  p.gossip.peerId = peerId;
  pending_.emplace(t, std::move(p));
  stats_.gossipRounds += 1;
}

void OverlayNode::startHandoffTo(const NodeEntry& target,
                                 std::vector<HandoffEntry> entries,
                                 bool demoteOnDone) {
  auto job = std::make_shared<HandoffJob>();
  job->target = addrOf(target);
  job->targetNodeId = target.id;
  job->entries = std::move(entries);
  job->demoteOnDone = demoteOnDone;
  handoffJobs_.push_back(std::move(job));
}

void OverlayNode::pumpHandoffJobs() {
  for (auto& jobPtr : handoffJobs_) {
    HandoffJob& job = *jobPtr;
    if (job.done || job.inFlight) continue;
    if (job.cursor >= job.entries.size()) {
      if (job.demoteOnDone) {
        // Every batch acknowledged: the receiver has at least our
        // versions, so our copies step down to replicas.
        std::unordered_set<std::string> streamed;
        streamed.reserve(job.entries.size());
        for (const HandoffEntry& e : job.entries) streamed.insert(e.key);
        server_.demotePrimary([&](const std::string& key) {
          return streamed.count(key) > 0;
        });
      }
      job.done = true;
      continue;
    }
    HandoffReq req;
    size_t bytes = 0;
    size_t i = job.cursor;
    while (i < job.entries.size() &&
           req.entries.size() < rpc::kBatchKeysPerDatagram &&
           bytes < rpc::kBatchBytesPerDatagram) {
      bytes += job.entries[i].key.size() + job.entries[i].value.size() + 16;
      req.entries.push_back(job.entries[i]);
      i += 1;
    }
    job.lastBatch = req.entries.size();
    stats_.handoffBatchesSent += 1;
    stats_.handoffKeysSent += req.entries.size();
    const RpcClient::Token t = client_.call(job.target, std::move(req));
    Pending p;
    p.kind = Pending::Kind::Handoff;
    p.handoff.job = jobPtr;
    pending_.emplace(t, std::move(p));
    job.inFlight = true;
  }
  std::erase_if(handoffJobs_,
                [](const std::shared_ptr<HandoffJob>& j) { return j->done; });
}

// --- Driving ----------------------------------------------------------------

size_t OverlayNode::pumpOnce(u64 maxWaitMs) {
  refreshRing();
  u64 now = transport_.nowMs();
  if (nextGossipAtMs_ == 0) {
    nextGossipAtMs_ = now + rng_.below(
        static_cast<u32>(opts_.gossipIntervalMs) + 1);
  }
  if (warmUntilMs_ != 0 && now >= warmUntilMs_) warmUntilMs_ = 0;
  u64 wait = maxWaitMs;
  wait = std::min(wait, nextGossipAtMs_ > now ? nextGossipAtMs_ - now : 0);
  if (const u64 timer = client_.pump(now); timer > 0) {
    wait = std::min(wait, timer);
  }
  batch_.clear();
  transport_.receive(batch_, wait);
  for (const Datagram& d : batch_) {
    auto h = decodeHeader(d.payload);
    const bool isReply = std::holds_alternative<Header>(h) &&
                         std::get<Header>(h).isReply;
    if (isReply) {
      client_.deliver(d);
      continue;
    }
    std::string reply = handleRequest(d.from, d.payload);
    if (!reply.empty()) transport_.send(d.from, reply);
  }
  now = transport_.nowMs();
  client_.pump(now);
  drainResolved();
  pumpHandoffJobs();
  maybeGossip(now);
  return batch_.size();
}

void OverlayNode::serve(const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    pumpOnce(200);
  }
}

// --- Lifecycle --------------------------------------------------------------

void OverlayNode::seedMembership(const std::vector<NodeEntry>& entries) {
  table_.mergeAll(entries);
  noteMembershipChanged();
  // Launch-time members do not warm-fetch: the cluster starts empty.
  reconciledVersion_ = table_.version();
}

bool OverlayNode::joinCluster(const NetAddr& seed, u64 deadlineMs) {
  const u64 deadline = transport_.nowMs() + deadlineMs;
  // Phase 1: pull the seed's table (retry fresh requests until answered —
  // the seed may still be binding).
  bool pulled = false;
  while (!pulled && transport_.nowMs() < deadline) {
    GossipSyncReq req;
    req.senderId = table_.selfId();
    req.version = table_.version();
    req.entries = table_.snapshot();
    const RpcClient::Token t = client_.call(seed, std::move(req));
    while (!client_.resolved(t) && transport_.nowMs() < deadline) {
      pumpOnce(50);
    }
    if (!client_.resolved(t)) {
      // Deadline passed mid-flight; settle the table entry.
      client_.pump(~u64{0});
    }
    RpcClient::Result r = client_.take(t);
    if (r.ok()) {
      if (const auto* rep = std::get_if<GossipSyncRep>(&r.body)) {
        if (!rep->entries.empty()) {
          table_.mergeAll(rep->entries);
          pulled = true;
        }
      }
    }
  }
  if (!pulled) return false;
  refreshRing();

  // Phase 2: announce to every member; each streams our future keys.
  NodeEntry self;
  if (auto e = table_.find(table_.selfId())) self = *e;
  std::vector<RpcClient::Token> tokens;
  for (const u64 peerId : table_.peerIds()) {
    auto entry = table_.find(peerId);
    if (!entry) continue;
    tokens.push_back(client_.call(addrOf(*entry), JoinReq{self}));
  }
  size_t accepted = 0;
  for (const RpcClient::Token t : tokens) {
    while (!client_.resolved(t) && transport_.nowMs() < deadline) {
      pumpOnce(50);
    }
    if (!client_.resolved(t)) client_.pump(~u64{0});
    RpcClient::Result r = client_.take(t);
    if (!r.ok()) continue;
    if (const auto* rep = std::get_if<JoinRep>(&r.body); rep && rep->accepted) {
      table_.mergeAll(rep->entries);
      accepted += 1;
    }
  }
  noteMembershipChanged();
  // The launch state (pre-join keys) must stay reachable while streams
  // drain: warm-fetch misses from the previous owner.
  warmUntilMs_ = transport_.nowMs() + kWarmupMs;
  reconciledVersion_ = table_.version();  // no replica promotion on join
  return accepted > 0;
}

size_t OverlayNode::leaveGracefully(u64 deadlineMs) {
  const u64 deadline = transport_.nowMs() + deadlineMs;
  refreshRing();
  const u64 self = table_.selfId();

  // Stream every primary record to its post-departure owner.
  auto all = server_.collectPrimary([](const std::string&) { return true; });
  size_t streamed = 0;
  std::unordered_map<u64, std::vector<HandoffEntry>> byOwner;
  for (HandoffEntry& e : all) {
    const u64 owner = ring_.ownerExcluding(e.key, self);
    if (owner == 0 || owner == self) continue;
    byOwner[owner].push_back(std::move(e));
  }
  for (auto& [ownerId, entries] : byOwner) {
    auto entry = table_.find(ownerId);
    if (!entry) continue;
    streamed += entries.size();
    startHandoffTo(*entry, std::move(entries), /*demoteOnDone=*/false);
  }
  pumpHandoffJobs();
  while (!handoffJobs_.empty() && transport_.nowMs() < deadline) {
    pumpOnce(20);
  }

  // Announce: the Left rumor carries a bumped incarnation, so it beats
  // every Alive entry in every table it reaches.
  table_.leaveSelf();
  const u64 incarnation = table_.selfIncarnation();
  std::vector<RpcClient::Token> tokens;
  for (const u64 peerId : table_.peerIds()) {
    auto entry = table_.find(peerId);
    if (!entry) continue;
    tokens.push_back(
        client_.call(addrOf(*entry), LeaveReq{self, incarnation}));
  }
  for (const RpcClient::Token t : tokens) {
    while (!client_.resolved(t) && transport_.nowMs() < deadline) {
      pumpOnce(20);
    }
    if (!client_.resolved(t)) client_.pump(~u64{0});
    client_.take(t);
  }
  return streamed;
}

}  // namespace lht::overlay
