#include "rpc/rpc_client.h"

#include <algorithm>
#include <random>

#include "common/types.h"

namespace lht::rpc {

using wire::decodeReply;
using wire::DecodeError;
using wire::encodeRequest;
using wire::Reply;

RpcClient::RpcClient(Transport& transport, Options options)
    : transport_(transport), opts_(options) {
  // Start ids at a random point per incarnation: a restarted client that
  // inherits its predecessor's ephemeral port and restarts at id 1 would
  // otherwise match the server dedup cache's (host, port, requestId)
  // keys and be answered with replayed replies to someone else's calls.
  // The start is uniform in [1, 2^34], so an id stays under 2^35, five
  // varint bytes, for 2^34 calls: a 9-byte header. A restart on the same
  // port collides only if its first ids fall within a dedup window
  // (dedupCapacity 4096) of its predecessor's last: odds about
  // 2 * 4096 / 2^34, 5e-7, per same-port restart.
  std::random_device rd;
  const u64 bits = (u64{rd()} << 32) | rd();
  nextId_ = (bits & ((u64{1} << 34) - 1)) + 1;
}

RpcClient::Token RpcClient::call(const NetAddr& to, const RequestBody& body,
                                 bool noForward) {
  const u64 id = nextId_++;
  const u64 now = transport_.nowMs();
  Pending p;
  p.to = to;
  p.result.op = wire::opOf(body);
  p.wire = encodeRequest(id, body, noForward);
  stats_.requestsStarted += 1;
  if (p.wire.size() > kMaxDatagramBytes) {
    // No datagram transport will carry this; retransmitting it until the
    // deadline would only dress a deterministic local failure up as a
    // remote timeout 2 s later. Resolve immediately with an in-band
    // status instead (sends stays 0: nothing touched the wire).
    p.resolved = true;
    p.result.status = Status::TooLarge;
    stats_.oversized += 1;
    requests_.emplace(id, std::move(p));
    return id;
  }
  p.deadlineAtMs = now + opts_.requestDeadlineMs;
  p.backoffMs = opts_.initialRetransmitMs;
  p.nextSendAtMs = now + p.backoffMs;
  p.result.sends = 1;
  // A failed send here (or on retransmit) is treated like any lost
  // datagram — the retransmit timer is the recovery path. Only the
  // oversized case above fails deterministically on every attempt.
  transport_.send(to, p.wire);
  requests_.emplace(id, std::move(p));
  pendingLive_ += 1;
  return id;
}

void RpcClient::handleDatagram(const Datagram& d) {
  auto decoded = decodeReply(d.payload);
  if (std::holds_alternative<DecodeError>(decoded)) {
    stats_.staleReplies += 1;  // garbage or foreign traffic; drop
    return;
  }
  auto& reply = std::get<Reply>(decoded);
  auto it = requests_.find(reply.header.requestId);
  if (it == requests_.end() || it->second.resolved) {
    stats_.staleReplies += 1;  // late duplicate after resolution
    return;
  }
  // Paranoia: a reply must come from where the request went. A stale
  // datagram from a previous endpoint reusing our port could otherwise
  // be matched by id alone.
  if (!(d.from == it->second.to)) {
    stats_.staleReplies += 1;
    return;
  }
  Pending& p = it->second;
  // A reply must also echo the op the request went out under. A server
  // dedup cache keyed by (host, port, requestId) can replay a previous
  // incarnation's reply for a colliding id; accepting it would hand the
  // caller the wrong ReplyBody alternative (std::bad_variant_access in
  // RoutedNetDht). Id randomization makes collisions unlikely; this makes
  // them harmless.
  if (reply.header.op != p.result.op) {
    stats_.staleReplies += 1;
    return;
  }
  p.result.timedOut = false;
  p.result.status = reply.header.status;
  p.result.body = std::move(reply.body);
  p.result.hint = reply.hint;
  p.resolved = true;
  pendingLive_ -= 1;
}

u64 RpcClient::pump(u64 now) {
  u64 nextTimer = ~u64{0};
  for (auto& [id, p] : requests_) {
    if (p.resolved) continue;
    if (now >= p.deadlineAtMs) {
      p.result.timedOut = true;
      p.resolved = true;
      pendingLive_ -= 1;
      stats_.timeouts += 1;
      continue;
    }
    if (now >= p.nextSendAtMs) {
      transport_.send(p.to, p.wire);
      p.result.sends += 1;
      stats_.retransmits += 1;
      p.backoffMs = std::min(p.backoffMs * 2, opts_.maxRetransmitMs);
      p.nextSendAtMs = now + p.backoffMs;
    }
    nextTimer = std::min(nextTimer, std::min(p.nextSendAtMs, p.deadlineAtMs));
  }
  return nextTimer == ~u64{0} ? 0 : nextTimer - now;
}

void RpcClient::settle() {
  while (pendingLive_ > 0) {
    const u64 wait = pump(transport_.nowMs());
    if (pendingLive_ == 0) break;
    rxBuf_.clear();
    transport_.receive(rxBuf_, std::max<u64>(wait, 1));
    for (const Datagram& d : rxBuf_) handleDatagram(d);
  }
}

bool RpcClient::resolved(Token token) const {
  auto it = requests_.find(token);
  common::checkInvariant(it != requests_.end(),
                         "RpcClient::resolved: unknown token");
  return it->second.resolved;
}

RpcClient::Result RpcClient::take(Token token) {
  auto it = requests_.find(token);
  common::checkInvariant(it != requests_.end(), "RpcClient::take: unknown token");
  common::checkInvariant(it->second.resolved,
                         "RpcClient::take: request still pending (settle first)");
  Result r = std::move(it->second.result);
  requests_.erase(it);
  return r;
}

RpcClient::Result RpcClient::callOne(const NetAddr& to,
                                     const RequestBody& body) {
  const Token t = call(to, body);
  settle();
  return take(t);
}

}  // namespace lht::rpc
