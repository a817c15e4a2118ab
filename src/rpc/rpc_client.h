// Async request/reply layer over a datagram Transport.
//
// UDP gives us nothing: no delivery, no ordering, no dedup. This layer
// adds the client half of a classic at-most-once RPC (Birrell & Nelson):
// every request gets a fresh id, sits in a request table, and is
// retransmitted on a doubling backoff until a reply with that id arrives
// or the per-request deadline passes. Many requests can be in flight at
// once — RoutedNetDht leans on that to run a whole batched round (one
// datagram per node) as a single settle().
//
// Usage:
//   Token t1 = client.call(nodeA, GetReq{key1});
//   Token t2 = client.call(nodeB, GetReq{key2});
//   client.settle();                      // drives transport until done
//   Result r = client.take(t1);           // r.timedOut / r.status / r.body
//
// The server half (dedup cache keyed by (addr, requestId)) lives in
// NodeServer; together they make retransmitted non-idempotent ops safe.
#pragma once

#include <optional>
#include <unordered_map>

#include "rpc/transport.h"
#include "rpc/wire.h"

namespace lht::rpc {

// The RPC layer speaks the wire vocabulary natively.
using wire::Op;
using wire::ReplyBody;
using wire::RequestBody;
using wire::Status;

class RpcClient {
 public:
  struct Options {
    /// First retransmit fires this long after the initial send; doubles
    /// each time (capped) — classic exponential backoff.
    u64 initialRetransmitMs = 40;
    u64 maxRetransmitMs = 400;
    /// A request unanswered this long is resolved as timed out.
    u64 requestDeadlineMs = 2000;
  };

  struct Stats {
    common::RelaxedCounter requestsStarted;  ///< logical calls
    common::RelaxedCounter retransmits;      ///< extra datagrams beyond the first
    common::RelaxedCounter timeouts;
    /// Replies dropped unmatched: no pending request, wrong source
    /// address, or an op that is not the one the request was sent under.
    common::RelaxedCounter staleReplies;
    /// Requests too large for any datagram, failed locally (TooLarge)
    /// without ever touching the transport.
    common::RelaxedCounter oversized;
  };

  using Token = u64;

  struct Result {
    bool timedOut = false;
    Status status = Status::Ok;
    /// The op the request was sent under (set at call() time). A reply
    /// is only accepted if it echoes this op, so `body` always holds the
    /// variant alternative the op implies.
    Op op = Op::Ping;
    ReplyBody body;
    u32 sends = 0;  ///< datagrams spent on this request (1 = no retransmit)
    /// Piggybacked membership freshness, when the server attached one.
    std::optional<wire::GossipHint> hint;

    [[nodiscard]] bool ok() const { return !timedOut && status == Status::Ok; }
  };

  explicit RpcClient(Transport& transport) : RpcClient(transport, Options{}) {}
  RpcClient(Transport& transport, Options options);

  /// Starts a request: encodes, sends, registers in the table. The token
  /// stays valid until take()n. Does not block. `noForward` stamps
  /// wire::kNoForwardBit — set by an overlay node's warm-window fetch, so
  /// the receiver answers it instead of redirecting.
  Token call(const NetAddr& to, const RequestBody& body,
             bool noForward = false);

  /// Drives the transport (receive + retransmit + expire) until every
  /// pending request is resolved. Safe to call with none pending.
  void settle();

  /// Removes and returns a resolved request's outcome. checkInvariant
  /// fails on an unknown or still-pending token — settle() first.
  Result take(Token token);

  /// Convenience for the one-shot case.
  Result callOne(const NetAddr& to, const RequestBody& body);

  // --- Shared-transport driving ---------------------------------------------
  // An overlay node multiplexes one socket between its server role and its
  // outgoing calls, so it cannot let settle() own the transport's receive.
  // Instead its event loop routes inbound reply datagrams here and calls
  // pump() on its own cadence, polling resolved() per token.

  /// Feeds one inbound reply datagram to the request table. Garbage,
  /// duplicates, and unmatched replies are counted and dropped.
  void deliver(const Datagram& d) { handleDatagram(d); }

  /// Retransmits due requests and expires past-deadline ones. Returns the
  /// ms until the next timer fires (0 = nothing pending).
  u64 pump(u64 now);

  /// Whether take(token) would succeed. checkInvariant-fails on a token
  /// that was never issued or already taken.
  [[nodiscard]] bool resolved(Token token) const;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Transport& transport() { return transport_; }
  [[nodiscard]] size_t pendingCount() const { return pendingLive_; }

 private:
  struct Pending {
    NetAddr to;
    std::string wire;
    u64 deadlineAtMs = 0;
    u64 nextSendAtMs = 0;
    u64 backoffMs = 0;
    bool resolved = false;
    Result result;
  };

  void handleDatagram(const Datagram& d);

  Transport& transport_;
  Options opts_;
  Stats stats_;
  /// Randomized per incarnation (see constructor) so a restarted client
  /// cannot collide with its predecessor's ids in a server dedup cache.
  u64 nextId_ = 1;
  size_t pendingLive_ = 0;  ///< unresolved entries in requests_
  std::unordered_map<u64, Pending> requests_;
  std::vector<Datagram> rxBuf_;
};

}  // namespace lht::rpc
