// OverlayNode: a NodeServer that knows the ring (DESIGN.md §15).
//
// Wraps a plain rpc::NodeServer with the three things PR 9's cluster
// lacked:
//
//  * Membership — a gossiped MembershipTable. Every pumpOnce() the node
//    may start an anti-entropy round (push own table to a random peer,
//    merge what comes back); repeated round timeouts escalate a peer
//    Alive → Suspect → Dead. Every reply the node sends carries a gossip
//    hint trailer (own id + table version), so clients and peers notice
//    staleness for free.
//
//  * Server-side routing — a node answers a keyed request for a key it
//    does not own with Status::Redirect carrying the owner it believes
//    in; the client pulls a fresh view and re-routes (single-key and
//    batched requests alike, so the client's batches stay grouped by
//    owner). A request stamped no-forward (a joiner's warm-window fetch,
//    below) is always answered where it lands.
//
//  * Elasticity — joinCluster() bootstraps from any live seed: pull the
//    table, announce via JoinReq to every member; each member streams
//    the keys the joiner now owns as Handoff batches (asynchronously,
//    without stalling its serve loop) and demotes them to replicas only
//    after the last batch is acknowledged, so no read window ever finds
//    the data nowhere. Until its streams land, the joiner answers a
//    primary miss by warm-fetching the key from the previous owner,
//    installing it, and only then executing the op locally — writes
//    during the transfer window therefore version-dominate the late
//    stream (max-version install) instead of being rolled back.
//    leaveGracefully() is the inverse: stream everything out, announce
//    Left. A crashed node is caught by the gossip failure detector;
//    survivors promote their replica copies of its range (the PR 6
//    repair model, server-side).
//
// Threading: the node is single-driver — pumpOnce()/serve()/join/leave
// must be called from one thread. That thread multiplexes the node's one
// transport between the server role and outgoing RPCs (warm fetches,
// gossip, handoff): inbound replies are routed to the internal RpcClient,
// and every outgoing call is a *continuation* resolved on a later pump,
// so the serve loop never blocks on a remote — the property that keeps
// availability high mid-join and makes two nodes calling each other
// deadlock-free. Storage (NodeServer) and the membership table have their
// own locks, so observers may read them from other threads.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "overlay/membership.h"
#include "rpc/node_server.h"
#include "rpc/reply_cache.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"

namespace lht::overlay {

class OverlayNode {
 public:
  struct Options {
    std::string name = "overlay";
    /// Ring points per member (must match across the cluster and its
    /// routed clients — the ring is a pure function of table+this).
    size_t virtualNodes = 32;
    /// Distinct successor holders promoted on crash repair; must match
    /// the clients' replication factor for crash-loss-free operation.
    size_t replication = 1;
    u64 gossipIntervalMs = 250;
    /// Deadline/backoff for the node's own outgoing calls. Kept tighter
    /// than the client default: a warm fetch that cannot complete quickly
    /// degrades to answering from local state.
    rpc::RpcClient::Options rpc{/*initialRetransmitMs=*/40,
                                /*maxRetransmitMs=*/200,
                                /*requestDeadlineMs=*/800};
    rpc::NodeServer::Options server;
  };

  struct OverlayStats {
    common::RelaxedCounter redirects;         ///< Status::Redirect answers
    /// Retransmitted Join and warm-window requests answered from the
    /// reply cache instead of running again.
    common::RelaxedCounter dedupHits;
    common::RelaxedCounter gossipRounds;
    common::RelaxedCounter gossipTimeouts;
    common::RelaxedCounter suspectsRaised;
    common::RelaxedCounter deadRaised;
    common::RelaxedCounter reconciles;        ///< ownership repair passes
    common::RelaxedCounter replicasPromoted;  ///< crash repair promotions
    common::RelaxedCounter replicaPushes;     ///< re-replication datagrams
    common::RelaxedCounter joinsServed;       ///< JoinReqs accepted
    common::RelaxedCounter handoffKeysSent;
    common::RelaxedCounter handoffBatchesSent;
    common::RelaxedCounter warmFetches;       ///< warm-window remote fills
  };

  /// `transport` is the node's bound endpoint; it must outlive the node.
  OverlayNode(Options options, rpc::Transport& transport);

  // --- Lifecycle ------------------------------------------------------------

  /// Installs a static launch-time membership (every daemon of a
  /// fixed-list cluster seeds the same table; gossip then only has to
  /// repair divergence). Entries for self are ignored.
  void seedMembership(const std::vector<rpc::wire::NodeEntry>& entries);

  /// Bootstraps into a live cluster from one seed endpoint: pulls the
  /// table, announces via JoinReq to every member, opens the warm
  /// window. Drives the transport until the announce round resolves or
  /// `deadlineMs` transport-time passes. Returns false when the seed
  /// never answered or every member refused.
  bool joinCluster(const NetAddr& seed, u64 deadlineMs);

  /// Streams every primary key to its post-departure owner, announces
  /// Left, and returns once the announcements resolve (or deadline).
  /// Returns the number of keys streamed out.
  size_t leaveGracefully(u64 deadlineMs);

  // --- Driving --------------------------------------------------------------

  /// One event-loop turn: receive (≤ `maxWaitMs`, bounded by the next
  /// internal timer), dispatch requests/replies, advance retransmits,
  /// resolve warm-fetch/handoff/gossip continuations, maybe start a gossip
  /// round. Returns the number of datagrams processed.
  size_t pumpOnce(u64 maxWaitMs);

  /// pumpOnce until `stop`.
  void serve(const std::atomic<bool>& stop);

  // --- Observation ----------------------------------------------------------

  [[nodiscard]] u64 selfId() const { return table_.selfId(); }
  [[nodiscard]] MembershipTable& membership() { return table_; }
  [[nodiscard]] const MembershipTable& membership() const { return table_; }
  [[nodiscard]] rpc::NodeServer& server() { return server_; }
  [[nodiscard]] const OverlayStats& overlayStats() const { return stats_; }
  [[nodiscard]] rpc::RpcClient& rpcClient() { return client_; }
  /// Streams still draining toward joiners/leavers (0 = quiescent).
  [[nodiscard]] size_t pendingHandoffJobs() const { return handoffJobs_.size(); }

 private:
  // Continuations keyed by outgoing-call token.
  struct PendingGossip {
    u64 peerId = 0;
  };
  struct WarmJob;
  struct PendingWarmFetch {
    std::shared_ptr<WarmJob> job;
    std::string key;
  };
  struct WarmJob {
    NetAddr origin;
    u64 originId = 0;
    rpc::wire::Request request;  // the origin's request, executed last
    size_t outstanding = 0;
  };
  struct HandoffJob {
    NetAddr target;
    u64 targetNodeId = 0;
    std::vector<rpc::wire::HandoffEntry> entries;
    size_t cursor = 0;     // entries[0..cursor) acknowledged
    size_t lastBatch = 0;  // size of the in-flight batch
    size_t retries = 0;
    bool demoteOnDone = false;  // join streaming demotes; leave exits anyway
    bool inFlight = false;
    bool done = false;
  };
  struct PendingHandoff {
    std::shared_ptr<HandoffJob> job;
  };
  struct Pending {
    enum class Kind { Gossip, WarmFetch, Handoff, ReplicaPush } kind;
    PendingGossip gossip;
    PendingWarmFetch warm;
    PendingHandoff handoff;
  };

  // Request path.
  std::string handleRequest(const NetAddr& from, std::string_view payload);
  std::string finishLocal(const NetAddr& from, const rpc::wire::Request& req);
  std::string makeRedirect(u64 requestId, rpc::wire::Op op, u64 ownerId);
  /// Appends the gossip hint trailer; a reply the trailer would push over
  /// kMaxDatagramBytes becomes a hinted TooLarge reply instead.
  void stampHint(std::string& reply);
  /// The key a single-key data op routes on; nullptr for everything else.
  static const std::string* routedKey(const rpc::wire::RequestBody& body);

  // Continuation resolution.
  void drainResolved();
  void resolveGossip(const PendingGossip& p, const rpc::RpcClient::Result& r);
  void resolveWarmFetch(const PendingWarmFetch& p,
                        const rpc::RpcClient::Result& r);
  void resolveHandoff(const PendingHandoff& p, const rpc::RpcClient::Result& r);

  // Membership machinery.
  void maybeGossip(u64 now);
  void refreshRing();
  void reconcileOwnership();
  void noteMembershipChanged();
  void startHandoffTo(const rpc::wire::NodeEntry& target,
                      std::vector<rpc::wire::HandoffEntry> entries,
                      bool demoteOnDone);
  void pumpHandoffJobs();
  /// Holds `reply` for `origin`'s request `requestId` in the reply cache
  /// and sends it.
  void finishReply(const NetAddr& origin, u64 requestId, std::string reply);
  [[nodiscard]] bool warming() const;

  Options opts_;
  rpc::Transport& transport_;
  rpc::NodeServer server_;
  MembershipTable table_;
  rpc::RpcClient client_;
  common::Pcg32 rng_;

  MemberRing ring_;
  u64 ringVersion_ = 0;
  u64 reconciledVersion_ = 0;

  u64 nextGossipAtMs_ = 0;
  u64 warmUntilMs_ = 0;
  std::unordered_map<u64, size_t> gossipFailures_;  // peerId -> consecutive

  std::unordered_map<rpc::RpcClient::Token, Pending> pending_;
  /// At-most-once replies to Join and warm-window requests.
  rpc::ReplyCache replies_;
  std::vector<std::shared_ptr<HandoffJob>> handoffJobs_;
  std::vector<rpc::Datagram> batch_;
  OverlayStats stats_;
};

}  // namespace lht::overlay
