// RoutedNetDht: the Dht interface over real datagrams, against a cluster
// of overlay daemons (DESIGN.md §15).
//
// The client holds a full view of the cluster — the membership table and
// the ring every overlay node computes from it (MemberRing is a pure
// function of the table) — and routes each op straight to the key's
// owner: one hop, the single-hop DHT design. It gets its first view one
// of two ways:
//  * members — a static launch set, given at construction. The view is
//    the table an `lht_noded --peers` launch seeds on every daemon
//    (overlay::launchTable), so the client routes its first op with no
//    bootstrap round. A static cluster is an overlay that never churns.
//  * seed — any one live member. bootstrap() gossip-pulls its table
//    (GossipSync with senderId 0 marks a client pull).
//
// Either way the view then heals itself from its members, three ways,
// all lazy:
//  * Redirect — an op that lands on the wrong node (stale view during a
//    join/leave) comes back Status::Redirect with the fresh owner
//    endpoint; the client re-pulls the table and retries. When
//    forwarding is enabled server-side the op instead succeeds in one
//    client round trip and only the hint reveals the staleness.
//  * Gossip hints — every overlay reply trailer carries (senderId, table
//    version). A version bump from a node we've heard before means the
//    membership changed; the next op triggers a background-free re-pull.
//  * Timeouts — a silent owner gets one view refresh + retry before the
//    op fails with DhtTimeoutError (a crashed node's range moves to the
//    promoted survivor, so the retry usually lands).
// A member that answers a pull with an empty table (a bare NodeServer)
// leaves the view as it is.
//
// Replication is client-driven: the writer pushes copies to the key's
// successor holders, mirroring ChordDht's primary/replica split so
// getReplica and the failover decorators behave identically. The push is
// best-effort: the primary already committed, and a silent holder only
// shows up in the timeout count (a later read of that replica misses,
// which failover treats as any other replica miss).
//
// apply() over a network: the mutator is an arbitrary client-side
// closure, so it cannot run at the server. apply() is a read-modify-write
// loop over a digest-guarded CAS: the mutator runs locally on a value and
// the CAS applies iff the stored value still has that value's digest
// (DESIGN.md §14). applyFrom() starts from the caller's copy of the value
// (the index passes the bucket it holds), so a current copy costs one
// round, the CAS; apply() reads first, a GET round. A conflict reply
// carries the current value, so each retry costs one round, not two. GET
// and CAS are routed like any single-key op, so a redirect or timeout
// inside the loop is followed like any other.
//
// Batched ops group keys by owner under the current view and pack them
// into MultiGet/MultiCas datagrams (capped per datagram), so a round
// costs ~one datagram per involved node instead of one per key. A node
// answers the longest prefix of a MultiGet that fits one reply datagram
// (DESIGN.md §14); the tail goes out again next round without spending a
// regroup round. Every reply answers at least one entry, or fails the
// first one with TooLarge, so re-sending tails terminates. A Redirect or
// timeout on a chunk refreshes the view and regroups just the affected
// entries, so a single mid-batch topology change costs one extra round
// for those keys, not a failed batch.
//
// Conditional reads (DESIGN.md §14): getIfChanged and multiGetIfChanged
// put the caller's held digest in each GetReq, and an entry the owner
// answers `unchanged` comes back without its value. They go through the
// same routing, redirect, regroup and prefix-tail paths as any read; an
// overlay node relays or redirects the request with its digest intact.
//
// Transport is injected via factory: UdpTransport for real clusters,
// SimHub endpoints for deterministic tests. Each concurrent caller
// borrows a (transport, RpcClient) connection from an internal pool, so
// a ClientFleet drives one client from many threads.
//
// Failure mapping: an RPC that exhausts its deadline surfaces as
// DhtTimeoutError (getReplica: DhtPeerDownError — a silent holder is a
// down holder), which is what the Retrying/Failover decorators and the
// leaf-cache lease machinery key on.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dht/dht.h"
#include "overlay/membership.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"
#include "rpc/wire.h"

namespace lht::dht {

class RoutedNetDht final : public Dht {
 public:
  using TransportFactory = std::function<std::unique_ptr<rpc::Transport>()>;

  struct Options {
    /// Any live overlay member; bootstrap() learns everything else.
    rpc::NetAddr seed;
    /// Or the static launch set: the first view, with no bootstrap.
    /// Exactly one of `seed` and `members` is set.
    std::vector<rpc::NetAddr> members;
    /// Must match the cluster's overlay options (the ring is a pure
    /// function of table + these).
    size_t virtualNodes = 32;
    /// Total copies of each key (primary + replicas), clamped to the
    /// member count. 1 = no replication.
    size_t replication = 1;
    rpc::RpcClient::Options rpc;
    /// CAS attempts per apply before giving up (contention bound).
    size_t casRetries = 16;
    /// Client-side attempts per op (each attempt = route + one RPC);
    /// redirects and refresh-retries consume attempts.
    size_t maxAttempts = 4;
  };

  /// Relaxed counters, like DhtStats: concurrent callers bump them with
  /// no lock, and a copy is a snapshot.
  struct RoutedStats {
    common::RelaxedCounter bootstraps;  ///< successful table pulls
    common::RelaxedCounter refreshes;   ///< view rebuilds after the first
    common::RelaxedCounter redirectsFollowed;
    common::RelaxedCounter staleHints;  ///< hint version bumps observed
    common::RelaxedCounter retriesAfterTimeout;
    /// Read entries sent with a held digest, and those answered
    /// `unchanged` (no value shipped).
    common::RelaxedCounter conditionalReads;
    common::RelaxedCounter unchangedReads;
    /// applyFrom calls, and those whose CAS from the start conflicted (the
    /// start was stale).
    common::RelaxedCounter appliesFromStart;
    common::RelaxedCounter startConflicts;
    common::RelaxedCounter connections;
    // Transport and RPC totals across the connection pool.
    common::RelaxedCounter datagramsSent;
    common::RelaxedCounter datagramsReceived;
    common::RelaxedCounter requestsStarted;
    common::RelaxedCounter retransmits;
    common::RelaxedCounter timeouts;
  };

  RoutedNetDht(Options options, TransportFactory makeTransport);
  ~RoutedNetDht() override;

  /// Pulls the membership table from the seed (a static client: from its
  /// members), retrying until one answers with a non-empty table or
  /// `deadlineMs` of transport time passes. A seeded client's ops before
  /// a successful bootstrap throw DhtTimeoutError. Safe to call again
  /// (acts as a forced refresh).
  bool bootstrap(common::u64 deadlineMs);

  // Dht interface ------------------------------------------------------------
  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  /// Starts from a GET round; runs `fn` on the state, CASes the result
  /// guarded by the state's digest, and on a conflict re-runs `fn` on the
  /// value the conflict reply carries. A no-change outcome (value
  /// unchanged, or absent stays absent) ends the call. An applied CAS is
  /// replicated. At most `casRetries` CAS rounds; throws DhtError when all
  /// conflict. Returns whether the key existed before the write (or, for a
  /// no-change outcome, at the read).
  bool apply(const Key& key, const Mutator& fn) override;
  /// apply() with `start` as the first state instead of a GET round: the
  /// first CAS is guarded by the start's digest. A no-change outcome on
  /// the start stands only after a conditional GET carrying that digest
  /// comes back `unchanged`; a changed answer becomes the state and `fn`
  /// runs again.
  bool applyFrom(const Key& key, const Value& start,
                 const Mutator& fn) override;
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
  /// One routed GetReq carrying `held`.
  GetOutcome getIfChanged(const Key& key, common::u64 held) override;
  /// multiGet's rounds, each entry's GetReq carrying its held digest.
  std::vector<GetOutcome> multiGetIfChanged(
      const std::vector<Key>& keys,
      const std::vector<common::u64>& held) override;
  std::vector<ApplyOutcome> multiApply(
      const std::vector<ApplyRequest>& reqs) override;
  void storeDirect(const Key& key, Value value) override;
  [[nodiscard]] size_t replicaFanout() const override;
  std::optional<Value> getReplica(const Key& key,
                                  size_t replicaIndex) override;
  void syncStorage() override;
  void compactStorage() override;
  [[nodiscard]] size_t size() const override;

  [[nodiscard]] RoutedStats routedStats() const;
  /// Members (state <= Suspect) in the current view; 0 = not bootstrapped.
  [[nodiscard]] size_t knownMembers() const;

 private:
  struct Conn {
    std::unique_ptr<rpc::Transport> transport;
    std::unique_ptr<rpc::RpcClient> rpc;
  };
  class Lease;  // RAII borrow of one Conn

  /// Immutable routing view, atomically swapped on refresh. Readers copy
  /// the shared_ptr under a short lock and route lock-free.
  struct View {
    overlay::MemberRing ring;
    std::unordered_map<common::u64, rpc::NetAddr> addrs;  // ring members
    std::vector<rpc::NetAddr> pullTargets;  // members to refresh from
  };

  /// One entry's MultiGet result: the stored record, or why it failed.
  struct Fetched {
    bool ok = false;
    rpc::wire::GetRep rep;  ///< present/version/value (valid when ok)
    std::string error;      ///< failure description when !ok
  };

  /// A view of `table`'s ring members; nullptr when it has none.
  [[nodiscard]] std::shared_ptr<const View> makeView(
      const std::vector<rpc::wire::NodeEntry>& table) const;
  [[nodiscard]] std::shared_ptr<const View> view() const;
  [[nodiscard]] std::shared_ptr<const View> requireView() const;
  /// Pulls the table from `from` and installs a fresh view on success.
  bool pullView(rpc::RpcClient& cli, const rpc::NetAddr& from);
  /// Re-pulls from any current member (a seeded client falls back to the
  /// seed).
  bool refreshView(rpc::RpcClient& cli);
  /// Tracks per-sender table versions from reply hints; a bump schedules
  /// a refresh before the next routed attempt.
  void noteHint(const std::optional<rpc::wire::GossipHint>& hint);

  /// Routes a single-key op: resolve owner, call, follow one redirect /
  /// refresh-and-retry on timeout, up to maxAttempts. Each attempt after
  /// the first adds one to stats_.hops.
  rpc::RpcClient::Result callRouted(rpc::RpcClient& cli, const Key& key,
                                    const rpc::wire::RequestBody& body);

  /// The key's replica holders under `v` (members missing from the view
  /// are skipped).
  [[nodiscard]] std::vector<rpc::NetAddr> replicaAddrs(const View& v,
                                                       const Key& key) const;
  /// MultiGet rounds for `keys` (the batch reads and multiApply's
  /// snapshot phase): groups by owner under the current view, re-sends
  /// prefix-reply tails, and regroups Redirected or timed-out chunks after
  /// a refresh. Entry i's GetReq carries held[i].
  std::vector<Fetched> fetch(rpc::RpcClient& cli, const std::vector<Key>& keys,
                             const std::vector<common::u64>& held);
  /// apply() and applyFrom(): the CAS loop from `start`, or from a GET
  /// round when it is null.
  bool casLoop(const Key& key, const Value* start, const Mutator& fn);

  Options opts_;
  TransportFactory makeTransport_;

  mutable std::mutex viewMutex_;
  std::shared_ptr<const View> view_;
  std::unordered_map<common::u64, common::u64> hintVersions_;
  bool refreshWanted_ = false;

  mutable std::mutex poolMutex_;
  mutable std::vector<std::unique_ptr<Conn>> conns_;
  mutable std::vector<size_t> freeConns_;

  RoutedStats routedStats_;
};

}  // namespace lht::dht
