// RoutedNetDht: the Dht interface against a self-routing overlay cluster
// (DESIGN.md §15).
//
// Where NetDht is configured with the complete node list up front,
// RoutedNetDht knows only one seed endpoint. It bootstraps by
// gossip-pulling the seed's membership table (GossipSync with senderId 0
// marks a client pull), builds the same ring every overlay node computes
// (MemberRing is a pure function of the table), and from then on routes
// ops directly to owners — warm lookups are one hop, exactly like the
// static client.
//
// The view heals itself three ways, all lazy:
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
//
// apply() is NetDht's read-modify-write loop (dht/net_batch.h) with each
// GET and CAS routed like any single-key op: it starts from the calling
// thread's preceding get() of the key when there is one, and otherwise
// reads first.
//
// Batched ops group by owner under the current view; a Redirect on any
// chunk refreshes the view and regroups just the affected entries, so a
// single mid-batch topology change costs one extra round for those keys,
// not a failed batch. A MultiGet reply may answer only a prefix of its
// chunk (the datagram cap); the tail goes out again next round without
// spending a regroup round.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "dht/dht.h"
#include "dht/net_batch.h"
#include "overlay/membership.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"

namespace lht::dht {

class RoutedNetDht final : public Dht {
 public:
  using TransportFactory = std::function<std::unique_ptr<rpc::Transport>()>;

  struct Options {
    /// Any live overlay member; everything else is learned.
    rpc::NetAddr seed;
    /// Must match the cluster's overlay options (the ring is a pure
    /// function of table + these).
    size_t virtualNodes = 32;
    size_t replication = 1;
    rpc::RpcClient::Options rpc;
    size_t maxKeysPerDatagram = 32;
    size_t maxBytesPerDatagram = 48 * 1024;
    size_t casRetries = 16;
    /// Client-side attempts per op (each attempt = route + one RPC);
    /// redirects and refresh-retries consume attempts.
    size_t maxAttempts = 4;
    /// Batch regroup rounds (after a Redirect, a timeout, or an owner
    /// missing from the view). Re-sending a prefix reply's tail is free.
    size_t maxBatchRounds = 4;
  };

  struct RoutedStats {
    common::u64 bootstraps = 0;       ///< successful table pulls
    common::u64 refreshes = 0;        ///< view rebuilds after the first
    common::u64 redirectsFollowed = 0;
    common::u64 staleHints = 0;       ///< hint version bumps observed
    common::u64 retriesAfterTimeout = 0;
    common::u64 connections = 0;
  };

  RoutedNetDht(Options options, TransportFactory makeTransport);
  ~RoutedNetDht() override;

  /// Pulls the membership table from the seed, retrying until it answers
  /// with a non-empty table or `deadlineMs` of transport time passes.
  /// Ops before a successful bootstrap throw DhtTimeoutError. Safe to
  /// call again (acts as a forced refresh).
  bool bootstrap(common::u64 deadlineMs);

  // Dht interface ------------------------------------------------------------
  void put(const Key& key, Value value) override;
  std::optional<Value> get(const Key& key) override;
  bool remove(const Key& key) override;
  bool apply(const Key& key, const Mutator& fn) override;
  std::vector<GetOutcome> multiGet(const std::vector<Key>& keys) override;
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

  [[nodiscard]] std::shared_ptr<const View> view() const;
  [[nodiscard]] std::shared_ptr<const View> requireView() const;
  /// Pulls the table from `from` and installs a fresh view on success.
  bool pullView(rpc::RpcClient& cli, const rpc::NetAddr& from);
  /// Re-pulls from any current member (falling back to the seed).
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
  /// MultiGet rounds for `keys` (multiGet and multiApply's snapshot
  /// phase): groups by owner under the current view, re-sends prefix-reply
  /// tails, and regroups Redirected or timed-out chunks after a refresh.
  std::vector<detail::Fetched> fetch(rpc::RpcClient& cli,
                                     const std::vector<Key>& keys);

  Options opts_;
  TransportFactory makeTransport_;

  mutable std::mutex viewMutex_;
  std::shared_ptr<const View> view_;
  std::unordered_map<common::u64, common::u64> hintVersions_;
  bool refreshWanted_ = false;

  mutable std::mutex poolMutex_;
  mutable std::vector<std::unique_ptr<Conn>> conns_;
  mutable std::vector<size_t> freeConns_;

  mutable std::mutex statsMutex_;
  RoutedStats routedStats_;

  /// Each thread's last get(), where apply() starts (net_batch.h).
  mutable detail::ReadSlots readSlots_;
};

}  // namespace lht::dht
