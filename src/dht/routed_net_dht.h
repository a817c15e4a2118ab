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
// Either way the view then heals itself from its members, lazily:
//  * Gossip hints — every overlay reply trailer carries (senderId, table
//    version). A version bump from a node we've heard before means the
//    membership changed; the next request pulls a fresh table first.
//  * Re-routes — a node that does not own a request's key answers
//    Status::Redirect naming the owner it believes in (a stale view during
//    a join or leave); a silent node times out (a crash: its range moves
//    to the promoted survivor); a view can also name an owner it has no
//    address for. One policy covers all three: the client pulls the table
//    from the redirect's owner when the redirect names one, else
//    refreshes from any member, charges the entry one more hop and routes
//    it again, at most kMaxRoutes times per call.
// A member that answers a pull with an empty table (a bare NodeServer)
// leaves the view as it is.
//
// One routing loop, route(), sends every request. A single-key call is a
// round of one entry sent under its own opcode; a batch call groups its
// entries by owner under the current view and packs them into
// MultiGet/MultiCas datagrams (capped per datagram), so a round costs
// ~one datagram per involved node instead of one per key. A node answers
// the longest prefix of a MultiGet that fits one reply datagram (DESIGN.md
// §14); the tail goes out again next pass without spending a route. Every
// reply answers at least one entry, or fails the first one with TooLarge,
// so re-sending tails terminates.
//
// Replication is client-driven: the writer pushes copies to the key's
// successor holders, mirroring ChordDht's primary/replica split so
// getReplica and the failover decorators behave identically. The push is
// best-effort: the primary already committed, and a silent holder only
// shows up in the timeout count (a later read of that replica misses,
// which failover treats as any other replica miss). A call pushes all of
// its writes in one settle.
//
// apply() over a network: the mutator is an arbitrary client-side
// closure, so it cannot run at the server. apply(), applyFrom() and
// multiApply() share one per-entry CAS step, a read-modify-write over a
// digest-guarded CAS: the mutator runs locally on a value and the CAS
// applies iff the stored value still has that value's digest (DESIGN.md
// §14). applyFrom() starts from the caller's copy of the value (the index
// passes the bucket it holds), so a current copy costs one round, the
// CAS; apply() and multiApply() read first, a GET round. A conflict reply
// carries the current value, so each retry costs one round, not two. Each
// round of the step's requests goes through route() like any other, so a
// redirect or timeout inside it is re-routed like any other; a CAS whose
// reply was lost may run again, which the Dht contract allows.
//
// Conditional reads (DESIGN.md §14): getIfChanged and multiGetIfChanged
// put the caller's held digest in each GetReq, and an entry the owner
// answers `unchanged` comes back without its value. A redirect names the
// owner and leaves the request, digest included, for the client to send
// there.
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
#include <span>
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
  /// no-change outcome, at the read). multiApply runs the same step per
  /// entry, one batched round at a time.
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
  struct Conn;  // one pooled connection and its routing scratch
  class Lease;  // RAII borrow of one Conn

  /// Immutable routing view, atomically swapped on refresh. Readers copy
  /// the shared_ptr under a short lock and route lock-free.
  struct View {
    overlay::MemberRing ring;
    std::unordered_map<common::u64, rpc::NetAddr> addrs;  // ring members
    std::vector<rpc::NetAddr> pullTargets;  // members to refresh from
  };

  /// One entry of a routed round: a single-key request (PutReq, GetReq,
  /// RemoveReq or CasReq) and the answer route() leaves in it.
  struct Routed {
    Routed() = default;
    explicit Routed(rpc::wire::RequestBody req) : request(std::move(req)) {}

    rpc::wire::RequestBody request;
    /// The entry's reply (body GetRep, CasRep, ...) once answered;
    /// otherwise why it was not: timed out, or the last status.
    rpc::RpcClient::Result answer;
    bool pending = true;  ///< in this round and not yet answered
  };

  /// One apply as the CAS step drives it.
  struct Applying {
    const Key* key = nullptr;
    const Mutator* fn = nullptr;
    bool present = false;  ///< the state `fn` runs on
    Value value;
    /// The state is the caller's start, from before this call: a conflict
    /// proves it stale, and a no-change outcome on it stands only once a
    /// conditional read finds it still stored.
    bool early = false;
    bool sent = false;  ///< a request has been routed
    size_t casRounds = 0;
    bool done = false;
    ApplyOutcome outcome;
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
  /// a refresh before the next routed round.
  void noteHint(const std::optional<rpc::wire::GossipHint>& hint);

  /// The one routing loop: sends every pending entry of `round` to its
  /// key's owner and leaves each answer in its entry. `batched` packs the
  /// entries per owner into MultiGet/MultiCas datagrams; otherwise each
  /// goes under its own opcode. Re-routes Redirected, timed-out and
  /// unaddressable entries (see the header comment), each re-route one
  /// more hop; prefix tails go out again for free.
  void route(Conn& conn, std::span<Routed> round, bool batched);

  /// A read's answer as a GetOutcome (its error names `op`), counted in
  /// the conditional-read stats.
  GetOutcome readOutcome(Routed& r, const char* op);

  /// The CAS step: absorbs the answer to the apply's last request (none
  /// on its first call) and either ends the apply or leaves its next
  /// request — a read, a conditional re-read of the start, or a CAS — in
  /// `r`. Returns whether a request is pending.
  bool casStep(Applying& a, Routed& r);
  /// Runs every apply to its end, routing each round of their requests
  /// together, then replicates what they wrote. `round` holds one entry
  /// per apply.
  void applyAll(Conn& conn, std::span<Applying> applies,
                std::span<Routed> round, bool batched);
  /// apply() and applyFrom(): one apply from `start`, or from a read when
  /// it is null.
  bool applyOne(const Key& key, const Value* start, const Mutator& fn);

  /// Pushes every write the round's answers acknowledge — a put, an
  /// applied CAS, a remove of a present key — to the key's replica
  /// holders, in one settle.
  void replicate(rpc::RpcClient& cli, std::span<const Routed> round);
  /// The key's replica holders under `v` (members missing from the view
  /// are skipped).
  [[nodiscard]] std::vector<rpc::NetAddr> replicaAddrs(const View& v,
                                                       const Key& key) const;

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
