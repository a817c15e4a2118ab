// NetDht: the Dht interface over real datagrams (DESIGN.md §14).
//
// Client-routed, single-hop: every NetDht holds the full consistent-hash
// ring (the launch-time node list), so a routed op is hash → owner →
// one RPC. Nodes are pure KV servers (rpc::NodeServer) with no inter-node
// protocol; replication is client-driven — the writer pushes copies to
// the key's successor holders, mirroring ChordDht's primary/replica
// split so getReplica and the failover decorators behave identically.
//
// apply() over a network: the mutator is an arbitrary client-side
// closure, so it cannot run at the server. NetDht uses versioned CAS
// through the read-modify-write loop it shares with RoutedNetDht
// (dht/net_batch.h): the mutator runs locally on (value, version) and the
// CAS applies iff the version is unchanged. The read is the calling
// thread's get() of the same key when that was its previous call (the
// index reads a leaf right before writing it), else a GET round. A
// conflict reply carries the current (version, value), so each retry
// costs one round, not two. Mutators are already required to be
// idempotent (lost-reply semantics), which is exactly the property that
// makes CAS retries safe.
//
// multiGet/multiApply group keys by owner node and pack them into
// MultiGet/MultiCas datagrams (capped per datagram), so a round costs
// ~one datagram per involved node instead of one per key — the batching
// win bench_net measures. A node answers the longest prefix of a MultiGet
// that fits one reply datagram; the tail goes out again next round.
//
// Transport is injected via factory: UdpTransport for real clusters,
// SimHub endpoints for deterministic tests. Each concurrent caller
// borrows a (transport, RpcClient) connection from an internal pool, so
// a ClientFleet drives one NetDht from many threads.
//
// Failure mapping: an RPC that exhausts its deadline surfaces as
// DhtTimeoutError (getReplica: DhtPeerDownError — a silent holder is a
// down holder), which is what the Retrying/Failover decorators and the
// leaf-cache lease machinery key on.
#pragma once

#include <functional>
#include <memory>
#include <mutex>

#include "dht/dht.h"
#include "dht/net_batch.h"
#include "rpc/ring.h"
#include "rpc/rpc_client.h"
#include "rpc/transport.h"

namespace lht::dht {

class NetDht final : public Dht {
 public:
  using TransportFactory =
      std::function<std::unique_ptr<rpc::Transport>()>;

  struct Options {
    /// Node addresses, index-aligned with the ring. Fixed for the run.
    std::vector<rpc::NetAddr> nodes;
    /// Total copies of each key (primary + replicas), clamped to the
    /// node count. 1 = no replication.
    size_t replication = 1;
    size_t virtualNodes = 32;
    rpc::RpcClient::Options rpc;
    /// Batch packing caps: keys per MultiGet/MultiCas datagram, and a
    /// soft byte budget per datagram (hard cap is kMaxDatagramBytes).
    size_t maxKeysPerDatagram = 32;
    size_t maxBytesPerDatagram = 48 * 1024;
    /// CAS attempts per apply before giving up (contention bound).
    size_t casRetries = 16;
  };

  struct NetStats {
    common::u64 datagramsSent = 0;
    common::u64 datagramsReceived = 0;
    common::u64 bytesSent = 0;
    common::u64 bytesReceived = 0;
    common::u64 requestsStarted = 0;
    common::u64 retransmits = 0;
    common::u64 timeouts = 0;
    common::u64 connections = 0;
  };

  NetDht(Options options, TransportFactory makeTransport);
  ~NetDht() override;

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

  // Cluster utilities --------------------------------------------------------
  /// Pings every node until all answer or `deadlineMs` of transport time
  /// passes. Returns whether the whole cluster answered. Run this before
  /// traffic: freshly exec'd daemons may not be bound yet.
  bool pingAll(common::u64 deadlineMs);

  /// Transport+RPC totals aggregated across the connection pool.
  [[nodiscard]] NetStats netStats() const;

 private:
  struct Conn {
    std::unique_ptr<rpc::Transport> transport;
    std::unique_ptr<rpc::RpcClient> rpc;
  };
  class Lease;  // RAII borrow of one Conn

  [[nodiscard]] const rpc::NetAddr& addrOf(size_t node) const {
    return opts_.nodes[node];
  }
  [[nodiscard]] const rpc::NetAddr& ownerAddr(const Key& key) const {
    return addrOf(ring_.ownerIndex(key));
  }
  /// The key's replica holders (ring successors of the owner).
  [[nodiscard]] std::vector<rpc::NetAddr> replicaAddrs(const Key& key) const;
  /// MultiGet rounds for `keys` (multiGet and multiApply's snapshot
  /// phase): groups by owner, re-sends prefix-reply tails until every
  /// entry is answered or failed.
  std::vector<detail::Fetched> fetch(rpc::RpcClient& cli,
                                     const std::vector<Key>& keys);

  Options opts_;
  rpc::HashRing ring_;
  TransportFactory makeTransport_;
  mutable std::mutex poolMutex_;
  mutable std::vector<std::unique_ptr<Conn>> conns_;
  mutable std::vector<size_t> freeConns_;
  /// Each thread's last get(), where apply() starts (net_batch.h).
  mutable detail::ReadSlots readSlots_;
};

}  // namespace lht::dht
