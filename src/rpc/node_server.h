// The peer daemon's brain: a versioned KV store behind the wire protocol.
//
// A node is deliberately dumb — it knows nothing about the ring, other
// nodes, or LHT. It stores (key -> {version, value}) twice over: a
// primary map (keys this node owns) and a replica map (keys it holds for
// fanout reads), mirroring Chord's primary/replica split so getReplica
// and failover reads work identically over the network. All routing and
// replication intelligence stays in the client (RoutedNetDht) or in the
// OverlayNode wrapper (src/overlay) every lht_noded runs, which is what
// keeps the node protocol flat. A bare NodeServer (the inline clusters of
// the tests and of bench_net) answers the overlay membership ops with
// inert replies: GossipSync with an empty table, which leaves a pulling
// client's view as it is, and Join/Leave with refusals. Handoff it
// executes for real, since bulk key install is pure storage.
//
// Digest-guarded CAS: Dht::apply's read-modify-write becomes start from
// a value → run the mutator client-side → CAS(expected). `expected` is
// the valueDigest of the value the writer started from (0: it expects the
// key absent): a fresh read, a conflict reply, or a copy the writer held
// from before the call (a bucket the index already has). The CAS applies
// only while the stored value still has that digest; doCas hashes the
// stored value when the CAS arrives, as doGet does, and keeps no digest.
// A CAS that fails returns the current value, so the client re-runs the
// mutator without an extra round. The guard names bytes, not a version:
// a key erased and created again restarts at version 1, but its new bytes
// do not match a copy of the old ones, so a held copy cannot overwrite
// the recreated value. Bytes equal to the start are safe to write over
// because a mutator is a function of the bytes it runs on. The accepted
// risk is a 64-bit collision. Every stored value still carries a u64
// version, bumped on each mutation and returned in CasRep, which the
// client's replica push carries.
//
// At-most-once: retransmitted requests must not re-execute mutations
// (a retried CAS would spuriously conflict with its own first execution).
// A bounded FIFO cache keyed by (source host, port, requestId) replays
// the original reply bytes instead. It holds only replies to requests
// that change the store (Put, Remove, Cas, MultiCas, ReplicaPut,
// ReplicaRemove, Handoff). Reads (Get, MultiGet, ReplicaGet) and the
// inert admin/membership ops run again on a retransmit: the re-run
// happens inside the op's own invocation-response window and the client
// keeps the first matching reply, so a read stays linearizable, and the
// cache never holds copies of bulky read replies.
//
// Conditional reads: a Get or MultiGet entry may carry the digest of the
// copy its caller holds (GetReq::held, common::hash::valueDigest). When the
// stored value still has that digest, the entry answers `unchanged` with
// the version and no value. The digest is taken from the stored value
// while answering, never kept beside it, so no write or install path can
// leave a stale one behind; such a read is as linearizable as a plain one.
// A digest names bytes, not a version, so a key recreated at a reused
// version is still told apart. The accepted risk is a 64-bit collision.
//
// Datagram bound: every reply leaves room for the overlay's gossip hint
// trailer under kMaxDatagramBytes. A MultiGet answers the longest prefix
// of its entries that fits (the client re-sends the tail); any other
// reply that does not fit, and a MultiGet whose first entry alone does
// not, is answered Status::TooLarge.
//
// handle() is the entire protocol: the bytes overload decodes a datagram
// and owns the answer to garbage, and an OverlayNode, which has already
// decoded the request to route it, hands that over instead. handle() is
// mutex-guarded and safe to call from many threads (the SimHub invokes it
// inline from concurrent fleet clients).
#pragma once

#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rpc/transport.h"
#include "rpc/wire.h"

namespace lht::rpc {

class NodeServer {
 public:
  struct Options {
    std::string name = "node";
    size_t dedupCapacity = 4096;
  };

  struct Stats {
    common::RelaxedCounter requestsHandled;
    common::RelaxedCounter dedupHits;    ///< replayed cached replies
    common::RelaxedCounter badRequests;  ///< undecodable / rejected
    common::RelaxedCounter oversizedReplies;  ///< downgraded to TooLarge
    /// MultiGets answered with a strict prefix of their entries.
    common::RelaxedCounter prefixReplies;
    /// Get and MultiGet entries answered `unchanged` (no value shipped).
    common::RelaxedCounter unchangedReads;
    /// Cas and MultiCas entries whose guard did not match (not applied).
    common::RelaxedCounter casConflicts;
  };

  NodeServer() : NodeServer(Options{}) {}
  explicit NodeServer(Options options);

  /// Processes one request datagram. Returns the encoded reply, or an
  /// empty string when the datagram must be dropped silently (bad magic /
  /// truncated garbage — replying to noise would amplify junk traffic).
  [[nodiscard]] std::string handle(const NetAddr& from,
                                   std::string_view payload);
  /// Processes a request its caller already decoded from `from`'s
  /// datagram. Returns the encoded reply.
  [[nodiscard]] std::string handle(const NetAddr& from,
                                   const wire::Request& req);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Replies currently held by the at-most-once cache.
  [[nodiscard]] size_t dedupSize() const;
  [[nodiscard]] size_t primaryKeyCount() const;
  [[nodiscard]] size_t replicaKeyCount() const;
  [[nodiscard]] std::optional<std::string> primaryValue(
      const std::string& key) const;
  [[nodiscard]] std::optional<std::string> replicaValue(
      const std::string& key) const;
  /// Records with their versions — the overlay's warm-miss check and its
  /// read fallback for a key this node just demoted (a forwarded read
  /// racing the handoff).
  [[nodiscard]] std::optional<std::pair<u64, std::string>> primaryRecord(
      const std::string& key) const;
  [[nodiscard]] std::optional<std::pair<u64, std::string>> replicaRecord(
      const std::string& key) const;

  // --- Overlay storage primitives ------------------------------------------
  // OverlayNode (src/overlay) drives key movement during join/leave/repair
  // through these. Predicates are evaluated under the storage mutex and
  // must be pure key-classification functions (no blocking, no RPC).

  /// Snapshot of primary records whose key satisfies `pred`, in handoff
  /// wire form — the source side of join streaming and reconcile.
  [[nodiscard]] std::vector<wire::HandoffEntry> collectPrimary(
      const std::function<bool(const std::string&)>& pred) const;

  /// Installs a primary record iff `version` beats the stored one (handoff
  /// receive path; max-version keeps retransmitted batches idempotent and
  /// never rolls back a concurrent client write). Returns true if stored.
  bool installPrimary(const std::string& key, u64 version,
                      const std::string& value);

  /// Moves matching primary records into the replica table (this node just
  /// lost ownership of them). Max-version wins on collision. Returns the
  /// number of records moved.
  size_t demotePrimary(const std::function<bool(const std::string&)>& pred);

  /// Moves matching replica records into the primary table (this node just
  /// gained ownership; its replica copy seeds the primary). Max-version
  /// wins on collision. Returns the number of records moved.
  size_t promoteReplica(const std::function<bool(const std::string&)>& pred);

 private:
  struct Stored {
    u64 version = 0;
    std::string value;
  };
  using Table = std::unordered_map<std::string, Stored>;
  /// The install rule for a copy arriving from elsewhere (handoff,
  /// demotion, promotion): the higher version wins, and a tie keeps the
  /// stored copy. Returns whether `copy` was stored.
  static bool installNewer(Table& table, const std::string& key, Stored copy);
  struct DedupKey {
    u32 host = 0;
    u16 port = 0;
    u64 requestId = 0;
    bool operator==(const DedupKey& o) const {
      return host == o.host && port == o.port && requestId == o.requestId;
    }
  };
  struct DedupKeyHash {
    size_t operator()(const DedupKey& k) const {
      u64 h = k.requestId * 0x9E3779B97F4A7C15ull;
      h ^= (u64(k.host) << 16) | k.port;
      h *= 0xFF51AFD7ED558CCDull;
      return static_cast<size_t>(h ^ (h >> 33));
    }
  };

  /// Executes a request. `bodyBudget` bounds the encoded reply body (a
  /// MultiGet answers the longest prefix of entries that fits it).
  wire::ReplyBody dispatch(const wire::RequestBody& req, size_t bodyBudget);
  wire::GetRep doGet(const wire::GetReq& req) const;
  wire::CasRep doCas(const wire::CasReq& entry);

  Options opts_;
  mutable std::mutex mutex_;
  Table primary_;
  Table replica_;
  // Dedup: map for lookup + deque for FIFO eviction.
  std::unordered_map<DedupKey, std::string, DedupKeyHash> dedup_;
  std::deque<DedupKey> dedupOrder_;
  Stats stats_;
};

}  // namespace lht::rpc
