// Plumbing shared by the networked clients (NetDht, RoutedNetDht).
//
// Batch rounds: a round packs entry positions into per-owner chunks, one
// MultiGet or MultiCas datagram each. A MultiGet reply answers the longest
// prefix of its chunk that fits one datagram (DESIGN.md §14), so a round
// can leave an unanswered tail; the client sends the tail again in its
// next round. Every reply answers at least one entry, or fails the first
// one with TooLarge, so re-sending tails always terminates.
//
// Single-key writes: both clients run Dht::apply through one
// read-modify-write loop (read -> mutator -> CAS -> replicate) that starts
// from the calling thread's preceding get() of the same key when there is
// one (ReadSlots), and push replica copies through one helper.
#pragma once

#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/relaxed_counter.h"
#include "common/types.h"
#include "dht/dht.h"
#include "rpc/rpc_client.h"
#include "rpc/wire.h"

namespace lht::dht::detail {

/// One outgoing batch datagram: entry positions packed for one owner.
struct Chunk {
  common::u64 owner = 0;
  std::vector<size_t> entries;
};

/// Groups `items` by `ownerOf(i)`, opening a new chunk whenever one hits
/// `maxKeys` entries or `maxBytes` of `byteCost(i)` (the entry's request
/// footprint).
template <typename OwnerOf, typename ByteCost>
std::vector<Chunk> packChunks(const std::vector<size_t>& items, size_t maxKeys,
                              size_t maxBytes, OwnerOf ownerOf,
                              ByteCost byteCost) {
  std::vector<Chunk> chunks;
  std::vector<size_t> chunkBytes;
  std::unordered_map<common::u64, size_t> open;  // owner -> open chunk
  for (size_t i : items) {
    const common::u64 owner = ownerOf(i);
    const size_t cost = byteCost(i);
    auto it = open.find(owner);
    if (it == open.end() || chunks[it->second].entries.size() >= maxKeys ||
        chunkBytes[it->second] + cost > maxBytes) {
      it = open.insert_or_assign(owner, chunks.size()).first;
      chunks.push_back(Chunk{owner, {}});
      chunkBytes.push_back(0);
    }
    chunks[it->second].entries.push_back(i);
    chunkBytes[it->second] += cost;
  }
  return chunks;
}

/// One entry's MultiGet result: the stored record, or why it failed.
struct Fetched {
  bool ok = false;
  rpc::wire::GetRep rep;  ///< present/version/value (valid when ok)
  std::string error;      ///< failure description when !ok
};

/// Folds `r`, the reply to `chunk`'s MultiGet, into `out` when it is Ok
/// or TooLarge and returns true. Ok answers a prefix of the chunk; the
/// rest is appended to `tail`. TooLarge means the chunk's first entry
/// alone exceeds a datagram: that entry fails (error prefixed by `who`)
/// and the rest join `tail`. Any other reply returns false untouched, for
/// the caller's retry policy.
bool foldMultiGetReply(const Chunk& chunk, rpc::RpcClient::Result& r,
                       std::vector<Fetched>& out, std::vector<size_t>& tail,
                       const char* who);

/// multiGet's outcomes for fetched entries (versions dropped); adds the
/// returned values' sizes to `valueBytesMoved`.
std::vector<GetOutcome> toGetOutcomes(std::vector<Fetched> fetched,
                                      common::RelaxedCounter& valueBytesMoved);

/// Throws for a single-key reply that is not Ok: DhtTimeoutError when the
/// request timed out, DhtError otherwise. `who` names the client ("NetDht"),
/// `op` the Dht call.
void checkStatus(const rpc::RpcClient::Result& r, const char* who,
                 const char* op, const Key& key);

// --- Replica pushes ---------------------------------------------------------

/// Starts the replica writes of one mutated key on `cli` without settling:
/// a ReplicaPut of (`value`, `version`) to every holder in `replicas`, or a
/// ReplicaRemove when `value` is empty. Appends the tokens to `tokens`.
void startReplicaWrites(rpc::RpcClient& cli,
                        const std::vector<rpc::NetAddr>& replicas,
                        const Key& key, const std::optional<Value>& value,
                        common::u64 version,
                        std::vector<rpc::RpcClient::Token>& tokens);

/// Settles `tokens` and drops the replies. Replication is best-effort: the
/// primary already committed, and a silent holder only shows up in the RPC
/// client's timeout count (a later read of that replica misses, which
/// failover treats as any other replica miss).
void settleReplicaWrites(rpc::RpcClient& cli,
                         const std::vector<rpc::RpcClient::Token>& tokens);

/// startReplicaWrites + settleReplicaWrites for one key.
void replicate(rpc::RpcClient& cli, const std::vector<rpc::NetAddr>& replicas,
               const Key& key, const std::optional<Value>& value,
               common::u64 version);

// --- Per-thread read slots --------------------------------------------------

/// One primary read of `key`: the (present, version, value) the owner
/// returned.
struct SlotRead {
  Key key;
  rpc::wire::GetRep rep;
};

/// The last primary get() of each calling thread, for one client
/// (DESIGN.md §14). get() fills its thread's slot; every other Dht call
/// clears it when it starts, and apply() takes it, so a slot holds the
/// read immediately preceding the call. (A thread that exits leaves its
/// slot to a later thread given the same id; that read is merely stale.)
/// The slot is a starting guess, never a verdict: the CAS validates it,
/// and the read-modify-write loop re-reads before it trusts a no-change
/// outcome.
class ReadSlots {
 public:
  /// Empties the calling thread's slot.
  void clear();
  /// Replaces the calling thread's slot with a read of `key`.
  void fill(const Key& key, const rpc::wire::GetRep& rep);
  /// Empties the calling thread's slot and returns its read if it is one
  /// of `key`.
  [[nodiscard]] std::optional<SlotRead> take(const Key& key);

 private:
  /// An emptied slot keeps its strings, so the thread's next fill reuses
  /// their buffers instead of allocating.
  struct Slot {
    bool full = false;
    SlotRead read;
  };
  std::mutex mutex_;
  std::unordered_map<std::thread::id, Slot> slots_;
};

// --- The read-modify-write loop ---------------------------------------------

/// What one apply needs from its client: single-key rounds to the key's
/// owner and the key's replica holders.
struct KeyRoute {
  rpc::RpcClient& cli;
  /// Sends one request for the key to its owner and returns the final
  /// reply (a routed client follows redirects inside).
  std::function<rpc::RpcClient::Result(const rpc::wire::RequestBody&)> callOwner;
  /// The key's replica holders (primary excluded) as the client sees them
  /// when the write has committed.
  std::function<std::vector<rpc::NetAddr>()> replicas;
  const char* who;  ///< client name for error text
};

/// Dht::apply over versioned CAS. Starts from `start` (the calling
/// thread's preceding read of the key) or, without one, from a GET round;
/// runs `fn` on the state, CASes the result against the state's version,
/// and on a conflict re-runs `fn` on the (version, value) the conflict
/// reply carries. A no-change outcome (value unchanged, or absent stays
/// absent) ends the call only when it rests on a read made during the
/// call; one reached on `start` re-reads with a GET round and runs `fn`
/// again. An applied CAS is replicated. At most `casRetries` CAS rounds;
/// throws DhtError when all conflict. Returns whether the key existed
/// before the write (or, for a no-change outcome, at the read).
bool readModifyWrite(const KeyRoute& route, const Key& key, const Mutator& fn,
                     std::optional<SlotRead> start, size_t casRetries,
                     common::RelaxedCounter& valueBytesMoved);

}  // namespace lht::dht::detail
