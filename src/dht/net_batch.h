// Batch-round plumbing shared by the networked clients (NetDht,
// RoutedNetDht).
//
// A round packs entry positions into per-owner chunks, one MultiGet or
// MultiCas datagram each. A MultiGet reply answers the longest prefix of
// its chunk that fits one datagram (DESIGN.md §14), so a round can leave
// an unanswered tail; the client sends the tail again in its next round.
// Every reply answers at least one entry, or fails the first one with
// TooLarge, so re-sending tails always terminates.
#pragma once

#include <string>
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

}  // namespace lht::dht::detail
