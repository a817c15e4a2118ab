// ReplyCache: the server half of at-most-once RPC (Birrell & Nelson).
//
// A retransmit repeats its request id, so a server that keeps the reply
// it sent under (source host, port, requestId) answers the retransmit
// with those bytes instead of running the request again. An empty reply
// marks a request still in flight (an overlay node's deferred answer,
// DESIGN.md §15): a retransmit then gets nothing, and the reply goes out
// once, when it is stored. The oldest request is evicted first once
// `capacity` are held. Not thread-safe: each owner guards its own.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <unordered_map>

#include "rpc/transport.h"

namespace lht::rpc {

class ReplyCache {
 public:
  explicit ReplyCache(size_t capacity) : capacity_(capacity) {}

  /// The reply held for `from`'s request `requestId` (empty while in
  /// flight), or nullptr when the request is new or was evicted.
  [[nodiscard]] const std::string* find(const NetAddr& from,
                                        u64 requestId) const {
    auto it = replies_.find(Key{from.host, from.port, requestId});
    return it == replies_.end() ? nullptr : &it->second;
  }

  /// Holds `reply` for the request, replacing what was held.
  void store(const NetAddr& from, u64 requestId, std::string reply) {
    const Key key{from.host, from.port, requestId};
    if (!replies_.insert_or_assign(key, std::move(reply)).second) return;
    order_.push_back(key);
    if (order_.size() > capacity_) {
      replies_.erase(order_.front());
      order_.pop_front();
    }
  }

  [[nodiscard]] size_t size() const { return replies_.size(); }

 private:
  struct Key {
    u32 host = 0;
    u16 port = 0;
    u64 requestId = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      u64 h = k.requestId * 0x9E3779B97F4A7C15ull;
      h ^= (u64(k.host) << 16) | k.port;
      h *= 0xFF51AFD7ED558CCDull;
      return static_cast<size_t>(h ^ (h >> 33));
    }
  };

  size_t capacity_;
  std::unordered_map<Key, std::string, KeyHash> replies_;
  std::deque<Key> order_;  ///< insertion order, oldest first
};

}  // namespace lht::rpc
