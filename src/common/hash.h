// Non-cryptographic hashing used for DHT key placement and hash maps.
//
// The DHT substrates hash string keys onto a 64-bit identifier ring
// (consistent hashing, paper Sec. 1). xxHash64 gives the uniformity the
// load-balance argument relies on; FNV-1a is kept as a simple alternative
// and for differential tests.
#pragma once

#include <string_view>

#include "common/types.h"

namespace lht::common::hash {

/// xxHash64 over an arbitrary byte string.
u64 xxhash64(std::string_view data, u64 seed = 0);

/// xxHash64 of a single 64-bit value (avalanche-quality integer hash).
u64 xxhash64(u64 value, u64 seed = 0);

/// Content digest of a stored value: what a conditional read carries to
/// name the copy its caller holds (DESIGN.md §14). xxHash64, seed 0.
inline u64 valueDigest(std::string_view value) { return xxhash64(value); }

/// FNV-1a 64-bit hash of a byte string.
u64 fnv1a64(std::string_view data);

/// SplitMix64 finalizer; handy for seeding generators from small integers.
u64 splitmix64(u64 x);

}  // namespace lht::common::hash
