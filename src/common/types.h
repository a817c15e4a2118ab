// Basic shared type aliases and small vocabulary types.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace lht::common {

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;

/// Thrown when an internal invariant is violated. Invariant failures are
/// programming errors, not recoverable conditions, so we fail loudly.
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Checks an invariant; throws InvariantError with `msg` when it fails.
inline void checkInvariant(bool ok, const char* msg) {
  if (!ok) throw InvariantError(msg);
}

/// `prefix` followed by the decimal digits of `n`: numbered("k", 12) is
/// "k12". It appends rather than writing "k" + std::to_string(12), whose
/// operator+(const char*, std::string&&) draws a false -Wrestrict from
/// GCC 12 once inlined.
template <typename Int>
std::string numbered(const char* prefix, Int n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace lht::common
