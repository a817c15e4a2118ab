#include "workload/generators.h"

#include <algorithm>
#include <utility>

#include "common/types.h"

namespace lht::workload {

Distribution parseDistribution(const std::string& name) {
  if (name == "uniform") return Distribution::Uniform;
  if (name == "gaussian") return Distribution::Gaussian;
  if (name == "zipf") return Distribution::Zipf;
  throw common::InvariantError("unknown distribution: " + name);
}

std::string distributionName(Distribution d) {
  switch (d) {
    case Distribution::Uniform: return "uniform";
    case Distribution::Gaussian: return "gaussian";
    case Distribution::Zipf: return "zipf";
  }
  return "?";
}

KeyGenerator::KeyGenerator(Distribution dist, common::u64 seed)
    : dist_(dist), rng_(seed, /*stream=*/0x776bu) {}

double KeyGenerator::next() {
  switch (dist_) {
    case Distribution::Uniform:
      return rng_.nextDouble();
    case Distribution::Gaussian: {
      for (;;) {
        const double v = gaussian_.sample(rng_);
        if (v >= 0.0 && v < 1.0) return v;
      }
    }
    case Distribution::Zipf: {
      // Rank -> grid cell, plus in-cell jitter so keys stay distinct-ish.
      const double cell = static_cast<double>(zipf_.sample(rng_) - 1) / 1024.0;
      return cell + rng_.nextDouble() / 1024.0;
    }
  }
  return 0.0;
}

std::vector<index::Record> makeDataset(Distribution dist, size_t n,
                                       common::u64 seed) {
  KeyGenerator gen(dist, seed);
  std::vector<index::Record> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(index::Record{gen.next(), common::numbered("r", i)});
  }
  return out;
}

RangeSpec makeRange(double span, common::Pcg32& rng) {
  common::checkInvariant(span > 0.0 && span <= 1.0, "makeRange: bad span");
  const double lo = rng.nextDouble() * (1.0 - span);
  return RangeSpec{lo, lo + span};
}

// ---------------------------------------------------------------------------
// SkewedKeyGenerator
// ---------------------------------------------------------------------------

SkewedKeyGenerator::SkewedKeyGenerator(SkewConfig cfg, common::u64 seed)
    : cfg_(cfg),
      rng_(seed, /*stream=*/0x5ce3u),
      zipf_(std::max<common::u32>(1, cfg.universe), cfg.s) {
  common::checkInvariant(cfg_.universe >= 1,
                         "SkewedKeyGenerator: empty universe");
  if (cfg_.flashJump == 0) cfg_.flashJump = cfg_.universe / 2 + 1;
  // The permutation draws from its own stream, so the placement of the
  // hot cells depends only on the seed, never on how many keys were drawn.
  common::Pcg32 permRng(seed, /*stream=*/0x9e37u);
  perm_.resize(cfg_.universe);
  for (common::u32 i = 0; i < cfg_.universe; ++i) perm_[i] = i;
  for (common::u32 i = cfg_.universe; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[permRng.below(i)]);
  }
}

common::u32 SkewedKeyGenerator::cellOfRank(common::u32 rank) const {
  common::checkInvariant(rank >= 1 && rank <= cfg_.universe,
                         "SkewedKeyGenerator: rank out of range");
  const common::u64 base = perm_[rank - 1];
  const common::u64 offset =
      static_cast<common::u64>(shifts_) * cfg_.flashJump;
  return static_cast<common::u32>((base + offset) % cfg_.universe);
}

double SkewedKeyGenerator::keyOfRank(common::u32 rank) const {
  return (static_cast<double>(cellOfRank(rank)) + 0.5) /
         static_cast<double>(cfg_.universe);
}

double SkewedKeyGenerator::next() {
  if (cfg_.flashEvery > 0 && draws_ > 0 && draws_ % cfg_.flashEvery == 0) {
    shifts_ += 1;
  }
  lastRank_ = zipf_.sample(rng_);
  draws_ += 1;
  return keyOfRank(lastRank_);
}

}  // namespace lht::workload
