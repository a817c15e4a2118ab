#include "workload/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/codec.h"

namespace lht::workload {

namespace {
constexpr common::u32 kTraceMagic = 0x4C485431;  // "LHT1"
}  // namespace

std::string encodeTrace(const std::vector<Operation>& ops) {
  common::Encoder enc;
  enc.putU32(kTraceMagic);
  enc.putU32(static_cast<common::u32>(ops.size()));
  for (const auto& op : ops) {
    enc.putU8(static_cast<common::u8>(op.kind));
    enc.putDouble(op.key);
    enc.putDouble(op.hi);
    enc.putString(op.payload);
  }
  return std::move(enc).take();
}

std::optional<std::vector<Operation>> decodeTrace(std::string_view bytes) {
  common::Decoder dec(bytes);
  auto magic = dec.getU32();
  auto count = dec.getU32();
  if (!magic || *magic != kTraceMagic || !count) return std::nullopt;
  if (*count > dec.remaining() / 21) return std::nullopt;  // 1+8+8+4 min/op
  std::vector<Operation> ops;
  ops.reserve(*count);
  for (common::u32 i = 0; i < *count; ++i) {
    auto kind = dec.getU8();
    auto key = dec.getDouble();
    auto hi = dec.getDouble();
    auto payload = dec.getString();
    if (!kind || *kind > 5 || !key || !hi || !payload) return std::nullopt;
    ops.push_back(Operation{static_cast<Operation::Kind>(*kind), *key, *hi,
                            std::move(*payload)});
  }
  if (!dec.atEnd()) return std::nullopt;
  return ops;
}

bool writeTrace(const std::string& path, const std::vector<Operation>& ops) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::string bytes = encodeTrace(ops);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<std::vector<Operation>> readTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return decodeTrace(buf.str());
}

std::vector<Operation> makeMixedTrace(Distribution dist, size_t ops,
                                      const TraceMix& mix, common::u64 seed) {
  common::Pcg32 rng(seed, /*stream=*/0x7261u);
  KeyGenerator gen(dist, seed ^ 0x5EEDull);
  std::vector<Operation> out;
  out.reserve(ops);
  std::vector<double> live;  // keys currently expected to be present

  const double total = mix.insert + mix.erase + mix.find + mix.range + mix.minmax;
  common::checkInvariant(total > 0.0, "makeMixedTrace: all weights zero");

  for (size_t i = 0; i < ops; ++i) {
    double pick = rng.nextDouble() * total;
    Operation op;
    if (live.empty() || pick < mix.insert) {
      op.kind = Operation::Kind::Insert;
      op.key = gen.next();
      op.payload = common::numbered("t", i);
      live.push_back(op.key);
    } else if ((pick -= mix.insert) < mix.erase) {
      op.kind = Operation::Kind::Erase;
      const size_t at = rng.below(static_cast<common::u32>(live.size()));
      op.key = live[at];
      live[at] = live.back();
      live.pop_back();
    } else if ((pick -= mix.erase) < mix.find) {
      op.kind = Operation::Kind::Find;
      // Half hits, half probable misses.
      op.key = rng.below(2) == 0
                   ? live[rng.below(static_cast<common::u32>(live.size()))]
                   : rng.nextDouble();
    } else if ((pick -= mix.find) < mix.range) {
      op.kind = Operation::Kind::Range;
      auto spec = makeRange(mix.rangeSpan, rng);
      op.key = spec.lo;
      op.hi = spec.hi;
    } else {
      op.kind = rng.below(2) == 0 ? Operation::Kind::Min : Operation::Kind::Max;
    }
    out.push_back(std::move(op));
  }
  return out;
}

std::vector<Operation> makeSkewedTrace(size_t ops, const SkewConfig& skew,
                                       const SkewMix& mix, common::u64 seed) {
  const double total = mix.find + mix.insert;
  common::checkInvariant(total > 0.0, "makeSkewedTrace: all weights zero");
  common::Pcg32 rng(seed, /*stream=*/0x5de7u);
  SkewedKeyGenerator gen(skew, seed ^ 0x5EEDull);
  const double cellWidth = 1.0 / static_cast<double>(gen.config().universe);
  std::vector<Operation> out;
  out.reserve(ops);
  for (size_t i = 0; i < ops; ++i) {
    Operation op;
    const double center = gen.next();
    if (rng.nextDouble() * total < mix.find) {
      op.kind = Operation::Kind::Find;
      op.key = center;
    } else {
      op.kind = Operation::Kind::Insert;
      // Uniform within the drawn cell, nudged off the exact center so
      // inserted keys never collide with the preloaded center records.
      double k = center + (rng.nextDouble() - 0.5) * cellWidth * 0.98;
      if (k == center) k += cellWidth * 0.25;
      op.key = std::min(std::max(k, 0.0), 1.0);
      op.payload = common::numbered("sk", i);
    }
    out.push_back(std::move(op));
  }
  return out;
}

ReplayStats replay(index::OrderedIndex& index, const std::vector<Operation>& ops) {
  ReplayStats s;
  for (const auto& op : ops) {
    switch (op.kind) {
      case Operation::Kind::Insert: {
        auto r = index.insert({op.key, op.payload});
        s.totals += r.stats;
        s.inserts += 1;
        break;
      }
      case Operation::Kind::Erase: {
        auto r = index.erase(op.key);
        s.totals += r.stats;
        s.erases += 1;
        break;
      }
      case Operation::Kind::Find: {
        auto r = index.find(op.key);
        s.totals += r.stats;
        s.finds += 1;
        if (r.record) s.recordsReturned += 1;
        break;
      }
      case Operation::Kind::Range: {
        auto r = index.rangeQuery(op.key, op.hi);
        s.totals += r.stats;
        s.ranges += 1;
        s.recordsReturned += r.records.size();
        break;
      }
      case Operation::Kind::Min: {
        auto r = index.minRecord();
        s.totals += r.stats;
        s.minmaxes += 1;
        if (r.record) s.recordsReturned += 1;
        break;
      }
      case Operation::Kind::Max: {
        auto r = index.maxRecord();
        s.totals += r.stats;
        s.minmaxes += 1;
        if (r.record) s.recordsReturned += 1;
        break;
      }
    }
  }
  return s;
}

}  // namespace lht::workload
