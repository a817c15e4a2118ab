#include "lht/bucket.h"

#include <algorithm>

#include "common/codec.h"
#include "common/types.h"
#include "lht/naming.h"

namespace lht::core {

namespace {

// Wire format version. v2 added epoch, the applied-token window, and the
// split/merge intent markers.
constexpr common::u8 kBucketFormatVersion = 2;

// Intent presence flags.
constexpr common::u8 kHasSplitIntent = 1u << 0;
constexpr common::u8 kHasMergeIntent = 1u << 1;

size_t recordsSize(const std::vector<index::Record>& records) {
  size_t n = 4;  // count
  for (const auto& r : records) n += 8 + 4 + r.payload.size();
  return n;
}

void putRecords(common::Encoder& enc, const std::vector<index::Record>& records) {
  enc.putU32(static_cast<common::u32>(records.size()));
  for (const auto& r : records) {
    enc.putDouble(r.key);
    enc.putString(r.payload);
  }
}

BucketDecodeError getRecords(common::Decoder& dec,
                             std::vector<index::Record>& out) {
  auto count = dec.getU32();
  if (!count) return BucketDecodeError::Truncated;
  // Each record takes at least 12 bytes (key + payload length prefix); an
  // implausible count means a corrupt value — reject before reserving.
  if (*count > dec.remaining() / 12) return BucketDecodeError::BadRecordCount;
  out.reserve(*count);
  for (common::u32 i = 0; i < *count; ++i) {
    auto key = dec.getDouble();
    auto payload = dec.getString();
    if (!key || !payload) return BucketDecodeError::Truncated;
    out.push_back(index::Record{*key, std::move(*payload)});
  }
  return BucketDecodeError::None;
}

/// getLabel() consumes a u32+u64 pair and then validates it; with the
/// bytes present, a failure means the pair itself was not a valid label.
BucketDecodeError classifyLabelFailure(size_t remainingBefore) {
  return remainingBefore >= 4 + 8 ? BucketDecodeError::BadLabel
                                  : BucketDecodeError::Truncated;
}

}  // namespace

const char* toString(BucketDecodeError e) {
  switch (e) {
    case BucketDecodeError::None: return "none";
    case BucketDecodeError::Truncated: return "truncated";
    case BucketDecodeError::BadVersion: return "bad_version";
    case BucketDecodeError::BadLabel: return "bad_label";
    case BucketDecodeError::TokenWindowOverflow: return "token_window_overflow";
    case BucketDecodeError::BadRecordCount: return "bad_record_count";
    case BucketDecodeError::BadIntentFlags: return "bad_intent_flags";
    case BucketDecodeError::TrailingBytes: return "trailing_bytes";
  }
  return "unknown";
}

bool LeafBucket::hasApplied(common::u64 token) const {
  if (token == 0) return false;
  return std::find(appliedOps.begin(), appliedOps.end(), token) !=
         appliedOps.end();
}

void LeafBucket::markApplied(common::u64 token) {
  if (token == 0) return;
  appliedOps.push_back(token);
  if (appliedOps.size() > kAppliedOpsWindow) {
    appliedOps.erase(appliedOps.begin(),
                     appliedOps.end() - static_cast<long>(kAppliedOpsWindow));
  }
}

size_t LeafBucket::serializedSize() const {
  constexpr size_t kLabelSize = 4 + 8;  // length (u32) + bits (u64)
  size_t n = 1;                         // format version
  n += kLabelSize;                      // label
  n += 8;                               // epoch
  n += 4 + 8 * appliedOps.size();       // token window
  n += recordsSize(records);
  n += 1;                               // intent flags
  if (splitIntent) n += kLabelSize + 8 + recordsSize(splitIntent->moving);
  if (mergeIntent) n += kLabelSize + 8 + recordsSize(mergeIntent->moving);
  return n;
}

std::string LeafBucket::serialize() const {
  common::Encoder enc(serializedSize());
  enc.putU8(kBucketFormatVersion);
  enc.putLabel(label);
  enc.putU64(epoch);
  enc.putU32(static_cast<common::u32>(appliedOps.size()));
  for (common::u64 t : appliedOps) enc.putU64(t);
  putRecords(enc, records);
  common::u8 flags = 0;
  if (splitIntent) flags |= kHasSplitIntent;
  if (mergeIntent) flags |= kHasMergeIntent;
  enc.putU8(flags);
  if (splitIntent) {
    enc.putLabel(splitIntent->movedLabel);
    enc.putU64(splitIntent->token);
    putRecords(enc, splitIntent->moving);
  }
  if (mergeIntent) {
    enc.putLabel(mergeIntent->donorLabel);
    enc.putU64(mergeIntent->token);
    putRecords(enc, mergeIntent->moving);
  }
  return std::move(enc).take();
}

std::optional<LeafBucket> LeafBucket::deserialize(std::string_view bytes) {
  return std::move(deserializeEx(bytes).bucket);
}

BucketDecodeResult LeafBucket::deserializeEx(std::string_view bytes) {
  const auto fail = [](BucketDecodeError e) {
    return BucketDecodeResult{std::nullopt, e};
  };
  common::Decoder dec(bytes);
  auto version = dec.getU8();
  if (!version) return fail(BucketDecodeError::Truncated);
  if (*version != kBucketFormatVersion) {
    return fail(BucketDecodeError::BadVersion);
  }
  size_t before = dec.remaining();
  auto label = dec.getLabel();
  if (!label) return fail(classifyLabelFailure(before));
  auto epoch = dec.getU64();
  auto tokenCount = dec.getU32();
  if (!epoch || !tokenCount) return fail(BucketDecodeError::Truncated);
  if (*tokenCount > kAppliedOpsWindow) {
    return fail(BucketDecodeError::TokenWindowOverflow);
  }
  LeafBucket b;
  b.label = *label;
  b.epoch = *epoch;
  b.appliedOps.reserve(*tokenCount);
  for (common::u32 i = 0; i < *tokenCount; ++i) {
    auto t = dec.getU64();
    if (!t) return fail(BucketDecodeError::Truncated);
    b.appliedOps.push_back(*t);
  }
  if (auto e = getRecords(dec, b.records); e != BucketDecodeError::None) {
    return fail(e);
  }
  auto flags = dec.getU8();
  if (!flags) return fail(BucketDecodeError::Truncated);
  if ((*flags & ~(kHasSplitIntent | kHasMergeIntent)) != 0) {
    return fail(BucketDecodeError::BadIntentFlags);
  }
  if (*flags & kHasSplitIntent) {
    SplitIntent si;
    before = dec.remaining();
    auto moved = dec.getLabel();
    if (!moved) return fail(classifyLabelFailure(before));
    auto token = dec.getU64();
    if (!token) return fail(BucketDecodeError::Truncated);
    si.movedLabel = *moved;
    si.token = *token;
    if (auto e = getRecords(dec, si.moving); e != BucketDecodeError::None) {
      return fail(e);
    }
    b.splitIntent = std::move(si);
  }
  if (*flags & kHasMergeIntent) {
    MergeIntent mi;
    before = dec.remaining();
    auto donor = dec.getLabel();
    if (!donor) return fail(classifyLabelFailure(before));
    auto token = dec.getU64();
    if (!token) return fail(BucketDecodeError::Truncated);
    mi.donorLabel = *donor;
    mi.token = *token;
    if (auto e = getRecords(dec, mi.moving); e != BucketDecodeError::None) {
      return fail(e);
    }
    b.mergeIntent = std::move(mi);
  }
  if (!dec.atEnd()) return fail(BucketDecodeError::TrailingBytes);
  return BucketDecodeResult{std::move(b), BucketDecodeError::None};
}

LeafBucket splitBucket(LeafBucket& bucket) {
  common::checkInvariant(bucket.label.length() >= 1, "splitBucket: bad label");
  common::checkInvariant(bucket.label.length() < Label::kMaxBits,
                         "splitBucket: label at maximum depth");
  common::checkInvariant(bucket.clean(),
                         "splitBucket: structural change already in flight");
  const Label oldLabel = bucket.label;
  const double mid = 0.5 * (oldLabel.interval().lo + oldLabel.interval().hi);

  // Each child is reserved to its exact count, so a record moves once
  // and not again each time a growing child reallocates.
  LeafBucket left{oldLabel.child(0), {}};
  LeafBucket right{oldLabel.child(1), {}};
  const auto below = static_cast<size_t>(
      std::count_if(bucket.records.begin(), bucket.records.end(),
                    [mid](const index::Record& r) { return r.key < mid; }));
  left.records.reserve(below);
  right.records.reserve(bucket.records.size() - below);
  for (auto& r : bucket.records) {
    (r.key < mid ? left : right).records.push_back(std::move(r));
  }

  // Theorem 2: exactly one child is still named name(oldLabel) (stays on the
  // current peer); the other is named oldLabel (moves). If the old label
  // ends in 1, the local child is label·1; otherwise label·0.
  const bool localIsRight = oldLabel.lastBit() == 1;
  LeafBucket& local = localIsRight ? right : left;
  LeafBucket& remote = localIsRight ? left : right;
  common::checkInvariant(name(local.label) == name(oldLabel),
                         "splitBucket: local child changed name");
  common::checkInvariant(name(remote.label) == oldLabel,
                         "splitBucket: remote child not named to old label");

  // The staying child inherits the stored bucket's identity (epoch and
  // token window continue); the shipped child starts a fresh history.
  local.epoch = bucket.epoch;
  local.appliedOps = std::move(bucket.appliedOps);

  LeafBucket out = std::move(remote);
  bucket = std::move(local);
  return out;
}

void splitBucketRecursively(LeafBucket& bucket, const SplitPolicy& policy,
                            std::vector<LeafBucket>& remotes) {
  if (!policy.shouldSplit(bucket)) return;
  LeafBucket remote = splitBucket(bucket);
  splitBucketRecursively(remote, policy, remotes);
  remotes.push_back(std::move(remote));
  splitBucketRecursively(bucket, policy, remotes);
}

}  // namespace lht::core
