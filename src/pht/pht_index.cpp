#include "pht/pht_index.h"

#include <algorithm>

#include "common/types.h"

namespace lht::pht {

using common::checkInvariant;
using common::Interval;
using common::Label;
using common::u32;
using common::u64;

namespace {

PhtNode decodeNode(const dht::Value& v) {
  auto n = PhtNode::deserialize(v);
  checkInvariant(n.has_value(), "PhtIndex: corrupt node value in DHT");
  return std::move(*n);
}

}  // namespace

PhtIndex::PhtIndex(dht::Dht& dht, Options options) : dht_(dht), opts_(options) {
  checkInvariant(opts_.thetaSplit >= 2, "PhtIndex: thetaSplit must be >= 2");
  if (opts_.maxDepth > Label::kMaxBits) opts_.maxDepth = Label::kMaxBits;
  checkInvariant(opts_.maxDepth >= 2, "PhtIndex: maxDepth must be >= 2");
  PhtNode root;
  root.kind = PhtNode::Kind::Leaf;
  root.label = Label::root();
  dht_.storeDirect(root.label.str(), root.serialize());
}

std::optional<PhtNode> PhtIndex::getNode(const std::string& key, cost::OpStats& st) {
  st.dhtLookups += 1;
  auto v = dht_.get(key);
  if (!v) return std::nullopt;
  return decodeNode(*v);
}

bool PhtIndex::shouldSplit(const PhtNode& n) const {
  if (n.effectiveSize(opts_.countLabelSlot) < opts_.thetaSplit) return false;
  return n.label.length() < opts_.maxDepth;
}

// ---------------------------------------------------------------------------
// Lookup: binary search over all prefix lengths (log D)
// ---------------------------------------------------------------------------

PhtIndex::LookupOutcome PhtIndex::lookup(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "PhtIndex::lookup: key outside [0,1]");
  LookupOutcome out;
  const Label mu = Label::fromKey(key, opts_.maxDepth);
  u32 lo = 1, hi = opts_.maxDepth;
  while (lo <= hi) {
    const u32 mid = (lo + hi) / 2;
    const Label x = mu.prefix(mid);
    auto node = getNode(x.str(), out.stats);
    if (!node) {
      if (mid == 1) break;  // not even the root: impossible in a live index
      hi = mid - 1;
    } else if (node->isLeaf()) {
      out.leaf = std::move(node);
      break;
    } else {
      lo = mid + 1;
    }
  }
  out.stats.parallelSteps = out.stats.dhtLookups;
  if (out.leaf) out.stats.bucketsTouched = 1;
  return out;
}

// ---------------------------------------------------------------------------
// Insert + split (Psi_PHT = theta i + 4 j)
// ---------------------------------------------------------------------------

index::UpdateResult PhtIndex::insert(const index::Record& record) {
  checkInvariant(record.key >= 0.0 && record.key <= 1.0,
                 "PhtIndex::insert: key outside [0,1]");
  auto found = lookup(record.key);
  checkInvariant(found.leaf.has_value(), "PhtIndex::insert: no covering leaf");

  index::UpdateResult result;
  result.ok = true;
  result.stats = found.stats;
  meters_.insertion.dhtLookups += found.stats.dhtLookups;

  // Ship the record; on saturation the leaf turns into an internal marker
  // *in place* (free) and both children are captured for re-keyed puts.
  std::optional<PhtNode> splitOld;
  dht_.apply(found.leaf->label.str(), [&](std::optional<dht::Value>& v) {
    checkInvariant(v.has_value(), "PhtIndex::insert: leaf vanished");
    PhtNode n = decodeNode(*v);
    checkInvariant(n.isLeaf(), "PhtIndex::insert: leaf became internal");
    n.records.push_back(record);
    if (shouldSplit(n)) {
      splitOld = n;  // full pre-split state (records + links)
      PhtNode marker;
      marker.kind = PhtNode::Kind::Internal;
      marker.label = n.label;
      v = marker.serialize();
    } else {
      v = n.serialize();
    }
  });
  meters_.insertion.dhtLookups += 1;
  meters_.insertion.recordsMoved += 1;
  result.stats.dhtLookups += 1;
  result.stats.parallelSteps += 1;
  recordCount_ += 1;

  if (splitOld) {
    const Label oldLabel = splitOld->label;
    const Interval iv = oldLabel.interval();
    const double mid = 0.5 * (iv.lo + iv.hi);

    PhtNode left, right;
    left.label = oldLabel.child(0);
    right.label = oldLabel.child(1);
    for (auto& r : splitOld->records) {
      (r.key < mid ? left : right).records.push_back(std::move(r));
    }
    left.prevLeaf = splitOld->prevLeaf;
    left.nextLeaf = right.label;
    right.prevLeaf = left.label;
    right.nextLeaf = splitOld->nextLeaf;

    // Both children land on fresh DHT keys: the whole bucket moves (theta
    // records, 2 DHT-lookups), then the two B+ neighbor links are patched
    // (up to 2 more DHT-lookups). This is Eq. 2's 4 j.
    const size_t moved = left.records.size() + right.records.size();
    dht_.put(left.label.str(), left.serialize());
    dht_.put(right.label.str(), right.serialize());
    meters_.maintenance.dhtLookups += 2;
    meters_.maintenance.recordsMoved += moved;

    if (splitOld->prevLeaf) {
      dht_.apply(splitOld->prevLeaf->str(), [&](std::optional<dht::Value>& v) {
        if (!v) return;  // tolerate a racing merge in churn tests
        PhtNode n = decodeNode(*v);
        n.nextLeaf = left.label;
        v = n.serialize();
      });
      meters_.maintenance.dhtLookups += 1;
    }
    if (splitOld->nextLeaf) {
      dht_.apply(splitOld->nextLeaf->str(), [&](std::optional<dht::Value>& v) {
        if (!v) return;
        PhtNode n = decodeNode(*v);
        n.prevLeaf = right.label;
        v = n.serialize();
      });
      meters_.maintenance.dhtLookups += 1;
    }
    meters_.maintenance.splits += 1;
    result.splitOrMerged = true;
  }
  return result;
}

// ---------------------------------------------------------------------------
// Erase + merge
// ---------------------------------------------------------------------------

index::UpdateResult PhtIndex::erase(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "PhtIndex::erase: key outside [0,1]");
  auto found = lookup(key);
  checkInvariant(found.leaf.has_value(), "PhtIndex::erase: no covering leaf");

  index::UpdateResult result;
  result.stats = found.stats;
  meters_.insertion.dhtLookups += found.stats.dhtLookups;

  size_t removed = 0;
  size_t remainingEffective = 0;
  const Label leafLabel = found.leaf->label;
  dht_.apply(leafLabel.str(), [&](std::optional<dht::Value>& v) {
    checkInvariant(v.has_value(), "PhtIndex::erase: leaf vanished");
    PhtNode n = decodeNode(*v);
    auto it = std::remove_if(n.records.begin(), n.records.end(),
                             [&](const index::Record& r) { return r.key == key; });
    removed = static_cast<size_t>(n.records.end() - it);
    n.records.erase(it, n.records.end());
    remainingEffective = n.effectiveSize(opts_.countLabelSlot);
    v = n.serialize();
  });
  meters_.insertion.dhtLookups += 1;
  result.stats.dhtLookups += 1;
  result.stats.parallelSteps += 1;
  recordCount_ -= removed;
  result.ok = removed > 0;

  if (result.ok && opts_.enableMerge && leafLabel.length() >= 2 &&
      remainingEffective < opts_.thetaSplit) {
    result.splitOrMerged = tryMerge(leafLabel);
  }
  return result;
}

bool PhtIndex::tryMerge(const Label& leafLabel) {
  const Label sib = leafLabel.sibling();
  cost::OpStats st;
  auto sibNode = getNode(sib.str(), st);
  auto ownNode = getNode(leafLabel.str(), st);
  meters_.maintenance.dhtLookups += st.dhtLookups;
  if (!sibNode || !sibNode->isLeaf() || !ownNode || !ownNode->isLeaf()) return false;

  const size_t combined = ownNode->records.size() + sibNode->records.size() +
                          (opts_.countLabelSlot ? 1 : 0);
  if (combined >= opts_.thetaSplit) return false;

  const PhtNode& left = leafLabel.lastBit() == 0 ? *ownNode : *sibNode;
  const PhtNode& right = leafLabel.lastBit() == 0 ? *sibNode : *ownNode;

  // Rebuild the parent as a leaf holding everything, drop both children,
  // and patch the outer neighbor links. Both children's records move.
  PhtNode parent;
  parent.kind = PhtNode::Kind::Leaf;
  parent.label = leafLabel.parent();
  parent.records = left.records;
  parent.records.insert(parent.records.end(), right.records.begin(),
                        right.records.end());
  parent.prevLeaf = left.prevLeaf;
  parent.nextLeaf = right.nextLeaf;

  dht_.put(parent.label.str(), parent.serialize());
  dht_.remove(left.label.str());
  dht_.remove(right.label.str());
  meters_.maintenance.dhtLookups += 3;
  meters_.maintenance.recordsMoved += parent.records.size();

  if (parent.prevLeaf) {
    dht_.apply(parent.prevLeaf->str(), [&](std::optional<dht::Value>& v) {
      if (!v) return;
      PhtNode n = decodeNode(*v);
      n.nextLeaf = parent.label;
      v = n.serialize();
    });
    meters_.maintenance.dhtLookups += 1;
  }
  if (parent.nextLeaf) {
    dht_.apply(parent.nextLeaf->str(), [&](std::optional<dht::Value>& v) {
      if (!v) return;
      PhtNode n = decodeNode(*v);
      n.prevLeaf = parent.label;
      v = n.serialize();
    });
    meters_.maintenance.dhtLookups += 1;
  }
  meters_.maintenance.merges += 1;
  return true;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

index::FindResult PhtIndex::find(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "PhtIndex::find: key outside [0,1]");
  auto found = lookup(key);
  index::FindResult result;
  result.stats = found.stats;
  meters_.query.dhtLookups += found.stats.dhtLookups;
  if (found.leaf) {
    for (const auto& r : found.leaf->records) {
      if (r.key == key) {
        result.record = r;
        break;
      }
    }
  }
  return result;
}

index::RangeResult PhtIndex::rangeQuery(double lo, double hi) {
  return opts_.rangeMode == RangeMode::Sequential ? rangeSequential(lo, hi)
                                                  : rangeParallel(lo, hi);
}

index::RangeResult PhtIndex::rangeSequential(double lo, double hi) {
  index::RangeResult result;
  if (hi <= lo) return result;
  checkInvariant(lo >= 0.0 && hi <= 1.0, "PhtIndex::rangeSequential: bad bounds");

  // [16]: locate the leaf holding the lower bound, then walk the B+ links
  // rightward. Every hop is a dependent DHT-lookup, so latency equals
  // bandwidth — the order-of-magnitude latency gap of Fig. 10.
  auto found = lookup(lo);
  checkInvariant(found.leaf.has_value(), "rangeSequential: no covering leaf");
  result.stats = found.stats;
  std::optional<PhtNode> leaf = std::move(found.leaf);
  while (leaf) {
    result.stats.bucketsTouched += 1;
    for (const auto& r : leaf->records) {
      if (r.key >= lo && r.key < hi) result.records.push_back(r);
    }
    if (!leaf->nextLeaf || leaf->label.interval().hi >= hi) break;
    leaf = getNode(leaf->nextLeaf->str(), result.stats);
  }
  result.stats.parallelSteps = result.stats.dhtLookups;  // fully sequential
  meters_.query.dhtLookups += result.stats.dhtLookups;
  std::sort(result.records.begin(), result.records.end(), index::recordLess);
  return result;
}

Label PhtIndex::computeLca(const Interval& range) const {
  Label node = Label::root();
  while (node.length() < opts_.maxDepth) {
    const Interval iv = node.interval();
    const double mid = 0.5 * (iv.lo + iv.hi);
    if (range.hi <= mid) {
      node = node.child(0);
    } else if (range.lo >= mid) {
      node = node.child(1);
    } else {
      break;
    }
  }
  return node;
}

u64 PhtIndex::descend(const Label& label, const Interval& range,
                      std::vector<index::Record>& out, cost::OpStats& st) {
  auto node = getNode(label.str(), st);
  if (!node) return 1;  // subtree ends above this label
  if (node->isLeaf()) {
    st.bucketsTouched += 1;
    for (const auto& r : node->records) {
      if (range.contains(r.key)) out.push_back(r);
    }
    return 1;
  }
  // Internal marker: fan out to both children in parallel ([4]).
  u64 deepest = 0;
  for (int b = 0; b < 2; ++b) {
    const Label child = label.child(b);
    if (child.interval().overlaps(range)) {
      deepest = std::max(deepest, descend(child, range, out, st));
    }
  }
  return 1 + deepest;
}

index::RangeResult PhtIndex::rangeParallel(double lo, double hi) {
  index::RangeResult result;
  if (hi <= lo) return result;
  checkInvariant(lo >= 0.0 && hi <= 1.0, "PhtIndex::rangeParallel: bad bounds");
  const Interval range{lo, hi};
  const Label lca = computeLca(range);

  auto node = getNode(lca.str(), result.stats);
  u64 steps = 1;
  if (!node) {
    // The trie stops above the LCA: one leaf covers the whole range.
    auto found = lookup(lo);
    checkInvariant(found.leaf.has_value(), "rangeParallel: no covering leaf");
    result.stats.dhtLookups += found.stats.dhtLookups;
    steps += found.stats.parallelSteps;
    result.stats.bucketsTouched += 1;
    for (const auto& r : found.leaf->records) {
      if (range.contains(r.key)) result.records.push_back(r);
    }
  } else if (node->isLeaf()) {
    result.stats.bucketsTouched += 1;
    for (const auto& r : node->records) {
      if (range.contains(r.key)) result.records.push_back(r);
    }
  } else {
    u64 deepest = 0;
    for (int b = 0; b < 2; ++b) {
      const Label child = lca.child(b);
      if (child.interval().overlaps(range)) {
        deepest = std::max(deepest,
                           descend(child, range, result.records, result.stats));
      }
    }
    steps += deepest;
  }
  result.stats.parallelSteps = steps;
  meters_.query.dhtLookups += result.stats.dhtLookups;
  std::sort(result.records.begin(), result.records.end(), index::recordLess);
  return result;
}

index::FindResult PhtIndex::minRecord() {
  index::FindResult result;
  auto found = lookup(0.0);
  checkInvariant(found.leaf.has_value(), "minRecord: no leftmost leaf");
  result.stats = found.stats;
  std::optional<PhtNode> leaf = std::move(found.leaf);
  while (leaf && leaf->records.empty() && leaf->nextLeaf) {
    leaf = getNode(leaf->nextLeaf->str(), result.stats);
  }
  if (leaf) {
    const index::Record* best = nullptr;
    for (const auto& r : leaf->records) {
      if (best == nullptr || r.key < best->key) best = &r;
    }
    if (best != nullptr) result.record = *best;
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  meters_.query.dhtLookups += result.stats.dhtLookups;
  return result;
}

index::FindResult PhtIndex::maxRecord() {
  index::FindResult result;
  auto found = lookup(1.0);
  checkInvariant(found.leaf.has_value(), "maxRecord: no rightmost leaf");
  result.stats = found.stats;
  std::optional<PhtNode> leaf = std::move(found.leaf);
  while (leaf && leaf->records.empty() && leaf->prevLeaf) {
    leaf = getNode(leaf->prevLeaf->str(), result.stats);
  }
  if (leaf) {
    const index::Record* best = nullptr;
    for (const auto& r : leaf->records) {
      if (best == nullptr || r.key > best->key) best = &r;
    }
    if (best != nullptr) result.record = *best;
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  meters_.query.dhtLookups += result.stats.dhtLookups;
  return result;
}

void PhtIndex::forEachLeaf(const std::function<void(const PhtNode&)>& fn) {
  cost::OpStats scratch;
  auto found = lookup(0.0);
  checkInvariant(found.leaf.has_value(), "forEachLeaf: no leftmost leaf");
  std::optional<PhtNode> leaf = std::move(found.leaf);
  while (leaf) {
    fn(*leaf);
    if (!leaf->nextLeaf) break;
    leaf = getNode(leaf->nextLeaf->str(), scratch);
  }
}

}  // namespace lht::pht
