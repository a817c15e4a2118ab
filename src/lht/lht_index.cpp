#include "lht/lht_index.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/types.h"
#include "lht/naming.h"
#include "obs/obs.h"

namespace lht::core {

using common::checkInvariant;
using common::Interval;
using common::Label;
using common::u32;
using common::u64;

LhtIndex::LhtIndex(dht::Dht& dht, Options options)
    : dht_(dht),
      opts_(options),
      tokenRng_(options.clientSeed, 0x70CE17u),
      store_(options.cacheDecodedBuckets, kCacheCapacity),
      leafCache_(kCacheCapacity) {
  checkInvariant(opts_.thetaSplit >= 2, "LhtIndex: thetaSplit must be >= 2");
  if (opts_.maxDepth > Label::kMaxBits) opts_.maxDepth = Label::kMaxBits;
  checkInvariant(opts_.maxDepth >= 2, "LhtIndex: maxDepth must be >= 2");
  if (!opts_.attachExisting) {
    // The empty index: a single leaf "#0" covering [0,1), named "#".
    LeafBucket root;
    root.label = Label::root();
    dht_.storeDirect(dhtKeyFor(root.label), root.serialize());
  }
}

u64 LhtIndex::newToken() {
  for (;;) {
    const u64 t = tokenRng_.next64();
    if (t != 0) return t;
  }
}

void LhtIndex::chargeInsertion(u64 lookups, u64 recordsMoved) {
  meters_.insertion.dhtLookups += lookups;
  meters_.insertion.recordsMoved += recordsMoved;
  if (obs::metrics() != nullptr) {
    if (lookups != 0) obs::count("lht.cost.insertion.dht_lookups", lookups);
    if (recordsMoved != 0) {
      obs::count("lht.cost.insertion.records_moved", recordsMoved);
    }
  }
}

void LhtIndex::chargeMaintenance(u64 lookups, u64 recordsMoved) {
  meters_.maintenance.dhtLookups += lookups;
  meters_.maintenance.recordsMoved += recordsMoved;
  if (obs::metrics() != nullptr) {
    if (lookups != 0) obs::count("lht.cost.maintenance.dht_lookups", lookups);
    if (recordsMoved != 0) {
      obs::count("lht.cost.maintenance.records_moved", recordsMoved);
    }
  }
}

void LhtIndex::chargeQuery(u64 lookups) {
  meters_.query.dhtLookups += lookups;
  if (lookups != 0) obs::count("lht.cost.query.dht_lookups", lookups);
}

void LhtIndex::noteSplit() {
  meters_.maintenance.splits += 1;
  obs::count("lht.cost.maintenance.splits");
  obs::instantEvent("lht.split", "lht");
}

void LhtIndex::noteMerge() {
  meters_.maintenance.merges += 1;
  obs::count("lht.cost.maintenance.merges");
  obs::instantEvent("lht.merge", "lht");
}

void LhtIndex::recordAlpha(double alpha) {
  meters_.alpha.record(alpha);
  obs::MetricsRegistry* m = obs::metrics();
  if (m != nullptr) {
    m->histogram("lht.alpha", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
        .observe(alpha);
  }
}

void LhtIndex::noteOp(const char* op, const cost::OpStats& st) {
  obs::MetricsRegistry* m = obs::metrics();
  if (m == nullptr) return;
  const std::string base(op);
  m->counter(base + ".count").add(1);
  m->histogram(base + ".dht_lookups").observe(static_cast<double>(st.dhtLookups));
  m->histogram(base + ".rounds").observe(static_cast<double>(st.parallelSteps));
}

LhtIndex::BucketRef LhtIndex::getBucketRef(const std::string& key,
                                           cost::OpStats& st) {
  st.dhtLookups += 1;
  const BucketStore::Held held = store_.held(key);
  auto ref = bucketOf(key, dht_.getIfChanged(key, held.digest), held);
  if (ref) noteLeaf(*ref);
  return ref;
}

std::vector<dht::GetOutcome> LhtIndex::readRound(
    const std::vector<std::string>& keys, std::vector<BucketStore::Held>& held) {
  held.clear();
  std::vector<u64> digests;
  digests.reserve(keys.size());
  for (const std::string& key : keys) {
    held.push_back(store_.held(key));
    digests.push_back(held.back().digest);
  }
  return dht_.multiGetIfChanged(keys, digests);
}

LhtIndex::BucketRef LhtIndex::bucketOf(const std::string& key,
                                       const dht::GetOutcome& got,
                                       const BucketStore::Held& held) {
  if (got.unchanged) return store_.revalidated(held);
  if (!got.value) return nullptr;
  return store_.decode(key, *got.value);
}

void LhtIndex::noteLeaf(const LeafBucket& bucket) {
  if (!opts_.useLeafCache || !bucket.clean()) return;
  u64 leaseExpiry = 0;
  if (opts_.leasedReads && dht_.replicaFanout() > 0) {
    // A primary observation of a clean leaf is a lease grant: for the TTL
    // the replica holders may serve this interval, validated by epoch
    // equality against the snapshot observed here.
    leaseExpiry = leaseNowMs() + std::max<u64>(1, opts_.leaseTtlMs);
    obs::count("dht.lease.grants");
  }
  leafCache_.note(bucket.label, bucket.epoch, leaseExpiry);
}

void LhtIndex::dropCached(const Interval& iv) {
  if (opts_.useLeafCache) leafCache_.invalidate(iv);
}

u64 LhtIndex::leaseNowMs() const {
  return opts_.leaseClock != nullptr ? opts_.leaseClock->nowMs() : 0;
}

bool LhtIndex::leaseUsable(const LeafCache::Entry& e) {
  if (!opts_.leasedReads || !e.leased() || dht_.replicaFanout() == 0) {
    return false;
  }
  if (leaseNowMs() >= e.leaseExpiresAtMs) {
    leafCache_.noteLeaseExpired();
    leafCache_.dropLease(e.label.interval());
    obs::count("dht.lease.expired");
    return false;
  }
  return true;
}

LhtIndex::BucketRef LhtIndex::tryLeaseRead(const std::string& nm,
                                           const LeafCache::Entry& lease,
                                           double key, cost::OpStats& st) {
  const size_t fanout = dht_.replicaFanout();
  // Rotate over fanout replica holders plus the primary, so the leaf's
  // read load spreads over its full replication set and the lease is
  // renewed (by the primary read) every fanout+1 turns.
  const size_t slot = leafCache_.bumpReplicaCursor(lease.label) % (fanout + 1);
  if (slot == fanout) return nullptr;  // the primary's turn
  std::optional<dht::Value> v;
  try {
    st.dhtLookups += 1;
    v = dht_.getReplica(nm, slot);
  } catch (const dht::DhtTimeoutError&) {
    // A real-network holder that never answers looks like this — not like
    // DhtPeerDownError, which only substrates with perfect failure
    // knowledge can throw. Same remedy (revoke the lease, keep the
    // location, let the primary read decide), separate ledger entry; and
    // because note() now preserves the rotation cursor across the
    // re-grant, the next lease read moves PAST the silent holder instead
    // of being pinned back onto it.
    leafCache_.noteLeaseTimeout();
    leafCache_.dropLease(lease.label.interval());
    obs::count("dht.lease.timeout_drops");
    obs::count("dht.lease.drops");
    return nullptr;
  } catch (const dht::DhtError&) {
    // The holder is unreachable. That says nothing about where the leaf
    // lives, so only the lease is revoked (PR6 drops *locations* for dead
    // owners; dead holders stop replica reads instead) and the primary
    // read below decides.
    leafCache_.dropLease(lease.label.interval());
    obs::count("dht.lease.drops");
    return nullptr;
  }
  if (v.has_value()) {
    auto ref = store_.decode(nm, *v);
    if (ref->clean() && ref->epoch == lease.epoch && ref->covers(key)) {
      leafCache_.noteLeaseServed();
      obs::count("dht.lease.reads");
      return ref;
    }
  }
  // The snapshot moved on — an insert/split/merge bumped the epoch (or
  // the copy predates the grant). The lease is dead; re-anchor at the
  // primary, which re-grants at the current epoch.
  leafCache_.noteLeaseStale();
  leafCache_.dropLease(lease.label.interval());
  obs::count("dht.lease.stale");
  return nullptr;
}

void LhtIndex::noteLeafRead(const std::string& dhtKey) {
  if (!opts_.adaptiveSplits) return;
  leafReads_[dhtKey] += 1;
  if (++leafReadsSinceDecay_ < 4096) return;
  leafReadsSinceDecay_ = 0;
  for (auto it = leafReads_.begin(); it != leafReads_.end();) {
    it->second /= 2;
    it = it->second == 0 ? leafReads_.erase(it) : std::next(it);
  }
}

bool LhtIndex::leafIsHot(const std::string& dhtKey) const {
  if (!opts_.adaptiveSplits) return false;
  auto it = leafReads_.find(dhtKey);
  return it != leafReads_.end() && it->second >= opts_.hotLeafReads;
}

namespace {

/// The one generic mutator, the index's single decode/serialize seam: runs
/// `op` on a copy of the bucket stored under `key`, re-serializes it on
/// change and keeps the store coherent; `kept` follows keepRun's rule.
dht::Mutator bucketMutator(BucketStore& store, const std::string& key,
                           const BucketOp& op, BucketOpResult& kept) {
  return [&store, &key, &op, &kept](std::optional<dht::Value>& v) {
    std::optional<LeafBucket> b;
    if (v.has_value()) b = *store.decode(key, *v);  // copy-on-write
    BucketOpResult run = executeBucketOp(b, op);
    const bool changed = run.changed;
    keepRun(kept, std::move(run));
    if (!changed) return;  // the stored bytes stay as they are
    if (b.has_value()) {
      v = b->serialize();
      store.note(key, *v, std::move(*b));
    } else {
      v.reset();
      store.forget(key);
    }
  };
}

/// Whether `l` is the last leaf toward `side`, and its neighbor branch
/// (Def. 3's f_rn or f_ln) there.
bool atEnd(const Label& l, Side side) {
  return side == Side::Right ? l.isRightmostPath() : l.isLeftmostPath();
}
Label neighbor(const Label& l, Side side) {
  return side == Side::Right ? rightNeighbor(l) : leftNeighbor(l);
}

}  // namespace

BucketOpResult LhtIndex::applyOp(const std::string& key, const BucketOp& op,
                                 const LeafBucket* start) {
  BucketOpResult kept;
  const dht::Mutator fn = bucketMutator(store_, key, op, kept);
  if (start != nullptr) {
    // The held bucket's bytes: serialize inverts decode, so they are the
    // bytes it was decoded from, and the CAS guard is their digest.
    dht_.applyFrom(key, start->serialize(), fn);
  } else {
    dht_.apply(key, fn);
  }
  return kept;
}

std::vector<dht::ApplyOutcome> LhtIndex::applyOps(const std::vector<KeyedOp>& ops,
                                                  std::vector<BucketOpResult>& kept) {
  kept.assign(ops.size(), BucketOpResult{});
  std::vector<dht::ApplyRequest> reqs;
  for (size_t i = 0; i < ops.size(); ++i) {
    const KeyedOp& o = ops[i];
    reqs.push_back(dht::ApplyRequest{o.key, bucketMutator(store_, o.key, o.op, kept[i])});
  }
  return dht_.multiApply(reqs);
}

BucketOpResult LhtIndex::applyStep(const std::string& key, const BucketOp& op,
                                   cost::OpStats& st) {
  BucketOpResult r = applyOp(key, op, store_.held(key).bucket.get());
  st.dhtLookups += 1;
  chargeMaintenance(1, 0);
  return r;
}

LhtIndex::LookupOutcome LhtIndex::toOutcome(LookupRef&& ref) {
  LookupOutcome out;
  out.dhtKey = std::move(ref.dhtKey);
  out.stats = ref.stats;
  if (ref.bucket) out.bucket = *ref.bucket;  // one copy, at the API boundary
  return out;
}

// ---------------------------------------------------------------------------
// Lookup (Algorithm 2) + lookup-triggered repair
// ---------------------------------------------------------------------------

LhtIndex::LookupRef LhtIndex::lookupInternal(double key, bool heldSuffices) {
  LookupRef out;
  key = common::clampToUnit(key);  // 1.0 belongs to the rightmost cell
  const Label mu = Label::fromKey(key, opts_.maxDepth);

  // The search restarts whenever a repair changes the tree under it. Any
  // single restart completes at least one pending intent, and only a
  // bounded number of intents can exist on a root-to-leaf path, so the
  // restart budget is generous rather than load-bearing.
  constexpr u32 kHoleRetries = 3;
  u32 holeRetries = 0;
  for (u32 attempt = 0; attempt <= 2 * opts_.maxDepth + 2; ++attempt) {
    bool restart = false;

    // Location-cache fast path: a remembered leaf costs one DHT-lookup.
    // The fetched bucket validates the entry (still covers the key, still
    // clean); anything stale is invalidated and the binary search below
    // takes over — the probe stays counted, correctness never depends on
    // cache freshness.
    if (opts_.useLeafCache) {
      if (auto cached = leafCache_.find(key)) {
        const std::string nm = dhtKeyFor(cached->label);
        if (heldSuffices) {
          // A warm write: the held copy of the cached leaf is the start of
          // the write's apply, whose CAS validates it (DESIGN.md §8).
          BucketRef held = store_.held(nm).bucket;
          if (held && held->clean() && held->label == cached->label &&
              held->covers(key)) {
            out.bucket = std::move(held);
            out.dhtKey = nm;
            break;
          }
        }
        BucketRef bucket;
        bool leaseServed = false;
        if (leaseUsable(*cached)) {
          // Lease protocol: serve the read from a replica holder while
          // the leased epoch still matches the stored snapshot. A failed
          // turn (primary's rotation slot, stale epoch, dead holder)
          // falls through to the primary read below.
          bucket = tryLeaseRead(nm, *cached, key, out.stats);
          leaseServed = bucket != nullptr;
        }
        if (!bucket) {
          try {
            bucket = getBucketRef(nm, out.stats);
          } catch (const dht::DhtError&) {
            // The peer holding the cached location is unreachable
            // (crashed and not yet repaired away). The leaf will move
            // during repair, so stop advertising the stale location
            // before the failure surfaces — the next lookup after
            // recovery re-resolves from the binary search instead of
            // probing the dead owner again.
            dropCached(cached->label.interval());
            throw;
          }
        }
        if (bucket && !bucket->clean()) {
          dropCached(bucket->label.interval());
          repairBucket(nm, *bucket, out.stats);
          continue;  // restart against the repaired tree
        }
        if (bucket && bucket->covers(key)) {
          if (!leaseServed) leafCache_.notePrimaryServed();
          out.bucket = std::move(bucket);
          out.dhtKey = nm;
          break;
        }
        // The leaf moved (split/merge elsewhere): drop the entry and fall
        // back to the full search.
        dropCached(cached->label.interval());
      }
    }

    u32 shorter = 1;             // candidate leaf-label bit lengths
    u32 longer = opts_.maxDepth; // (paper lengths 2..D+1 count the '#')
    while (shorter <= longer) {
      const u32 mid = (shorter + longer) / 2;
      const Label x = mu.prefix(mid);
      const Label nm = name(x);
      auto bucket = getBucketRef(nm.str(), out.stats);
      if (!bucket) {
        // No leaf is named nm: every prefix longer than nm shares this name
        // (they all extend nm by a run of x's last bit), so only lengths up
        // to |nm| remain candidates.
        longer = nm.length();
        if (longer < shorter) break;
        continue;
      }
      if (!bucket->clean()) {
        // A structural change died between steps here. Finish it and
        // re-run the search against the repaired tree.
        repairBucket(nm.str(), *bucket, out.stats);
        restart = true;
        break;
      }
      if (bucket->covers(key)) {
        out.bucket = std::move(bucket);
        out.dhtKey = nm.str();
        break;
      }
      // The name is taken by a different leaf, so x (and every shorter
      // prefix, all being that leaf's ancestors) is internal; skip forward
      // past all prefixes sharing x's name.
      auto nn = nextName(x, mu);
      if (!nn) break;  // D was too small for the actual tree
      shorter = nn->length();
    }
    if (restart) continue;
    if (!out.bucket) {
      // The binary search fell into a hole — a leaf that should cover the
      // key is missing. If a half-finished split/merge is responsible, the
      // bucket holding its intent sits under one of the key's candidate
      // prefix names; probe them all and retry. Even when nothing needed
      // repair the hole can be a concurrency artifact: the probes are not
      // a snapshot, so a split completed by another client *between* two
      // probes can make them collectively miss a leaf that every
      // instantaneous state contained. A bounded number of re-searches
      // separates that transient from a genuinely uncovered key.
      if (repairProbe(key, out.stats) || holeRetries++ < kHoleRetries) {
        continue;
      }
    }
    break;
  }
  out.stats.parallelSteps = out.stats.dhtLookups;  // strictly sequential
  if (out.bucket) {
    out.stats.bucketsTouched = 1;
    noteLeafRead(out.dhtKey);
  }
  return out;
}

std::vector<std::string> LhtIndex::candidateNames(double key) const {
  const Label mu = Label::fromKey(common::clampToUnit(key), opts_.maxDepth);
  std::vector<std::string> names;
  for (u32 len = 1; len <= mu.length(); ++len) {
    std::string nm = name(mu.prefix(len)).str();
    if (!names.empty() && nm == names.back()) continue;  // same as the previous prefix
    names.push_back(std::move(nm));
  }
  return names;
}

LhtIndex::ProbeRound LhtIndex::probeCandidates(double key, bool retryFailed,
                                               cost::OpStats& st) {
  // The probe count of a linear scan in one round-trip. The leaf covering
  // the key is stored under one of these names, and so is any
  // intent-holder responsible for a hole there.
  const auto names = candidateNames(key);
  std::vector<BucketStore::Held> held;
  auto replies = readRound(names, held);
  st.dhtLookups += names.size();
  ProbeRound round;
  for (size_t i = 0; i < names.size(); ++i) {
    BucketRef bucket;
    if (!replies[i].ok) {
      round.anyFailed = true;
      // A single probe of this name: injected faults degrade, not corrupt.
      if (retryFailed) bucket = getBucketRef(names[i], st);
    } else if ((bucket = bucketOf(names[i], replies[i], held[i]))) {
      noteLeaf(*bucket);
    }
    if (!bucket) continue;
    if (!bucket->clean()) {
      round.repaired |= repairBucket(names[i], *bucket, st);
    } else if (bucket->covers(common::clampToUnit(key))) {
      round.covering = std::move(bucket);
    }
  }
  return round;
}

bool LhtIndex::repairProbe(double key, cost::OpStats& st) {
  repairStats_.holeProbes += 1;
  return probeCandidates(key, true, st).repaired;
}

bool LhtIndex::repairBucket(const std::string& key, const LeafBucket& bucket,
                            cost::OpStats& st) {
  bool repaired = false;
  if (bucket.splitIntent) {
    completeSplit(key, *bucket.splitIntent, st);
    repairStats_.splitRepairs += 1;
    repaired = true;
  }
  if (bucket.mergeIntent) {
    if (bucket.frozenDonor()) {
      // A merge stranded between freezing the donor and staging the
      // absorber, or still on its way there: finish it, or thaw the donor.
      const MergeIntent intent{bucket.label, bucket.records, bucket.mergeIntent->token};
      mergeFrozenDonor(key, dhtKeyFor(bucket.label.parent()), bucket.label.sibling(),
                       intent, st);
    } else {
      completeMerge(key, *bucket.mergeIntent, st);
    }
    repairStats_.mergeRepairs += 1;
    repaired = true;
  }
  return repaired;
}

void LhtIndex::completeSplit(const std::string& stayingKey,
                             const SplitIntent& intent, cost::OpStats& st) {
  // Step 2 of the split state machine: materialize the moved child under
  // its own key. Create-if-absent: if a bucket already lives there, a
  // previous attempt (possibly ours, its reply lost) already landed it —
  // and it may have absorbed newer inserts — so it is never overwritten.
  const std::string movedKey = dhtKeyFor(intent.movedLabel);
  applyStep(movedKey, CreateMovedChild{&intent}, st);

  // Step 3: clear the intent from the staying child. Guarded by the
  // intent token so a stale retry cannot clear a newer intent.
  const Label parent = intent.movedLabel.parent();
  if (applyStep(stayingKey, ClearSplitIntent{parent, intent.token}, st)
          .observed.mergedBack) {
    // A completer that read the intent before another one finished the
    // split can reach step 2 after the two children have merged back, and
    // recreate the moved child beside its merged parent. The staying key
    // holding the parent, an ancestor or nothing gives that away: delete
    // the copy step 2 may have made, unless a write has reached it since.
    applyStep(movedKey, DropRecreatedChild{intent.token}, st);
  }
  dropCached(parent.interval());
  // The children whose writes left clean copies in the bucket store are
  // known leaves: the next write into either starts from its copy.
  for (const Label& child : {parent.child(0), parent.child(1)}) {
    const BucketRef held = store_.held(dhtKeyFor(child)).bucket;
    if (held && held->clean() && held->label == child) noteLeaf(*held);
  }
}

bool LhtIndex::mergeFrozenDonor(const std::string& donorKey,
                                const std::string& absorberKey,
                                const Label& absorberLabel, const MergeIntent& intent,
                                cost::OpStats& st) {
  // Step 2 of the merge state machine: copy the frozen donor's records into
  // the absorber, provided it is still the clean sibling leaf. If it is
  // not, thaw the donor: the merge is off.
  if (!applyStep(absorberKey, StageMerge{absorberLabel, &intent}, st).observed.staged) {
    applyStep(donorKey, ClearMergeIntent{intent.token}, st);
    return false;
  }
  return completeMerge(absorberKey, intent, st);
}

bool LhtIndex::completeMerge(const std::string& absorberKey,
                             const MergeIntent& intent, cost::OpStats& st) {
  // Step 3: delete the donor, only while it is still frozen by this merge.
  // A donor that is gone was deleted by an earlier attempt (ours, its reply
  // lost, or a concurrent completer's). One that is present but no longer
  // frozen by this token was thawed by a client that found the absorber
  // unmergeable: the merge is off.
  const bool thawed =
      applyStep(dhtKeyFor(intent.donorLabel), DeleteFrozenDonor{intent.token}, st)
          .observed.thawed;

  // Step 4: the absorber becomes the parent leaf and takes the staged copy
  // of the donor's records, or, when the merge is off, drops the intent.
  applyStep(absorberKey, ClearMergeIntent{intent.token, thawed ? nullptr : &intent}, st);
  if (!thawed) chargeMaintenance(0, intent.moving.size());
  dropCached(intent.donorLabel.parent().interval());
  return !thawed;
}

size_t LhtIndex::repairSweep() {
  const RepairStats before = repairStats_;
  cost::OpStats scratch;
  double cursor = 0.0;
  size_t guard = 0;
  while (cursor < 1.0) {
    checkInvariant(++guard < 1u << 22, "repairSweep: runaway walk");
    // One round per step: every candidate prefix name of the cursor.
    ProbeRound round = probeCandidates(cursor, false, scratch);
    BucketRef covering = std::move(round.covering);
    if (round.repaired) continue;  // re-probe the same cursor post-repair
    if (round.anyFailed || !covering) {
      // Faulted round or no covering leaf surfaced: the lookup walker
      // (with its retry/repair loop) resolves this cursor.
      auto out = lookupInternal(cursor);
      checkInvariant(out.bucket != nullptr, "repairSweep: unrecoverable hole");
      scratch += out.stats;
      covering = std::move(out.bucket);
    }
    cursor = covering->label.interval().hi;
  }
  return static_cast<size_t>((repairStats_.splitRepairs - before.splitRepairs) +
                             (repairStats_.mergeRepairs - before.mergeRepairs));
}

size_t LhtIndex::repairSweepStep(double& cursor, size_t maxBuckets) {
  const RepairStats before = repairStats_;
  size_t visited = 0;
  while (cursor < 1.0 && visited < maxBuckets) {
    auto out = lookupInternal(cursor);
    checkInvariant(out.bucket != nullptr, "repairSweepStep: unrecoverable hole");
    cursor = out.bucket->label.interval().hi;
    ++visited;
  }
  return static_cast<size_t>((repairStats_.splitRepairs - before.splitRepairs) +
                             (repairStats_.mergeRepairs - before.mergeRepairs));
}

LhtIndex::LookupOutcome LhtIndex::lookup(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "LhtIndex::lookup: key outside [0,1]");
  return toOutcome(lookupInternal(key));
}

LhtIndex::LookupRef LhtIndex::lookupLinearRef(double key) {
  LookupRef out;
  key = common::clampToUnit(key);
  for (const std::string& nm : candidateNames(key)) {
    auto bucket = getBucketRef(nm, out.stats);
    if (bucket && bucket->covers(key)) {
      out.bucket = std::move(bucket);
      out.dhtKey = nm;
      break;
    }
  }
  out.stats.parallelSteps = out.stats.dhtLookups;
  if (out.bucket) out.stats.bucketsTouched = 1;
  return out;
}

LhtIndex::LookupOutcome LhtIndex::lookupLinear(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "LhtIndex::lookupLinear: bad key");
  return toOutcome(lookupLinearRef(key));
}

LhtIndex::LookupRef LhtIndex::resolveLeaf(double key, bool heldSuffices) {
  auto found = lookupInternal(key, heldSuffices);
  if (found.bucket) return found;
  // A null bucket would read as "key absent" or "tree hole", which is a
  // verdict, not a shrug: exhaust the linear walk first, and count the
  // failed search's probes with it.
  auto linear = lookupLinearRef(key);
  linear.stats += found.stats;
  return linear;
}

template <typename OpForLeaf>
LhtIndex::LeafWrite LhtIndex::writeLeaf(double key, const OpForLeaf& opFor,
                                        const char* hole, const char* moving,
                                        cost::OpStats& st) {
  // The apply starts from the bucket the lookup returned: the held copy on
  // a warm first try, else the one just read. A copy that is no longer
  // stored costs one CAS conflict, and the op then runs on the stored
  // bucket. A concurrent client can split or merge the leaf between our
  // lookup and our apply; the op then reports stale instead of applying,
  // and the write re-resolves the leaf, reading it. Every retry sees a
  // strictly newer state of that interval, so the depth budget bounds it.
  LeafWrite w;
  for (u32 attempt = 0;; ++attempt) {
    w.leaf = resolveLeaf(key, /*heldSuffices=*/attempt == 0);
    checkInvariant(w.leaf.bucket != nullptr, hole);
    chargeInsertion(w.leaf.stats.dhtLookups, 0);
    st += w.leaf.stats;
    checkInvariant(attempt <= 2 * opts_.maxDepth + 2, moving);
    w.result = applyOp(w.leaf.dhtKey, opFor(w.leaf.dhtKey), w.leaf.bucket.get());
    chargeInsertion(1, 0);
    st.dhtLookups += 1;
    st.parallelSteps += 1;
    if (!w.result.observed.stale) return w;
    dropCached(w.leaf.bucket->label.interval());
  }
}

// ---------------------------------------------------------------------------
// Insert (Sec. 5 + Algorithm 1)
// ---------------------------------------------------------------------------

index::UpdateResult LhtIndex::insert(const index::Record& record) {
  checkInvariant(record.key >= 0.0 && record.key <= 1.0,
                 "LhtIndex::insert: key outside [0,1]");
  obs::SpanScope span("lht.insert", "lht");
  index::UpdateResult result;
  result.ok = true;

  // Ship the record to the bucket's peer (the paper's "DHT-put towards
  // kappa") and, when the leaf saturates, run Algorithm 1 right there: the
  // local child overwrites the stored bucket in place, each remote child
  // is handed back for a single DHT-put. At most one split per insert
  // unless cascading splits are enabled (an ablation option). The op's
  // token makes a lost-reply retry a no-op: the record lands exactly once.
  //
  // With crashConsistentSplits the split does not hand the moved child to
  // the client: it is staged as a SplitIntent inside the rewritten bucket
  // (step 1), then materialized (step 2) and acknowledged (step 3) by
  // completeSplit. A crash between any two steps leaves a state any
  // reader can finish.
  const u64 token = newToken();
  SplitRule rule{{opts_.thetaSplit, opts_.countLabelSlot, opts_.maxDepth},
                 opts_.thetaSplit,
                 opts_.allowCascadingSplits    ? SplitMode::Cascade
                 : opts_.crashConsistentSplits ? SplitMode::Intent
                                               : SplitMode::Remote,
                 newToken()};
  const LeafWrite w = writeLeaf(
      record.key,
      [&](const std::string& leafKey) -> BucketOp {
        // A persistently hot leaf splits early so its read traffic spreads
        // over more owners; the floor keeps the split meaningful.
        rule.threshold = leafIsHot(leafKey)
                             ? std::max<u32>(2, opts_.thetaSplit / opts_.hotSplitDivisor)
                             : opts_.thetaSplit;
        return InsertRecords{{&record, 1}, token, rule};
      },
      "LhtIndex::insert: tree does not cover the key (D too small?)",
      "LhtIndex::insert: leaf kept moving under the apply", result.stats);
  chargeInsertion(0, 1);
  recordCount_ += 1;

  std::optional<size_t> moved;  // records the one split moved, for alpha
  const std::vector<LeafBucket>& remotes = w.result.products.remotes;
  for (const LeafBucket& remote : remotes) {
    // Theorem 2: each remote child is named exactly its pre-split label.
    dht_.put(dhtKeyFor(remote.label), remote.serialize());
    chargeMaintenance(1, remote.records.size());
    noteSplit();
    result.splitOrMerged = true;
  }
  if (!remotes.empty()) dropCached(w.leaf.bucket->label.interval());
  if (remotes.size() == 1) moved = remotes.front().records.size();
  if (const auto& pendingSplit = w.result.observed.splitIntent) {
    moved = pendingSplit->moving.size();
    completeSplit(w.leaf.dhtKey, *pendingSplit, result.stats);
    chargeMaintenance(0, *moved);
    noteSplit();
    result.splitOrMerged = true;
  }
  // A hot leaf's early split gives no alpha sample: the paper defines
  // alpha at theta-triggered splits only.
  if (moved && !w.result.products.earlySplit) {
    recordAlpha(static_cast<double>(*moved + (opts_.countLabelSlot ? 1 : 0)) /
                static_cast<double>(opts_.thetaSplit));
  }
  noteOp("lht.insert", result.stats);
  span.arg("dht_lookups", result.stats.dhtLookups);
  return result;
}

index::UpdateResult LhtIndex::insertBatch(std::vector<index::Record> records) {
  index::UpdateResult result;
  result.ok = true;
  if (records.empty()) return result;
  for (const auto& r : records) {
    checkInvariant(r.key >= 0.0 && r.key <= 1.0,
                   "LhtIndex::insertBatch: key outside [0,1]");
  }
  std::sort(records.begin(), records.end(), index::recordLess);
  obs::SpanScope span("lht.insertBatch", "lht");
  span.arg("records", static_cast<u64>(records.size()));
  // Each group splits recursively, at theta (no hot-leaf rule).
  const SplitRule rule{{opts_.thetaSplit, opts_.countLabelSlot, opts_.maxDepth},
                       opts_.thetaSplit, SplitMode::Cascade, 0};

  // Pass 1 (sequential, cache-accelerated): resolve the target leaf of each
  // sorted run. Each group's op refers to its slice of the sorted batch.
  std::vector<KeyedOp> groups;
  std::vector<Interval> leafIntervals;
  const std::span<const index::Record> sorted(records);
  size_t i = 0;
  while (i < records.size()) {
    auto found = resolveLeaf(records[i].key);
    checkInvariant(found.bucket != nullptr, "LhtIndex::insertBatch: tree hole");
    chargeInsertion(found.stats.dhtLookups, 0);
    result.stats.dhtLookups += found.stats.dhtLookups;
    result.stats.parallelSteps += found.stats.parallelSteps;

    const Interval leaf = found.bucket->label.interval();
    size_t j = i;
    while (j < records.size() && common::clampToUnit(records[j].key) < leaf.hi) ++j;
    groups.push_back(
        KeyedOp{found.dhtKey, InsertRecords{sorted.subspan(i, j - i), newToken(), rule}});
    leafIntervals.push_back(leaf);
    i = j;
  }

  // Pass 2: ONE multiApply round ships every group to its leaf (splits run
  // inside the ops, children handed back per group).
  std::vector<BucketOpResult> applied;
  const auto outcomes = applyOps(groups, applied);
  result.stats.parallelSteps += 1;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (!outcomes[g].ok) {
      throw dht::DhtError("LhtIndex::insertBatch: apply round entry failed: " +
                          outcomes[g].error);
    }
    checkInvariant(!applied[g].observed.stale, "LhtIndex::insertBatch: bucket vanished");
    const size_t count = std::get<InsertRecords>(groups[g].op).records.size();
    chargeInsertion(1, count);
    result.stats.dhtLookups += 1;
    recordCount_ += count;
  }

  // Pass 3: ONE more round writes every split-off child (Theorem 2 names
  // them; an overwrite, like insert's dht_.put of a remote child).
  std::vector<KeyedOp> puts;
  for (size_t g = 0; g < groups.size(); ++g) {
    const auto& remotes = applied[g].products.remotes;
    if (!remotes.empty()) dropCached(leafIntervals[g]);
    for (const auto& rb : remotes) {
      puts.push_back(KeyedOp{dhtKeyFor(rb.label), WriteChild{&rb}});
    }
  }
  if (!puts.empty()) {
    std::vector<BucketOpResult> written;
    const auto putOut = applyOps(puts, written);
    result.stats.parallelSteps += 1;
    for (size_t k = 0; k < puts.size(); ++k) {
      if (!putOut[k].ok) {
        throw dht::DhtError("LhtIndex::insertBatch: split put failed: " +
                            putOut[k].error);
      }
      chargeMaintenance(1, std::get<WriteChild>(puts[k].op).bucket->records.size());
      noteSplit();
      result.splitOrMerged = true;
    }
  }
  noteOp("lht.insertBatch", result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Successor / predecessor queries (extension)
// ---------------------------------------------------------------------------

index::FindResult LhtIndex::neighborQuery(double key, Side side) {
  const bool right = side == Side::Right;
  checkInvariant(key >= 0.0 && key <= 1.0, right ? "LhtIndex::successorQuery: bad key"
                                                 : "LhtIndex::predecessorQuery: bad key");
  obs::SpanScope span(right ? "lht.successorQuery" : "lht.predecessorQuery", "lht");
  auto found = lookupInternal(key);
  checkInvariant(found.bucket != nullptr,
                 right ? "successorQuery: tree hole" : "predecessorQuery: tree hole");
  index::FindResult result;
  result.stats = found.stats;
  // The nearest key >= `key` to the right, or < `key` to the left; a leaf
  // with none passes the search on to its neighbor.
  for (BucketRef bucket = std::move(found.bucket); bucket;
       bucket = stepLeaf(*bucket, side, result.stats)) {
    const index::Record* best = nullptr;
    for (const auto& r : bucket->records) {
      if (right ? r.key < key : r.key >= key) continue;
      if (best == nullptr || (right ? r.key < best->key : r.key > best->key)) best = &r;
    }
    if (best != nullptr) {
      result.record = *best;
      break;
    }
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp(right ? "lht.successorQuery" : "lht.predecessorQuery", result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Erase + merge (the dual of split)
// ---------------------------------------------------------------------------

index::UpdateResult LhtIndex::erase(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "LhtIndex::erase: key outside [0,1]");
  obs::SpanScope span("lht.erase", "lht");
  index::UpdateResult result;
  // Token-guarded like insert: a lost-reply retry neither removes twice
  // nor loses the counts of the run that removed the records.
  const BucketOp op = EraseKey{key, newToken(), opts_.countLabelSlot};
  const auto removal = writeLeaf(key, [&op](const std::string&) { return op; },
                                 "LhtIndex::erase: tree hole",
                                 "LhtIndex::erase: leaf kept moving under the apply",
                                 result.stats).result.products;
  recordCount_ -= std::min(removal.removed, recordCount_);
  result.ok = removal.removed > 0;

  if (result.ok && opts_.enableMerge && removal.bucketLabel.length() >= 2 &&
      removal.remainingEffective < opts_.thetaSplit) {
    result.splitOrMerged = tryMerge(removal.bucketLabel);
  }
  noteOp("lht.erase", result.stats);
  return result;
}

bool LhtIndex::tryMerge(const Label& bucketLabel) {
  const Label sib = bucketLabel.sibling();
  // The sibling participates only if it is itself a leaf, i.e. a bucket
  // labelled exactly `sib` sits under name(sib). The merge's steps start
  // from the copies these two reads leave in the bucket store.
  cost::OpStats st;  // the merge's probes and steps, charged as maintenance
  auto sibBucket = getBucketRef(dhtKeyFor(sib), st);
  chargeMaintenance(1, 0);
  if (!sibBucket || sibBucket->label != sib) return false;

  // Refresh our own bucket to get an exact combined size.
  auto ownBucket = getBucketRef(dhtKeyFor(bucketLabel), st);
  chargeMaintenance(1, 0);
  if (!ownBucket || ownBucket->label != bucketLabel) return false;

  const size_t combined = ownBucket->records.size() + sibBucket->records.size() +
                          (opts_.countLabelSlot ? 1 : 0);
  if (combined >= opts_.thetaSplit) return false;

  // The merged leaf is the parent; one child's bucket already lives under
  // the parent's name (the reverse of Theorem 2) and absorbs; the other is
  // the donor and is dropped, its records moving over.
  const Label parent = bucketLabel.parent();
  const std::string parentKey = dhtKeyFor(parent);
  const bool ownIsAbsorber = dhtKeyFor(bucketLabel) == parentKey;
  const LeafBucket& donor = ownIsAbsorber ? *sibBucket : *ownBucket;
  const LeafBucket& absorber = ownIsAbsorber ? *ownBucket : *sibBucket;
  const std::string donorKey = dhtKeyFor(donor.label);
  checkInvariant(donorKey != parentKey,
                 "LhtIndex::tryMerge: both children named to parent");

  if (opts_.crashConsistentSplits) {
    // Durable merge state machine: step 1 freezes the donor, so no insert
    // or erase lands in it and it cannot split; step 2 stages a copy of its
    // records as a MergeIntent inside the absorber (the records are in the
    // DHT before anything is destroyed); steps 3–4 run in completeMerge
    // (delete the donor, commit the absorber as the parent leaf). A crash
    // or lost reply between any two steps is repaired by the next reader
    // of either bucket, and a concurrent writer either lands before the
    // freeze, and so in the copy, or re-resolves to the merged parent.
    if (!absorber.clean() || !donor.clean()) return false;
    const u64 token = newToken();
    const std::optional<MergeIntent> intent =
        applyStep(donorKey, FreezeDonor{donor.label, token}, st).observed.frozen;
    if (!intent) return false;
    if (!mergeFrozenDonor(donorKey, parentKey, absorber.label, *intent, st)) return false;
    noteMerge();
    return true;
  }

  // Drop the donor (its peer ships the records), then rewrite the absorber
  // in place as the parent leaf.
  const auto moving = applyStep(donorKey, TakeDonor{donor.label}, st).products.moving;
  applyStep(parentKey, AbsorbDonor{parent, &moving}, st);
  chargeMaintenance(0, donor.records.size());
  noteMerge();
  dropCached(parent.interval());
  return true;
}

// ---------------------------------------------------------------------------
// Exact-match query
// ---------------------------------------------------------------------------

index::FindResult LhtIndex::find(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "LhtIndex::find: key outside [0,1]");
  obs::SpanScope span("lht.find", "lht");
  auto found = resolveLeaf(key);
  index::FindResult result;
  result.stats = found.stats;
  chargeQuery(found.stats.dhtLookups);
  if (found.bucket) {
    for (const auto& r : found.bucket->records) {
      if (r.key == key) {
        result.record = r;
        break;
      }
    }
  }
  noteOp("lht.find", result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Range queries (Algorithms 3 and 4)
// ---------------------------------------------------------------------------

Label LhtIndex::computeLca(const Interval& range) const {
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

/// A range answer assembled one piece per expanded bucket: the bucket's
/// records inside the clip, copied once, in recordLess order, keyed by the
/// low end of bucket interval ∩ clip. Pieces cover disjoint key intervals:
/// the fan-out's clips partition the range, and a leaf holds only keys its
/// interval covers. So concatenating the pieces by low end gives the answer
/// in order, with no sort over records.
class LhtIndex::RangeAnswer {
 public:
  /// Appends bucket ∩ clip as one piece (nothing when it is empty).
  void addPiece(const LeafBucket& bucket, const Interval& clip);
  /// The records of every piece, in recordLess order. A planned range's
  /// pieces usually arrive in order, and then this is a move; otherwise
  /// the pieces are sorted and each record moves once.
  std::vector<index::Record> take() &&;

 private:
  struct Piece {
    double lo;
    size_t begin, end;  ///< [begin, end) of records_
  };
  std::vector<index::Record> records_;
  std::vector<Piece> pieces_;
  std::vector<const index::Record*> picked_;  ///< reused by addPiece
};

void LhtIndex::RangeAnswer::addPiece(const LeafBucket& bucket,
                                     const Interval& clip) {
  // Point at the records inside the clip, checking their order on the
  // way: a bulk load leaves a bucket sorted and a split keeps its order,
  // but single inserts append out of order. Sorting pointers, not the
  // shared records, keeps the copy single.
  picked_.clear();
  picked_.reserve(bucket.records.size());
  bool sorted = true;
  for (const auto& r : bucket.records) {
    if (!clip.contains(r.key)) continue;
    if (!picked_.empty() && index::recordLess(r, *picked_.back())) sorted = false;
    picked_.push_back(&r);
  }
  if (picked_.empty()) return;
  if (!sorted) {
    std::sort(picked_.begin(), picked_.end(),
              [](const index::Record* a, const index::Record* b) {
                return index::recordLess(*a, *b);
              });
  }
  const size_t begin = records_.size();
  if (records_.capacity() < begin + picked_.size()) {
    records_.reserve(std::max(2 * records_.capacity(), begin + picked_.size()));
  }
  for (const index::Record* r : picked_) records_.push_back(*r);
  pieces_.push_back(
      Piece{std::max(bucket.label.interval().lo, clip.lo), begin, records_.size()});
}

std::vector<index::Record> LhtIndex::RangeAnswer::take() && {
  const auto byLo = [](const Piece& a, const Piece& b) { return a.lo < b.lo; };
  if (std::is_sorted(pieces_.begin(), pieces_.end(), byLo)) {
    return std::move(records_);
  }
  std::sort(pieces_.begin(), pieces_.end(), byLo);
  std::vector<index::Record> ordered;
  ordered.reserve(records_.size());
  for (const Piece& p : pieces_) {
    for (size_t i = p.begin; i < p.end; ++i) {
      ordered.push_back(std::move(records_[i]));
    }
  }
  return ordered;
}

void LhtIndex::expandBucket(const LeafBucket& bucket, const Interval& clip,
                            std::vector<FanoutTask>& next, RangeAnswer& out,
                            cost::OpStats& st) {
  st.bucketsTouched += 1;
  out.addPiece(bucket, clip);
  const Interval mine = bucket.label.interval();

  // Sweep right, then left: cover the rest of the clip on each side through
  // the branch nodes beta_1, beta_2, ... of the local tree. All fully
  // covered branches are forwarded in parallel (the local tree names them
  // all at once); only the final, partially covered branch may need the
  // two-step entry.
  for (const Side side : {Side::Right, Side::Left}) {
    const bool right = side == Side::Right;
    if (right ? clip.hi <= mine.hi : clip.lo >= mine.lo) continue;
    for (Label beta = bucket.label; !atEnd(beta, side);) {
      beta = neighbor(beta, side);
      const Interval inv = beta.interval();
      if (right ? inv.lo >= clip.hi : inv.hi <= clip.lo) break;
      const bool whole = right ? inv.hi <= clip.hi : inv.lo >= clip.lo;
      next.push_back(FanoutTask{beta, whole ? inv : inv.intersect(clip), whole});
      if (!whole) break;
    }
  }
}

LhtIndex::BucketRef LhtIndex::resolveRangeEntry(const Interval& clip,
                                                u64& hops, cost::OpStats& st) {
  auto found = lookupInternal(clip.lo);
  checkInvariant(found.bucket != nullptr, "rangeQuery: unresolvable branch");
  st.dhtLookups += found.stats.dhtLookups;
  hops = std::max(hops, found.stats.parallelSteps);
  return std::move(found.bucket);
}

u64 LhtIndex::runFanoutRounds(std::vector<FanoutTask> frontier,
                              RangeAnswer& out, cost::OpStats& st) {
  u64 rounds = 0;
  std::vector<std::string> keys;
  std::vector<BucketStore::Held> held;
  std::vector<FanoutTask> next;
  while (!frontier.empty()) {
    rounds += 1;
    keys.clear();
    for (const auto& t : frontier) {
      keys.push_back(t.underName ? dhtKeyFor(t.branch) : t.branch.str());
    }
    auto replies = readRound(keys, held);
    st.dhtLookups += keys.size();
    u64 stall = 0;  // longest re-resolution chain inside this round
    next.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
      FanoutTask& t = frontier[i];
      auto& reply = replies[i];
      if (!reply.ok) {
        throw dht::DhtError("LhtIndex: range fan-out entry failed: " + reply.error);
      }
      BucketRef bucket = bucketOf(keys[i], reply, held[i]);
      if (bucket) {
        noteLeaf(*bucket);
      } else if (!t.underName) {
        // The partial branch is itself a leaf (the paper's one failed
        // DHT-lookup): re-fetch it under name(branch) next round.
        t.underName = true;
        next.push_back(t);
        continue;
      }
      if (!bucket || !bucket->label.interval().overlaps(t.clip)) {
        // A split or merge moved the entry leaf: mid-fan-out, or for a
        // planned range since the leaf was cached. Its name is gone, or
        // now holds the child on the far side of the clip, from which
        // expandBucket's sweeps (they assume the bucket borders its clip)
        // would forward keys outside the range. Drop the stale cache
        // entry, so the repairing lookup does not fetch it again, and
        // continue from the leaf covering the clip's lower bound. The
        // collection stays filtered by the clip, so nothing is
        // double-counted.
        dropCached(t.clip);
        bucket = resolveRangeEntry(t.clip, stall, st);
      }
      expandBucket(*bucket, t.clip, next, out, st);
    }
    rounds += stall;
    std::swap(frontier, next);
  }
  return rounds;
}

index::RangeResult LhtIndex::rangeQuery(double lo, double hi) {
  index::RangeResult result;
  if (hi <= lo) return result;
  checkInvariant(lo >= 0.0 && hi <= 1.0, "LhtIndex::rangeQuery: bad bounds");
  obs::SpanScope span("lht.rangeQuery", "lht");
  span.arg("lo", lo);
  span.arg("hi", hi);
  const Interval range{lo, hi};
  RangeAnswer collected;
  std::vector<FanoutTask> frontier;
  u64 steps = 0;

  const auto tiles = opts_.useLeafCache ? leafCache_.tiling(range)
                                        : std::vector<LeafCache::Entry>{};
  if (!tiles.empty()) {
    // Warm plan: the cached leaves tile the range, so the first fan-out
    // round fetches every one of them under its name and expands it over
    // tile ∩ range. A leaf that split since it was cached forwards the
    // rest of its clip to the next round.
    for (const auto& tile : tiles) {
      frontier.push_back(
          FanoutTask{tile.label, tile.label.interval().intersect(range), true});
    }
  } else {
    // Algorithm 4: jump to the range's lowest common ancestor.
    const Label lca = computeLca(range);
    auto entry = getBucketRef(dhtKeyFor(lca), result.stats);
    steps = 1;  // the LCA get
    if (!entry) {
      // Case 1: the whole range lies inside a single leaf; resolve with an
      // exact lookup of the lower bound.
      auto found = lookupInternal(lo);
      checkInvariant(found.bucket != nullptr, "rangeQuery: tree hole");
      result.stats.dhtLookups += found.stats.dhtLookups;
      steps += found.stats.parallelSteps;
      result.stats.bucketsTouched += 1;
      collected.addPiece(*found.bucket, range);
    } else if (entry->label.interval().overlaps(range)) {
      // Case 2: the entry leaf holds one of the range bounds; it forwards
      // the rest of the range directly.
      expandBucket(*entry, range, frontier, collected, result.stats);
    } else {
      // Case 3: the entry leaf lies outside the range; both halves of the
      // LCA contain part of it and are entered in parallel.
      const Interval iv = lca.interval();
      const double mid = 0.5 * (iv.lo + iv.hi);
      frontier.push_back(FanoutTask{lca.child(0), range.intersect({iv.lo, mid}), false});
      frontier.push_back(FanoutTask{lca.child(1), range.intersect({mid, iv.hi}), false});
    }
  }
  steps += runFanoutRounds(std::move(frontier), collected, result.stats);

  result.stats.parallelSteps = steps;
  chargeQuery(result.stats.dhtLookups);
  result.records = std::move(collected).take();
  noteOp("lht.rangeQuery", result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Min/Max (Theorem 3)
// ---------------------------------------------------------------------------

LhtIndex::BucketRef LhtIndex::fetchEndLeaf(Side side, cost::OpStats& st) {
  // Theorem 3: the leftmost leaf (#00*) is named "#", the rightmost (#01*)
  // "#0" — or "#" as well when the tree is a single leaf.
  if (side == Side::Right) {
    if (auto bucket = getBucketRef("#0", st)) return bucket;
  }
  return getBucketRef("#", st);
}

LhtIndex::BucketRef LhtIndex::stepLeaf(const LeafBucket& from, Side side,
                                       cost::OpStats& st, const char* broken) {
  if (atEnd(from.label, side)) return nullptr;
  // A lookup of the neighbor branch's label itself reaches the subtree's
  // entry leaf when the branch is internal; when the branch is itself a
  // leaf the lookup fails — the paper's "at most one failed DHT-lookup" —
  // and the leaf sits under its own name instead.
  const Label branch = neighbor(from.label, side);
  auto next = getBucketRef(branch.str(), st);
  if (!next) next = getBucketRef(dhtKeyFor(branch), st);
  if (broken != nullptr) checkInvariant(next != nullptr, broken);
  return next;
}

index::FindResult LhtIndex::endRecord(Side side) {
  const bool left = side == Side::Left;
  index::FindResult result;
  obs::SpanScope span(left ? "lht.minRecord" : "lht.maxRecord", "lht");
  // Theorem 3: one DHT-lookup.
  auto bucket = fetchEndLeaf(side, result.stats);
  checkInvariant(bucket != nullptr, left ? "minRecord: leftmost leaf missing"
                                         : "maxRecord: rightmost leaf missing");
  // Deletions may have emptied the end leaf; sweep inward (each hop one
  // further DHT-lookup) until a record shows up.
  while (bucket && bucket->records.empty()) {
    bucket = stepLeaf(*bucket, left ? Side::Right : Side::Left, result.stats);
  }
  if (bucket) {
    const auto& rs = bucket->records;
    const auto byKey = [](const index::Record& a, const index::Record& b) {
      return a.key < b.key;
    };
    result.record = left ? *std::min_element(rs.begin(), rs.end(), byKey)
                         : *std::max_element(rs.begin(), rs.end(), byKey);
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp(left ? "lht.minRecord" : "lht.maxRecord", result.stats);
  return result;
}

index::RangeResult LhtIndex::topK(size_t k, Side side) {
  index::RangeResult result;
  if (k == 0) return result;
  const bool left = side == Side::Left;
  obs::SpanScope span(left ? "lht.topMin" : "lht.topMax", "lht");
  span.arg("k", static_cast<u64>(k));
  // Sweep leaves inward from the end: every record in a later bucket lies
  // beyond every record in an earlier one, so we may stop as soon as k
  // records are collected.
  auto bucket = fetchEndLeaf(side, result.stats);
  checkInvariant(bucket != nullptr, left ? "topMin: leftmost leaf missing"
                                         : "topMax: rightmost leaf missing");
  while (bucket) {
    result.stats.bucketsTouched += 1;
    result.records.insert(result.records.end(), bucket->records.begin(),
                          bucket->records.end());
    if (result.records.size() >= k) break;
    bucket = stepLeaf(*bucket, left ? Side::Right : Side::Left, result.stats,
                      left ? "topMin: broken leaf chain" : "topMax: broken leaf chain");
  }
  std::sort(result.records.begin(), result.records.end(), index::recordLess);
  if (result.records.size() > k) {  // drop the excess beyond the k-th
    const auto excess = static_cast<long>(result.records.size() - k);
    const auto from = left ? result.records.end() - excess : result.records.begin();
    result.records.erase(from, from + excess);
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp(left ? "lht.topMin" : "lht.topMax", result.stats);
  return result;
}

index::FindResult LhtIndex::quantileQuery(double q) {
  checkInvariant(q >= 0.0 && q <= 1.0, "LhtIndex::quantileQuery: q outside [0,1]");
  index::FindResult result;
  if (recordCount_ == 0) return result;
  obs::SpanScope span("lht.quantileQuery", "lht");
  span.arg("q", q);
  const size_t rank =
      static_cast<size_t>(q * static_cast<double>(recordCount_ - 1));

  // Sweep from whichever end is nearer to the target rank.
  const bool fromLeft = rank <= recordCount_ / 2;
  size_t remaining = fromLeft ? rank : recordCount_ - 1 - rank;
  auto bucket = fetchEndLeaf(fromLeft ? Side::Left : Side::Right, result.stats);
  checkInvariant(bucket != nullptr, "quantileQuery: end bucket missing");
  while (bucket->records.size() <= remaining) {
    remaining -= bucket->records.size();
    bucket = stepLeaf(*bucket, fromLeft ? Side::Right : Side::Left, result.stats,
                      "quantileQuery: broken leaf chain");
    checkInvariant(bucket != nullptr, "quantileQuery: ran past the end (count drift)");
  }
  // The target rank lies in this bucket: order its records locally.
  std::vector<index::Record> recs = bucket->records;
  std::sort(recs.begin(), recs.end(), index::recordLess);
  result.record = fromLeft ? recs[remaining] : recs[recs.size() - 1 - remaining];
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp("lht.quantileQuery", result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

void LhtIndex::forEachBucket(const std::function<void(const LeafBucket&)>& fn) {
  cost::OpStats scratch;
  auto bucket = fetchEndLeaf(Side::Left, scratch);
  checkInvariant(bucket != nullptr, "forEachBucket: leftmost leaf missing");
  for (; bucket; bucket = stepLeaf(*bucket, Side::Right, scratch,
                                   "forEachBucket: broken leaf chain")) {
    fn(*bucket);
  }
}

}  // namespace lht::core
