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
  auto v = dht_.get(key);
  if (!v) return nullptr;
  auto ref = store_.decode(key, *v);
  noteLeaf(*ref);
  return ref;
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

dht::Mutator LhtIndex::makeBucketMutator(std::string key, BucketMutator fn) {
  return [this, key = std::move(key), fn = std::move(fn)](std::optional<dht::Value>& v) {
    std::optional<LeafBucket> b;
    if (v.has_value()) b = store_.decodeCopy(key, *v);
    if (!fn(b)) return;  // unchanged: the stored bytes stay as they are
    if (b.has_value()) {
      v = b->serialize();
      store_.note(key, *v, std::move(*b));
    } else {
      v.reset();
      store_.forget(key);
    }
  };
}

bool LhtIndex::applyBucket(const std::string& key, const BucketMutator& fn) {
  return dht_.apply(key, makeBucketMutator(key, fn));
}

LhtIndex::LookupOutcome LhtIndex::toOutcome(LookupRef&& ref) {
  LookupOutcome out;
  out.dhtKey = std::move(ref.dhtKey);
  out.stats = ref.stats;
  if (ref.bucket) out.bucket = *ref.bucket;  // one copy, at the API boundary
  return out;
}

bool LhtIndex::shouldSplit(const LeafBucket& b) const {
  u32 threshold = opts_.thetaSplit;
  if (opts_.adaptiveSplits && leafIsHot(dhtKeyFor(b.label))) {
    // A persistently hot leaf splits early so its read traffic spreads
    // over more owners; the floor keeps the split meaningful.
    threshold = std::max<u32>(2, opts_.thetaSplit / opts_.hotSplitDivisor);
  }
  if (b.effectiveSize(opts_.countLabelSlot) < threshold) return false;
  return b.label.length() < opts_.maxDepth;
}

// ---------------------------------------------------------------------------
// Lookup (Algorithm 2) + lookup-triggered repair
// ---------------------------------------------------------------------------

LhtIndex::LookupRef LhtIndex::lookupInternal(double key) {
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

bool LhtIndex::repairProbe(double key, cost::OpStats& st) {
  repairStats_.holeProbes += 1;
  // Every candidate prefix name in one round: the probe count is that of
  // a linear scan, the critical path one round-trip.
  const auto names = candidateNames(key);
  auto replies = dht_.multiGet(names);
  st.dhtLookups += names.size();
  bool repaired = false;
  for (size_t i = 0; i < names.size(); ++i) {
    if (!replies[i].ok) {
      // Entry failed inside the round: fall back to a single probe of this
      // name so injected faults degrade, not corrupt.
      auto bucket = getBucketRef(names[i], st);
      if (bucket && !bucket->clean()) repaired |= repairBucket(names[i], *bucket, st);
      continue;
    }
    if (!replies[i].value.has_value()) continue;
    auto bucket = store_.decode(names[i], *replies[i].value);
    noteLeaf(*bucket);
    if (!bucket->clean()) repaired |= repairBucket(names[i], *bucket, st);
  }
  return repaired;
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
      resumeFrozenDonor(key, bucket, st);
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
  applyBucket(dhtKeyFor(intent.movedLabel), [&](std::optional<LeafBucket>& ob) {
    if (ob.has_value()) return false;
    LeafBucket moved;
    moved.label = intent.movedLabel;
    moved.records = intent.moving;
    moved.epoch = 1;
    moved.markApplied(intent.token);
    ob = std::move(moved);
    return true;
  });
  st.dhtLookups += 1;
  chargeMaintenance(1, 0);

  // Step 3: clear the intent from the staying child. Guarded by the
  // intent token so a stale retry cannot clear a newer intent.
  const Label parent = intent.movedLabel.parent();
  bool mergedBack = false;
  applyBucket(stayingKey, [&](std::optional<LeafBucket>& ob) {
    mergedBack = !ob || ob->label.isPrefixOf(parent);
    if (ob && ob->splitIntent && ob->splitIntent->token == intent.token) {
      ob->splitIntent.reset();
      ob->epoch += 1;
      return true;
    }
    return false;
  });
  st.dhtLookups += 1;
  chargeMaintenance(1, 0);
  if (mergedBack) {
    // A completer that read the intent before another one finished the
    // split can reach step 2 after the two children have merged back, and
    // recreate the moved child beside its merged parent. The staying key
    // holding the parent, an ancestor or nothing gives that away: delete
    // the copy step 2 may have made, unless a write has reached it since.
    applyBucket(dhtKeyFor(intent.movedLabel), [&](std::optional<LeafBucket>& ob) {
      if (!ob || ob->epoch != 1 || !ob->hasApplied(intent.token)) return false;
      ob.reset();
      return true;
    });
    st.dhtLookups += 1;
    chargeMaintenance(1, 0);
  }
  dropCached(parent.interval());
}

bool LhtIndex::stageMerge(const std::string& absorberKey,
                          const Label& absorberLabel, const MergeIntent& intent,
                          cost::OpStats& st) {
  // Step 2 of the merge state machine: copy the frozen donor's records into
  // the absorber, provided it is still the clean sibling leaf.
  bool staged = false;
  applyBucket(absorberKey, [&](std::optional<LeafBucket>& ob) {
    staged = false;
    if (!ob.has_value()) return false;
    LeafBucket& b = *ob;
    if (b.mergeIntent && b.mergeIntent->token == intent.token) {
      staged = true;  // staged already: a lost reply, or another completer
      return false;
    }
    if (!b.clean() || b.label != absorberLabel) return false;
    b.mergeIntent = intent;
    b.epoch += 1;
    staged = true;
    return true;
  });
  st.dhtLookups += 1;
  chargeMaintenance(1, 0);
  return staged;
}

void LhtIndex::thawDonor(const std::string& donorKey, u64 token, cost::OpStats& st) {
  applyBucket(donorKey, [&](std::optional<LeafBucket>& ob) {
    if (!ob || !ob->mergeIntent || ob->mergeIntent->token != token) return false;
    ob->mergeIntent.reset();
    ob->epoch += 1;
    return true;
  });
  st.dhtLookups += 1;
  chargeMaintenance(1, 0);
}

void LhtIndex::resumeFrozenDonor(const std::string& donorKey,
                                 const LeafBucket& donor, cost::OpStats& st) {
  // A merge stranded between freezing the donor and staging the absorber
  // (or still on its way there): stage it, or, if the sibling has stopped
  // being a clean leaf, thaw the donor.
  const MergeIntent intent{donor.label, donor.records, donor.mergeIntent->token};
  const std::string absorberKey = dhtKeyFor(donor.label.parent());
  if (stageMerge(absorberKey, donor.label.sibling(), intent, st)) {
    completeMerge(absorberKey, intent, st);
  } else {
    thawDonor(donorKey, intent.token, st);
  }
}

bool LhtIndex::completeMerge(const std::string& absorberKey,
                             const MergeIntent& intent, cost::OpStats& st) {
  // Step 3: delete the donor, only while it is still frozen by this merge.
  // A donor that is gone was deleted by an earlier attempt (ours, its reply
  // lost, or a concurrent completer's). One that is present but no longer
  // frozen by this token was thawed by a client that found the absorber
  // unmergeable: the merge is off.
  bool thawed = false;
  applyBucket(dhtKeyFor(intent.donorLabel), [&](std::optional<LeafBucket>& ob) {
    thawed = false;
    if (!ob.has_value()) return false;
    if (!ob->mergeIntent || ob->mergeIntent->token != intent.token) {
      thawed = true;
      return false;
    }
    ob.reset();  // erase
    return true;
  });
  st.dhtLookups += 1;
  chargeMaintenance(1, 0);

  // Step 4: the absorber becomes the parent leaf and takes the staged copy
  // of the donor's records, or, when the merge is off, drops the intent.
  applyBucket(absorberKey, [&](std::optional<LeafBucket>& ob) {
    if (!ob || !ob->mergeIntent || ob->mergeIntent->token != intent.token) {
      return false;
    }
    LeafBucket& b = *ob;
    if (!thawed) {
      b.label = intent.donorLabel.parent();
      b.records.insert(b.records.end(), intent.moving.begin(), intent.moving.end());
    }
    b.mergeIntent.reset();
    b.epoch += 1;
    return true;
  });
  st.dhtLookups += 1;
  chargeMaintenance(1, thawed ? 0 : intent.moving.size());
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
    // One round per step: every candidate prefix name of the cursor. The
    // leaf covering the cursor is stored under one of these names, and so
    // is any intent-holder responsible for a hole there.
    const auto names = candidateNames(cursor);
    auto replies = dht_.multiGet(names);
    scratch.dhtLookups += names.size();
    bool repairedAny = false;
    bool anyFailed = false;
    BucketRef covering;
    for (size_t i = 0; i < names.size(); ++i) {
      if (!replies[i].ok) {
        anyFailed = true;
        continue;
      }
      if (!replies[i].value.has_value()) continue;
      auto b = store_.decode(names[i], *replies[i].value);
      noteLeaf(*b);
      if (!b->clean()) {
        repairedAny |= repairBucket(names[i], *b, scratch);
        continue;
      }
      if (b->covers(common::clampToUnit(cursor))) covering = b;
    }
    if (repairedAny) continue;  // re-probe the same cursor post-repair
    if (anyFailed || !covering) {
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
  cost::OpStats scratch;
  size_t visited = 0;
  while (cursor < 1.0 && visited < maxBuckets) {
    auto out = lookupInternal(cursor);
    checkInvariant(out.bucket != nullptr, "repairSweepStep: unrecoverable hole");
    scratch += out.stats;
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

// ---------------------------------------------------------------------------
// Insert (Sec. 5 + Algorithm 1)
// ---------------------------------------------------------------------------

index::UpdateResult LhtIndex::insert(const index::Record& record) {
  checkInvariant(record.key >= 0.0 && record.key <= 1.0,
                 "LhtIndex::insert: key outside [0,1]");
  obs::SpanScope span("lht.insert", "lht");
  auto found = lookupInternal(record.key);
  if (!found.bucket) found = lookupLinearRef(record.key);  // defensive fallback
  checkInvariant(found.bucket != nullptr,
                 "LhtIndex::insert: tree does not cover the key (D too small?)");

  index::UpdateResult result;
  result.ok = true;
  result.stats = found.stats;
  chargeInsertion(found.stats.dhtLookups, 0);
  Interval preInterval = found.bucket->label.interval();

  // Ship the record to the bucket's peer (the paper's "DHT-put towards
  // kappa") and, when the leaf saturates, run Algorithm 1 right there: the
  // local child overwrites the stored bucket in place, each remote child
  // is handed back for a single DHT-put. At most one split per insert
  // unless cascading splits are enabled (an ablation option).
  //
  // The apply is stamped with an idempotence token: if the substrate loses
  // the *reply* and a retry layer re-executes the mutator, the second
  // execution sees the token already recorded and leaves the bucket alone
  // — the record lands exactly once.
  //
  // With crashConsistentSplits the split does not hand the moved child to
  // the client: it is staged as a SplitIntent inside the rewritten bucket
  // (step 1), then materialized (step 2) and acknowledged (step 3) by
  // completeSplit. A crash between any two steps leaves a state any
  // reader can finish.
  std::vector<LeafBucket> remotes;
  std::optional<SplitIntent> pendingSplit;
  bool earlySplit = false;  // hot-leaf split below theta: no alpha sample
  const u64 token = newToken();
  const u64 completionToken = newToken();
  // A concurrent client can split or merge the looked-up leaf between our
  // lookup and our apply; the mutator then reports staleness (the stored
  // bucket no longer covers the key, or vanished under a merge) instead
  // of applying, and the insert re-resolves the leaf. Every retry sees a
  // strictly newer state of that interval, so the depth budget bounds it.
  //
  // One apply may run the mutator several times (a CAS conflict, a re-read
  // before a no-change verdict, a lost-reply retry), and only the last run
  // counts. So each run first resets the verdicts it reports (stale,
  // pendingSplit); the split outputs (remotes, earlySplit) belong to the
  // run that applies the token and are left alone by the re-runs after it.
  for (u32 attempt = 0;; ++attempt) {
    checkInvariant(attempt <= 2 * opts_.maxDepth + 2,
                   "LhtIndex::insert: leaf kept moving under the apply");
    bool stale = false;
    const bool existed = applyBucket(found.dhtKey, [&](std::optional<LeafBucket>& ob) {
      stale = false;
      pendingSplit.reset();
      if (!ob.has_value()) {
        stale = true;
        return false;
      }
      LeafBucket& b = *ob;
      bool changed = false;
      // A lost reply makes a retry layer re-execute this mutator; the token
      // check turns the re-execution into a no-op, and the outputs captured
      // by the execution that actually applied stay valid. The staleness
      // check only runs on the applying execution: once the first
      // execution split the bucket, the staying child no longer needs to
      // cover the key.
      if (!b.hasApplied(token)) {
        if (b.frozenDonor() || !b.covers(common::clampToUnit(record.key))) {
          stale = true;
          return false;
        }
        remotes.clear();
        earlySplit = false;
        b.records.push_back(record);
        b.markApplied(token);
        b.epoch += 1;
        // A bucket still carrying an intent defers its split to a later
        // insert, mirroring the paper's one-split-per-insert deferral.
        if (b.clean() && shouldSplit(b)) {
          earlySplit =
              b.effectiveSize(opts_.countLabelSlot) < opts_.thetaSplit;
          if (opts_.allowCascadingSplits) {
            const SplitPolicy policy{opts_.thetaSplit, opts_.countLabelSlot,
                                     opts_.maxDepth};
            splitBucketRecursively(b, policy, remotes);
          } else if (opts_.crashConsistentSplits) {
            LeafBucket moved = splitBucket(b);
            b.splitIntent = SplitIntent{moved.label, std::move(moved.records),
                                        completionToken};
          } else {
            remotes.push_back(splitBucket(b));
          }
        }
        changed = true;
      }
      pendingSplit = b.splitIntent;
      return changed;
    });
    result.stats.dhtLookups += 1;
    result.stats.parallelSteps += 1;
    if (existed && !stale) {
      chargeInsertion(1, 1);
      break;
    }
    chargeInsertion(1, 0);
    dropCached(preInterval);
    found = lookupInternal(record.key);
    if (!found.bucket) found = lookupLinearRef(record.key);
    checkInvariant(found.bucket != nullptr,
                   "LhtIndex::insert: tree does not cover the key (D too small?)");
    chargeInsertion(found.stats.dhtLookups, 0);
    result.stats += found.stats;
    preInterval = found.bucket->label.interval();
  }
  recordCount_ += 1;

  for (const LeafBucket& remote : remotes) {
    // Theorem 2: each remote child is named exactly its pre-split label.
    dht_.put(dhtKeyFor(remote.label), remote.serialize());
    chargeMaintenance(1, remote.records.size());
    noteSplit();
    result.splitOrMerged = true;
  }
  if (!remotes.empty()) dropCached(preInterval);
  if (pendingSplit) {
    const size_t movedCount = pendingSplit->moving.size();
    completeSplit(found.dhtKey, *pendingSplit, result.stats);
    chargeMaintenance(0, movedCount);
    noteSplit();
    result.splitOrMerged = true;
    if (!earlySplit) {
      recordAlpha(
          static_cast<double>(movedCount + (opts_.countLabelSlot ? 1 : 0)) /
          static_cast<double>(opts_.thetaSplit));
    }
  }
  if (remotes.size() == 1 && !earlySplit) {
    const double remoteSize =
        static_cast<double>(remotes.front().effectiveSize(opts_.countLabelSlot));
    recordAlpha(remoteSize / static_cast<double>(opts_.thetaSplit));
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
  const SplitPolicy policy{opts_.thetaSplit, opts_.countLabelSlot, opts_.maxDepth};

  // Pass 1 (sequential, cache-accelerated): resolve the target leaf of each
  // sorted run. Groups are complete before any request captures a pointer
  // into the vector, so the pointers stay stable.
  struct Group {
    std::string dhtKey;
    Interval leafInterval;
    size_t begin = 0;
    size_t end = 0;
    u64 token = 0;
    std::vector<LeafBucket> remotes;
  };
  std::vector<Group> groups;
  size_t i = 0;
  while (i < records.size()) {
    auto found = lookupInternal(records[i].key);
    if (!found.bucket) found = lookupLinearRef(records[i].key);
    checkInvariant(found.bucket != nullptr, "LhtIndex::insertBatch: tree hole");
    chargeInsertion(found.stats.dhtLookups, 0);
    result.stats.dhtLookups += found.stats.dhtLookups;
    result.stats.parallelSteps += found.stats.parallelSteps;

    const double leafHi = found.bucket->label.interval().hi;
    size_t j = i;
    while (j < records.size() && common::clampToUnit(records[j].key) < leafHi) ++j;
    groups.push_back(Group{found.dhtKey, found.bucket->label.interval(), i, j,
                           newToken(), {}});
    i = j;
  }

  // Pass 2: ONE multiApply round ships every group to its leaf (splits run
  // inside the mutators, children handed back per group).
  std::vector<dht::ApplyRequest> reqs;
  reqs.reserve(groups.size());
  for (auto& g : groups) {
    Group* gp = &g;
    reqs.push_back(dht::ApplyRequest{
        g.dhtKey,
        makeBucketMutator(g.dhtKey, [this, gp, &records, policy](std::optional<LeafBucket>& ob) {
          checkInvariant(ob.has_value(), "LhtIndex::insertBatch: bucket vanished");
          LeafBucket& b = *ob;
          if (b.hasApplied(gp->token)) return false;
          gp->remotes.clear();
          b.records.insert(b.records.end(),
                           records.begin() + static_cast<long>(gp->begin),
                           records.begin() + static_cast<long>(gp->end));
          b.markApplied(gp->token);
          b.epoch += 1;
          splitBucketRecursively(b, policy, gp->remotes);
          return true;
        })});
  }
  auto applied = dht_.multiApply(reqs);
  if (!reqs.empty()) result.stats.parallelSteps += 1;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (!applied[g].ok) {
      throw dht::DhtError("LhtIndex::insertBatch: apply round entry failed: " +
                          applied[g].error);
    }
    chargeInsertion(1, groups[g].end - groups[g].begin);
    result.stats.dhtLookups += 1;
    recordCount_ += groups[g].end - groups[g].begin;
  }

  // Pass 3: ONE more round writes every split-off child (Theorem 2 names
  // them; an overwrite, like insert's dht_.put of a remote child).
  std::vector<dht::ApplyRequest> puts;
  for (auto& g : groups) {
    if (!g.remotes.empty()) dropCached(g.leafInterval);
    for (auto& rb : g.remotes) {
      const std::string key = dhtKeyFor(rb.label);
      const LeafBucket* rbp = &rb;
      puts.push_back(dht::ApplyRequest{
          key, makeBucketMutator(key, [rbp](std::optional<LeafBucket>& ob) {
            ob = *rbp;
            return true;
          })});
    }
  }
  if (!puts.empty()) {
    auto putOut = dht_.multiApply(puts);
    result.stats.parallelSteps += 1;
    size_t k = 0;
    for (const auto& g : groups) {
      for (const auto& rb : g.remotes) {
        if (!putOut[k].ok) {
          throw dht::DhtError("LhtIndex::insertBatch: split put failed: " +
                              putOut[k].error);
        }
        chargeMaintenance(1, rb.records.size());
        noteSplit();
        result.splitOrMerged = true;
        ++k;
      }
    }
  }
  noteOp("lht.insertBatch", result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Successor / predecessor queries (extension)
// ---------------------------------------------------------------------------

index::FindResult LhtIndex::successorQuery(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "LhtIndex::successorQuery: bad key");
  obs::SpanScope span("lht.successorQuery", "lht");
  auto found = lookupInternal(key);
  checkInvariant(found.bucket != nullptr, "successorQuery: tree hole");
  index::FindResult result;
  result.stats = found.stats;
  BucketRef bucket = std::move(found.bucket);
  while (bucket) {
    const index::Record* best = nullptr;
    for (const auto& r : bucket->records) {
      if (r.key >= key && (best == nullptr || r.key < best->key)) best = &r;
    }
    if (best != nullptr) {
      result.record = *best;
      break;
    }
    if (bucket->label.isRightmostPath()) break;
    const Label beta = rightNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, result.stats);  // leftmost leaf of the next subtree
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp("lht.successorQuery", result.stats);
  return result;
}

index::FindResult LhtIndex::predecessorQuery(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "LhtIndex::predecessorQuery: bad key");
  obs::SpanScope span("lht.predecessorQuery", "lht");
  auto found = lookupInternal(key);
  checkInvariant(found.bucket != nullptr, "predecessorQuery: tree hole");
  index::FindResult result;
  result.stats = found.stats;
  BucketRef bucket = std::move(found.bucket);
  while (bucket) {
    const index::Record* best = nullptr;
    for (const auto& r : bucket->records) {
      if (r.key < key && (best == nullptr || r.key > best->key)) best = &r;
    }
    if (best != nullptr) {
      result.record = *best;
      break;
    }
    if (bucket->label.isLeftmostPath()) break;
    const Label beta = leftNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, result.stats);  // rightmost leaf of the previous subtree
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp("lht.predecessorQuery", result.stats);
  return result;
}

// ---------------------------------------------------------------------------
// Erase + merge (the dual of split)
// ---------------------------------------------------------------------------

index::UpdateResult LhtIndex::erase(double key) {
  checkInvariant(key >= 0.0 && key <= 1.0, "LhtIndex::erase: key outside [0,1]");
  obs::SpanScope span("lht.erase", "lht");
  auto found = lookupInternal(key);
  if (!found.bucket) found = lookupLinearRef(key);
  checkInvariant(found.bucket != nullptr, "LhtIndex::erase: tree hole");

  index::UpdateResult result;
  result.stats = found.stats;
  chargeInsertion(found.stats.dhtLookups, 0);

  size_t removed = 0;
  size_t remainingEffective = 0;
  Label bucketLabel;
  const u64 token = newToken();
  // Same lookup-vs-apply race as insert: if a concurrent split/merge moved
  // the leaf out from under us, re-resolve and retry instead of removing
  // from (or reporting absence against) the wrong bucket.
  // As in insert, a re-run resets the stale verdict; the removal outputs
  // belong to the run that applies the token.
  for (u32 attempt = 0;; ++attempt) {
    checkInvariant(attempt <= 2 * opts_.maxDepth + 2,
                   "LhtIndex::erase: leaf kept moving under the apply");
    bool stale = false;
    const bool existed = applyBucket(found.dhtKey, [&](std::optional<LeafBucket>& ob) {
      stale = false;
      if (!ob.has_value()) {
        stale = true;
        return false;
      }
      LeafBucket& b = *ob;
      // Token-guarded like insert: a lost-reply retry must neither remove
      // twice (harmless here) nor clobber the outputs of the execution that
      // actually removed the records.
      if (b.hasApplied(token)) return false;
      if (b.frozenDonor() || !b.covers(common::clampToUnit(key))) {
        stale = true;
        return false;
      }
      auto it = std::remove_if(b.records.begin(), b.records.end(),
                               [&](const index::Record& r) { return r.key == key; });
      removed = static_cast<size_t>(b.records.end() - it);
      b.records.erase(it, b.records.end());
      b.markApplied(token);
      b.epoch += 1;
      remainingEffective = b.effectiveSize(opts_.countLabelSlot);
      bucketLabel = b.label;
      return true;
    });
    chargeInsertion(1, 0);
    result.stats.dhtLookups += 1;
    result.stats.parallelSteps += 1;
    if (existed && !stale) break;
    dropCached(found.bucket->label.interval());
    found = lookupInternal(key);
    if (!found.bucket) found = lookupLinearRef(key);
    checkInvariant(found.bucket != nullptr, "LhtIndex::erase: tree hole");
    chargeInsertion(found.stats.dhtLookups, 0);
    result.stats += found.stats;
  }
  recordCount_ -= std::min(removed, recordCount_);
  result.ok = removed > 0;

  if (result.ok && opts_.enableMerge && bucketLabel.length() >= 2 &&
      remainingEffective < opts_.thetaSplit) {
    result.splitOrMerged = tryMerge(bucketLabel);
  }
  noteOp("lht.erase", result.stats);
  return result;
}

bool LhtIndex::tryMerge(const Label& bucketLabel) {
  const Label sib = bucketLabel.sibling();
  // The sibling participates only if it is itself a leaf, i.e. a bucket
  // labelled exactly `sib` sits under name(sib).
  cost::OpStats probe;
  auto sibBucket = getBucketRef(dhtKeyFor(sib), probe);
  chargeMaintenance(probe.dhtLookups, 0);
  if (!sibBucket || sibBucket->label != sib) return false;

  // Refresh our own bucket to get an exact combined size.
  cost::OpStats self;
  auto ownBucket = getBucketRef(dhtKeyFor(bucketLabel), self);
  chargeMaintenance(self.dhtLookups, 0);
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
  checkInvariant(dhtKeyFor(donor.label) != parentKey,
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
    const std::string donorKey = dhtKeyFor(donor.label);
    std::optional<MergeIntent> intent;
    applyBucket(donorKey, [&](std::optional<LeafBucket>& ob) {
      intent.reset();
      if (!ob.has_value()) return false;
      LeafBucket& b = *ob;
      if (b.mergeIntent && b.mergeIntent->token == token) {
        intent = MergeIntent{b.label, b.records, token};  // lost-reply retry
        return false;
      }
      if (!b.clean() || b.label != donor.label) return false;
      b.mergeIntent = MergeIntent{b.label, {}, token};
      b.epoch += 1;
      intent = MergeIntent{b.label, b.records, token};
      return true;
    });
    chargeMaintenance(1, 0);
    if (!intent) return false;
    cost::OpStats st;
    if (!stageMerge(parentKey, absorber.label, *intent, st)) {
      thawDonor(donorKey, token, st);
      return false;
    }
    if (!completeMerge(parentKey, *intent, st)) return false;
    noteMerge();
    return true;
  }

  // Drop the donor (its peer ships the records), then rewrite the absorber
  // in place as the parent leaf.
  std::vector<index::Record> moving;
  applyBucket(dhtKeyFor(donor.label), [&](std::optional<LeafBucket>& ob) {
    checkInvariant(ob.has_value(), "LhtIndex::tryMerge: donor vanished");
    checkInvariant(ob->label == donor.label, "LhtIndex::tryMerge: donor stale");
    moving = std::move(ob->records);
    ob.reset();  // erase
    return true;
  });
  applyBucket(parentKey, [&](std::optional<LeafBucket>& ob) {
    checkInvariant(ob.has_value(), "LhtIndex::tryMerge: absorber vanished");
    ob->label = parent;
    ob->records.insert(ob->records.end(), moving.begin(), moving.end());
    return true;
  });
  chargeMaintenance(2, donor.records.size());
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
  auto found = lookupInternal(key);
  if (!found.bucket) {
    // Same defensive fallback as insert: a null bucket here would read as
    // "key absent", which is an answer, not a shrug — so exhaust the
    // linear walk before claiming it.
    auto linear = lookupLinearRef(key);
    linear.stats += found.stats;
    found = std::move(linear);
  }
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

LhtIndex::BucketRef LhtIndex::fetchSubtreeEntry(const Label& branch,
                                                cost::OpStats& st) {
  // A lookup of the branch label itself reaches the subtree's entry leaf
  // when the branch is internal; when the branch is itself a leaf the
  // lookup fails — the paper's "at most one failed DHT-lookup" — and the
  // leaf sits under its own name instead.
  if (auto entry = getBucketRef(branch.str(), st)) return entry;
  return getBucketRef(dhtKeyFor(branch), st);
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

  // Sweep right: cover (mine.hi, clip.hi) through the right branch nodes
  // beta_1, beta_2, ... of the local tree. All fully covered branches are
  // forwarded in parallel (the local tree names them all at once); only the
  // final, partially covered branch may need the two-step entry.
  if (clip.hi > mine.hi) {
    Label beta = bucket.label;
    while (!beta.isRightmostPath()) {
      beta = rightNeighbor(beta);
      const Interval inv = beta.interval();
      if (inv.lo >= clip.hi) break;
      if (inv.hi <= clip.hi) {
        next.push_back(FanoutTask{beta, inv, true});
      } else {
        next.push_back(FanoutTask{beta, inv.intersect(clip), false});
        break;
      }
    }
  }

  // Sweep left: the mirror image via the left neighbor function.
  if (clip.lo < mine.lo) {
    Label beta = bucket.label;
    while (!beta.isLeftmostPath()) {
      beta = leftNeighbor(beta);
      const Interval inv = beta.interval();
      if (inv.hi <= clip.lo) break;
      if (inv.lo >= clip.lo) {
        next.push_back(FanoutTask{beta, inv, true});
      } else {
        next.push_back(FanoutTask{beta, inv.intersect(clip), false});
        break;
      }
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
  std::vector<FanoutTask> next;
  while (!frontier.empty()) {
    rounds += 1;
    keys.clear();
    for (const auto& t : frontier) {
      keys.push_back(t.underName ? dhtKeyFor(t.branch) : t.branch.str());
    }
    auto replies = dht_.multiGet(keys);
    st.dhtLookups += keys.size();
    u64 stall = 0;  // longest re-resolution chain inside this round
    next.clear();
    for (size_t i = 0; i < frontier.size(); ++i) {
      FanoutTask& t = frontier[i];
      auto& reply = replies[i];
      if (!reply.ok) {
        throw dht::DhtError("LhtIndex: range fan-out entry failed: " + reply.error);
      }
      BucketRef bucket;
      if (reply.value.has_value()) {
        bucket = store_.decode(keys[i], *reply.value);
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

index::FindResult LhtIndex::minRecord() {
  index::FindResult result;
  obs::SpanScope span("lht.minRecord", "lht");
  // Theorem 3: the leaf holding the smallest key is labelled #00* and is
  // therefore named "#": one DHT-lookup.
  auto bucket = getBucketRef("#", result.stats);
  checkInvariant(bucket != nullptr, "minRecord: leftmost leaf missing");
  // Deletions may have emptied the leftmost leaf; sweep right (each hop one
  // further DHT-lookup) until a record shows up.
  while (bucket && bucket->records.empty() && !bucket->label.isRightmostPath()) {
    const Label beta = rightNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, result.stats);
  }
  if (bucket) {
    const index::Record* best = nullptr;
    for (const auto& r : bucket->records) {
      if (best == nullptr || r.key < best->key) best = &r;
    }
    if (best != nullptr) result.record = *best;
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp("lht.minRecord", result.stats);
  return result;
}

index::FindResult LhtIndex::maxRecord() {
  index::FindResult result;
  obs::SpanScope span("lht.maxRecord", "lht");
  // Theorem 3: the leaf holding the largest key is labelled #01* and is
  // therefore named "#0". When the tree is a single leaf no node is named
  // "#0" and the root leaf (under "#") answers instead.
  auto bucket = getBucketRef("#0", result.stats);
  if (!bucket) bucket = getBucketRef("#", result.stats);
  checkInvariant(bucket != nullptr, "maxRecord: rightmost leaf missing");
  while (bucket && bucket->records.empty() && !bucket->label.isLeftmostPath()) {
    const Label beta = leftNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, result.stats);
  }
  if (bucket) {
    const index::Record* best = nullptr;
    for (const auto& r : bucket->records) {
      if (best == nullptr || r.key > best->key) best = &r;
    }
    if (best != nullptr) result.record = *best;
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp("lht.maxRecord", result.stats);
  return result;
}

index::RangeResult LhtIndex::topMin(size_t k) {
  index::RangeResult result;
  if (k == 0) return result;
  obs::SpanScope span("lht.topMin", "lht");
  span.arg("k", static_cast<u64>(k));
  // Sweep leaves left to right: every record in a later bucket is larger
  // than every record in an earlier one, so we may stop as soon as k
  // records are collected.
  auto bucket = getBucketRef("#", result.stats);
  checkInvariant(bucket != nullptr, "topMin: leftmost leaf missing");
  for (;;) {
    result.stats.bucketsTouched += 1;
    for (const auto& r : bucket->records) result.records.push_back(r);
    if (result.records.size() >= k || bucket->label.isRightmostPath()) break;
    const Label beta = rightNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, result.stats);
    checkInvariant(bucket != nullptr, "topMin: broken leaf chain");
  }
  std::sort(result.records.begin(), result.records.end(), index::recordLess);
  if (result.records.size() > k) result.records.resize(k);
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp("lht.topMin", result.stats);
  return result;
}

index::RangeResult LhtIndex::topMax(size_t k) {
  index::RangeResult result;
  if (k == 0) return result;
  obs::SpanScope span("lht.topMax", "lht");
  span.arg("k", static_cast<u64>(k));
  auto bucket = getBucketRef("#0", result.stats);
  if (!bucket) bucket = getBucketRef("#", result.stats);  // single-leaf tree
  checkInvariant(bucket != nullptr, "topMax: rightmost leaf missing");
  for (;;) {
    result.stats.bucketsTouched += 1;
    for (const auto& r : bucket->records) result.records.push_back(r);
    if (result.records.size() >= k || bucket->label.isLeftmostPath()) break;
    const Label beta = leftNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, result.stats);
    checkInvariant(bucket != nullptr, "topMax: broken leaf chain");
  }
  std::sort(result.records.begin(), result.records.end(), index::recordLess);
  if (result.records.size() > k) {
    result.records.erase(result.records.begin(),
                         result.records.end() - static_cast<long>(k));
  }
  result.stats.parallelSteps = result.stats.dhtLookups;
  chargeQuery(result.stats.dhtLookups);
  noteOp("lht.topMax", result.stats);
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

  auto bucket = fromLeft ? getBucketRef("#", result.stats)
                         : getBucketRef("#0", result.stats);
  if (!fromLeft && !bucket) bucket = getBucketRef("#", result.stats);
  checkInvariant(bucket != nullptr, "quantileQuery: end bucket missing");
  for (;;) {
    if (bucket->records.size() > remaining) {
      // The target rank lies in this bucket: order its records locally.
      std::vector<index::Record> recs = bucket->records;
      std::sort(recs.begin(), recs.end(), index::recordLess);
      result.record =
          fromLeft ? recs[remaining] : recs[recs.size() - 1 - remaining];
      break;
    }
    remaining -= bucket->records.size();
    const bool atEnd = fromLeft ? bucket->label.isRightmostPath()
                                : bucket->label.isLeftmostPath();
    checkInvariant(!atEnd, "quantileQuery: ran past the end (count drift)");
    const Label beta = fromLeft ? rightNeighbor(bucket->label)
                                : leftNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, result.stats);
    checkInvariant(bucket != nullptr, "quantileQuery: broken leaf chain");
  }
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
  auto bucket = getBucketRef("#", scratch);
  checkInvariant(bucket != nullptr, "forEachBucket: leftmost leaf missing");
  for (;;) {
    fn(*bucket);
    if (bucket->label.isRightmostPath()) break;
    const Label beta = rightNeighbor(bucket->label);
    bucket = fetchSubtreeEntry(beta, scratch);
    checkInvariant(bucket != nullptr, "forEachBucket: broken leaf chain");
  }
}

}  // namespace lht::core
