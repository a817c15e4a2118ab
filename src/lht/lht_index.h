// LHT — the Low-maintenance Hash Tree index (the paper's core contribution).
//
// The index runs entirely on top of a generic DHT's put/get/apply interface.
// State in the DHT: one entry per leaf bucket, keyed by name(label) (the
// naming function f_n). The empty index is a single leaf "#0" covering
// [0, 1), stored under "#".
//
// Operations (paper sections in brackets):
//  * lookup  [5, Alg. 2]  — binary search over candidate prefix names,
//    ~log(D/2) DHT-lookups; a linear-descent fallback is exposed for the
//    ablation bench.
//  * insert  [5]          — lookup + one DHT apply shipping the record; at
//    most one split per insert (Alg. 1): the split rewrites the bucket
//    locally and pushes exactly one remote child with one DHT-put.
//  * erase               — lookup + apply; may merge the leaf with its
//    sibling (the dual of a split: one child already has the parent's name).
//  * rangeQuery [6, Alg. 3/4] — LCA jump, then parallel forwarding along
//    locally inferred branch nodes, one multiGet round per dependency
//    level; <= B + 3 DHT-lookups for B result buckets. With the leaf
//    cache on and tiling the range, one multiGet of the cached leaves
//    replaces the jump: B DHT-lookups in one round when warm.
//  * min/max [7, Thm. 3]  — a single DHT-lookup of "#" resp. "#0".
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/label.h"
#include "common/random.h"
#include "dht/dht.h"
#include "index/ordered_index.h"
#include "lht/bucket.h"
#include "lht/bucket_op.h"
#include "lht/leaf_cache.h"
#include "net/sim_clock.h"

namespace lht::core {

/// A direction along the key space: the neighbor walks (Def. 3) go one way.
enum class Side : common::u8 { Left, Right };

class LhtIndex final : public index::OrderedIndex {
 public:
  struct Options {
    /// Leaf split threshold theta_split: a leaf splits when its effective
    /// size (records, plus one slot for the label when countLabelSlot)
    /// reaches this value.
    common::u32 thetaSplit = 100;

    /// D: the a-priori maximum tree depth the binary-search lookup assumes
    /// (paper Sec. 5). Must be >= the depth the data actually produces.
    common::u32 maxDepth = 20;

    /// Paper Sec. 9.2 accounting: the leaf label occupies one record slot,
    /// which makes the measured average alpha = 1/2 + 1/(2 theta).
    bool countLabelSlot = true;

    /// Merge two sibling leaves when their combined effective size drops
    /// below thetaSplit (the paper's rule). Set enableMerge=false to
    /// disable structural shrinking entirely.
    bool enableMerge = true;

    /// The paper restricts each insertion to at most one split (Sec. 5),
    /// deferring residual overflow to later inserts. Enabling this lets an
    /// insert split recursively until no bucket is saturated — an ablation
    /// knob (bench/ablation_cascading) trading bounded per-insert cost for
    /// transient overflow. Alpha statistics are only recorded for
    /// single-split inserts, where the paper defines them.
    bool allowCascadingSplits = false;

    /// Crash-consistent structural changes (DESIGN.md "Failure model &
    /// recovery"). When enabled, splits and merges run as explicit state
    /// machines whose intermediate states are always recoverable: the
    /// records being moved are staged in an intent marker inside the
    /// bucket that keeps the parent's DHT key, so a client crash or lost
    /// reply at any step leaves enough state in the DHT for any later
    /// reader to finish the job (lookup-triggered repair). Costs one
    /// extra DHT-lookup per split (3 instead of 2 writes) and two extra
    /// per merge. Off by default to keep the paper's cost figures exact.
    bool crashConsistentSplits = false;

    /// Client-side leaf-location cache (off by default): remembers which
    /// leaf label last covered each key interval, validated by the fetched
    /// bucket itself, so a repeat lookup costs ~1 DHT-lookup instead of
    /// Algorithm 2's ~log2(D/2). A range query whose interval the cached
    /// leaves tile fetches them all in one round instead of running
    /// Alg. 4's jump and Alg. 3's rounds. Stale entries are detected and
    /// invalidated, never trusted. It holds kCacheCapacity entries.
    bool useLeafCache = false;

    /// Lease-based replicated reads (off by default; needs useLeafCache
    /// and a substrate with replicaFanout() >= 1). Every clean leaf
    /// observed by a primary read becomes a read lease: for leaseTtlMs on
    /// leaseClock, lookups covered by the cached entry rotate over the
    /// leaf's replica holders and its primary owner, and a replica bucket
    /// is served only when its epoch EQUALS the leased epoch. Any insert,
    /// split, or merge bumps the leaf epoch, so a lagging replica can
    /// never satisfy a lease — an epoch mismatch revokes the lease and
    /// the read re-anchors at the primary, which re-grants at the new
    /// epoch. Replica-read failures (dead holder) revoke the lease the
    /// same way dead-owner reads drop cached locations. Lease reads are
    /// priced like any other DHT-lookup in the Ψ meters but are surfaced
    /// under dht.lease.* — they never touch the dht.<op>.logical ledger
    /// (they route through getReplica, which the retry layer does not
    /// own; same rule as PR6 rescue reads).
    bool leasedReads = false;
    common::u64 leaseTtlMs = 200;
    /// Time source for lease expiry. nullptr pins "now" at 0: leases then
    /// never expire by time and only epoch validation bounds staleness
    /// (fine for single-clock tests; fleets wire the per-client clock).
    net::SimClock* leaseClock = nullptr;

    /// Access-frequency-adaptive splits (off by default): the client
    /// counts lookups per leaf (halved every 4096 to track the recent
    /// window); a leaf that has absorbed >= hotLeafReads of them is *hot*
    /// and splits at max(2, thetaSplit / hotSplitDivisor) instead of
    /// thetaSplit, so persistently hot leaves fragment earlier and their
    /// load spreads across more owners. Alpha statistics are not recorded
    /// for early (hot-triggered) splits — the paper defines them at
    /// theta-triggered splits only.
    bool adaptiveSplits = false;
    common::u32 hotLeafReads = 64;
    common::u32 hotSplitDivisor = 4;

    /// Cache decoded buckets client-side keyed by DHT key, revalidated by
    /// content digest (off by default). Removes the deserialize-per-read
    /// wall-clock cost, lets every read send a conditional read that skips
    /// shipping an unchanged bucket, and lets a write start from the held
    /// bucket with no read at all; mutators copy-on-write.
    bool cacheDecodedBuckets = false;

    /// Reattach a client to an index that already lives in the DHT
    /// instead of bootstrapping a fresh root leaf. recordCount() is
    /// client-local and restarts at zero.
    bool attachExisting = false;

    /// Stream for this client's idempotence tokens. Two clients (or a
    /// client and its post-crash successor) must use different seeds so
    /// their tokens never collide inside a bucket's applied-op window.
    common::u64 clientSeed = 1;
  };

  /// The index takes a reference to its substrate; the caller owns the DHT.
  /// Seeds the root leaf via an unaccounted bootstrap write.
  LhtIndex(dht::Dht& dht, Options options);

  // OrderedIndex ------------------------------------------------------------
  index::UpdateResult insert(const index::Record& record) override;
  index::UpdateResult erase(double key) override;
  index::FindResult find(double key) override;
  index::RangeResult rangeQuery(double lo, double hi) override;
  index::FindResult minRecord() override { return endRecord(Side::Left); }
  index::FindResult maxRecord() override { return endRecord(Side::Right); }
  [[nodiscard]] size_t recordCount() const override { return recordCount_; }

  // Extensions beyond the paper's operation set -----------------------------

  /// Bulk loading: inserts a batch in one pass. Records are sorted and
  /// grouped by target leaf, so each touched leaf costs one lookup + one
  /// apply regardless of how many records land in it; saturated leaves
  /// split *recursively* on the storing peer (each produced remote bucket
  /// still costs exactly one DHT-put, preserving the Theorem 2 economy).
  /// Far cheaper than record-at-a-time insertion for large batches. The
  /// leaf lookups run one by one (cache-accelerated); then ONE multiApply
  /// round ships every group and ONE more writes every split-off child.
  index::UpdateResult insertBatch(std::vector<index::Record> records);

  /// The record with the smallest key >= `key` (nullopt if none). Costs a
  /// lookup plus one neighbor hop per empty leaf crossed.
  index::FindResult successorQuery(double key) {
    return neighborQuery(key, Side::Right);
  }

  /// The record with the largest key < `key` (nullopt if none).
  index::FindResult predecessorQuery(double key) {
    return neighborQuery(key, Side::Left);
  }

  /// The k smallest / largest records, ascending by key (fewer when the
  /// index holds fewer). Generalizes Theorem 3: the sweep starts at the
  /// one-lookup min/max bucket and only crosses as many neighbor subtrees
  /// as the answer spans.
  index::RangeResult topMin(size_t k) { return topK(k, Side::Left); }
  index::RangeResult topMax(size_t k) { return topK(k, Side::Right); }

  /// The record at rank floor(q * (n-1)) by key order (q in [0, 1]): an
  /// exact quantile. LHT keeps no rank information on internal nodes (they
  /// are never materialized), so this honestly costs one DHT-lookup per
  /// bucket crossed from the nearer end — O(min(q, 1-q) * B). nullopt on an
  /// empty index.
  index::FindResult quantileQuery(double q);

  // LHT-specific observability ----------------------------------------------
  struct LookupOutcome {
    std::optional<LeafBucket> bucket;  ///< the leaf covering the key
    std::string dhtKey;                ///< the name it is stored under
    cost::OpStats stats;
  };

  /// Algorithm 2: binary search on candidate prefix names.
  LookupOutcome lookup(double key);

  /// Ablation baseline: tries every distinct candidate name from the root
  /// down (O(D/2) DHT-lookups, always correct). Not used by the protocol.
  LookupOutcome lookupLinear(double key);

  /// Visits every leaf bucket left-to-right by chaining neighbor lookups
  /// (min bucket first). Intended for tests and diagnostics; does not
  /// touch the meters.
  void forEachBucket(const std::function<void(const LeafBucket&)>& fn);

  // Resilience --------------------------------------------------------------

  /// Repair accounting (see repairSweep / the intent machinery).
  struct RepairStats {
    common::u64 splitRepairs = 0;   ///< half-finished splits completed
    common::u64 mergeRepairs = 0;   ///< half-finished merges completed
    common::u64 holeProbes = 0;     ///< linear probes run for missing leaves
  };
  [[nodiscard]] const RepairStats& repairStats() const { return repairStats_; }

  /// Walks the whole key space with ordinary lookups, completing every
  /// half-finished split/merge encountered (lookup-triggered repair is
  /// also performed opportunistically by every normal operation; this
  /// sweep guarantees even regions holding no records converge). Returns
  /// the number of repairs completed.
  size_t repairSweep();

  /// Bounded, resumable slice of repairSweep for an anti-entropy scheduler:
  /// walks at most `maxBuckets` leaves forward from `cursor` (a key in
  /// [0, 1]), completing any half-finished split/merge encountered, and
  /// advances `cursor` to the upper bound of the last leaf visited. The
  /// sweep is complete once `cursor` reaches 1.0; restart it at 0.0.
  /// Returns the number of repairs completed in this slice.
  size_t repairSweepStep(double& cursor, size_t maxBuckets);

  [[nodiscard]] const Options& options() const { return opts_; }

  /// Client-side cache observability (tests, benches).
  [[nodiscard]] LeafCache& leafCache() { return leafCache_; }
  [[nodiscard]] const BucketStore& bucketStore() const { return store_; }

 private:
  using BucketRef = BucketStore::Ref;

  /// Internal lookup currency: a shared immutable view of the found
  /// bucket (no copy per probe). The public LookupOutcome copies once at
  /// the API boundary.
  struct LookupRef {
    BucketRef bucket;
    std::string dhtKey;
    cost::OpStats stats;
  };
  static LookupOutcome toOutcome(LookupRef&& ref);

  /// One accounted DHT get, decoding through the bucket store and noting
  /// observed clean leaves in the location cache. The get carries the
  /// digest of the store's copy, so a bucket that has not changed comes
  /// back without its bytes (DESIGN.md §8).
  BucketRef getBucketRef(const std::string& key, cost::OpStats& st);

  /// One conditional multiGet round of `keys`; `held` gets the store's
  /// copy of each, which bucketOf() needs to read the outcomes.
  std::vector<dht::GetOutcome> readRound(const std::vector<std::string>& keys,
                                         std::vector<BucketStore::Held>& held);
  /// The bucket a read of `key` returned: the held copy when it came back
  /// unchanged, the decoded value otherwise, nullptr when absent.
  BucketRef bucketOf(const std::string& key, const dht::GetOutcome& got,
                     const BucketStore::Held& held);

  /// One dht_.apply of `op` on `key`, through the one generic mutator
  /// (lht_index.cpp): decode via the bucket store, keepRun's rule. With a
  /// `start`, the bucket the caller holds for `key`, it is an applyFrom
  /// of its bytes, which skips the read when the copy is current.
  BucketOpResult applyOp(const std::string& key, const BucketOp& op,
                         const LeafBucket* start);

  /// One dht_.multiApply round of every op; `kept` gets one result each.
  struct KeyedOp { std::string key; BucketOp op; };
  std::vector<dht::ApplyOutcome> applyOps(const std::vector<KeyedOp>& ops,
                                          std::vector<BucketOpResult>& kept);

  /// One step of a split or merge: applyOp from the store's copy of `key`
  /// when it holds one, charged as one maintenance DHT-lookup and counted
  /// into `st`.
  BucketOpResult applyStep(const std::string& key, const BucketOp& op,
                           cost::OpStats& st);

  /// Records an observed clean leaf in the location cache; with
  /// leasedReads this also grants/renews a read lease on the entry.
  void noteLeaf(const LeafBucket& bucket);
  /// Invalidates location-cache entries overlapping `iv` (after a
  /// split/merge whose old leaves covered it).
  void dropCached(const common::Interval& iv);

  /// "Now" on the lease clock (0 without one — leases never time out).
  [[nodiscard]] common::u64 leaseNowMs() const;
  /// Whether `e` authorizes a replica-served read right now. Expired
  /// leases are revoked (and counted) as a side effect.
  bool leaseUsable(const LeafCache::Entry& e);
  /// One turn of the lease protocol for the cached leaf stored under
  /// `nm`: rotates over the replica holders and the primary; on a replica
  /// turn issues one accounted getReplica and serves the bucket iff it is
  /// clean, covers `key`, and its epoch equals the leased epoch. Returns
  /// nullptr when the turn belongs to the primary or the lease died
  /// (stale epoch, dead holder) — the caller then reads the primary,
  /// which re-grants.
  BucketRef tryLeaseRead(const std::string& nm, const LeafCache::Entry& lease,
                         double key, cost::OpStats& st);

  /// Access-frequency tracking for adaptive splits: bumps the leaf's read
  /// count (halving all counts every 4096 to keep a recent window).
  void noteLeafRead(const std::string& dhtKey);
  [[nodiscard]] bool leafIsHot(const std::string& dhtKey) const;

  /// Shared walk for find/insert target resolution. With `heldSuffices`
  /// (a write's first try), a cached leaf the bucket store holds clean,
  /// under the cached label and covering the key, is returned with no
  /// read: the write's CAS validates it.
  LookupRef lookupInternal(double key, bool heldSuffices = false);
  LookupRef lookupLinearRef(double key);
  /// lookupInternal, falling back to the linear walk when it finds no
  /// covering leaf; the stats count both walks.
  LookupRef resolveLeaf(double key, bool heldSuffices = false);

  /// Insert's and erase's write loop: resolves the leaf covering `key`
  /// (a warm first try takes the held copy, with no read), applies the op
  /// `opFor` builds for its DHT key starting from that bucket, and
  /// re-resolves while the op finds the leaf stale; charges every lookup
  /// and apply to the insertion meter and `st`. Returns the leaf that took
  /// the op and what its apply kept. `hole` and `moving` are the invariant
  /// messages for an uncovered key and for a leaf that kept moving.
  struct LeafWrite { LookupRef leaf; BucketOpResult result; };
  template <typename OpForLeaf>  // BucketOp(const std::string& leafKey)
  LeafWrite writeLeaf(double key, const OpForLeaf& opFor, const char* hole,
                      const char* moving, cost::OpStats& st);

  /// One pending forward of Algorithm 3: a branch node to enter, the
  /// range clip to apply there, and where its entry leaf is stored. A
  /// fully covered branch is entered under name(branch) (guaranteed to
  /// exist), as is a cached leaf of a planned range. The final, partially
  /// covered branch is entered under the branch label itself, with one
  /// possible failed lookup, after which underName is set and it is
  /// re-fetched under name(branch) in the next round.
  struct FanoutTask {
    Label branch;
    common::Interval clip;
    bool underName = false;
  };

  /// A range answer under assembly, one key-ordered piece per expanded
  /// bucket (defined in lht_index.cpp).
  class RangeAnswer;

  /// Adds bucket ∩ clip to `out` as one piece and enqueues the branch
  /// nodes the bucket forwards the rest of the clip to (Alg. 3, both
  /// sweep directions; a pure local-tree computation, no DHT traffic).
  void expandBucket(const LeafBucket& bucket, const common::Interval& clip,
                    std::vector<FanoutTask>& next, RangeAnswer& out,
                    cost::OpStats& st);

  /// Alg. 3/4's parallel forwarding: lockstep breadth-first rounds over
  /// the frontier, one multiGet per round, so the critical path is one
  /// round-trip per dependency level. Each final partial branch may cost
  /// one failed probe, retried under its name in the next round. An entry
  /// leaf that moved (its name is gone, or holds a leaf wholly outside
  /// the clip) is re-resolved through the repairing lookup. Returns the
  /// number of rounds on the critical path.
  common::u64 runFanoutRounds(std::vector<FanoutTask> frontier,
                              RangeAnswer& out, cost::OpStats& st);

  /// The order-statistic queries' leaf walk (Theorem 3): the leftmost or
  /// rightmost leaf, and the next leaf toward `side` (nullptr past the
  /// last, or for a neighbor subtree with no entry leaf unless `broken`
  /// names the invariant that fails instead).
  BucketRef fetchEndLeaf(Side side, cost::OpStats& st);
  BucketRef stepLeaf(const LeafBucket& from, Side side, cost::OpStats& st,
                     const char* broken = nullptr);
  /// successor/predecessorQuery, min/maxRecord and topMin/Max by side.
  index::FindResult neighborQuery(double key, Side side);
  index::FindResult endRecord(Side side);
  index::RangeResult topK(size_t k, Side side);

  /// Concurrency fallback for the range fan-out: when a branch's
  /// entry-leaf probe misses because another client split or merged it
  /// mid-query, re-resolves through the repairing lookup (which also
  /// finishes any half-done structural change in the way) and returns the
  /// leaf covering the clip's lower bound. Raises `hops` to at least the
  /// lookup's critical path (re-resolutions within one round overlap).
  BucketRef resolveRangeEntry(const common::Interval& clip, common::u64& hops,
                              cost::OpStats& st);

  /// Every distinct candidate prefix name of `key` (Alg. 2's probe set),
  /// root first: the leaf covering the key is stored under one of them,
  /// and so is any intent-holder responsible for a hole there.
  [[nodiscard]] std::vector<std::string> candidateNames(double key) const;

  /// The longest dyadic label whose interval contains [range.lo, range.hi).
  [[nodiscard]] Label computeLca(const common::Interval& range) const;

  /// Attempts the sibling merge after an erase. `bucketLabel` is the leaf
  /// the erase landed in. Counted under meters_.maintenance.
  bool tryMerge(const Label& bucketLabel);

  /// A fresh, never-zero idempotence token from this client's stream.
  common::u64 newToken();

  // Single instrumentation path for the paper's cost categories: every
  // charge lands in meters_ AND mirrors into the ambient obs registry
  // under "lht.cost.<category>.<field>", so the closed-form Ψ can be
  // checked against either view. Splits/merges additionally emit trace
  // events.
  void chargeInsertion(common::u64 lookups, common::u64 recordsMoved);
  void chargeMaintenance(common::u64 lookups, common::u64 recordsMoved);
  void chargeQuery(common::u64 lookups);
  void noteSplit();
  void noteMerge();
  void recordAlpha(double alpha);
  /// Per-op metrics under `op` (e.g. "lht.find"): a ".count" counter and
  /// ".dht_lookups"/".rounds" histograms. No-op when metrics are off.
  void noteOp(const char* op, const cost::OpStats& st);

  /// Completes the split recorded in `intent` for the staying bucket
  /// stored under `stayingKey`: writes the moved child (create-if-absent,
  /// never clobbers), then clears the intent. Idempotent; safe to re-run
  /// after lost replies or by a different client. Lookups are counted
  /// into `st` and meters_.maintenance.
  void completeSplit(const std::string& stayingKey, const SplitIntent& intent,
                     cost::OpStats& st);

  /// Completes the merge recorded in the absorber stored under
  /// `absorberKey`: deletes the donor while it is still frozen by the
  /// intent's token, then commits the absorber as the parent leaf. A donor
  /// thawed in the meantime calls the merge off and the absorber drops the
  /// intent instead. Idempotent; returns whether the merge happened.
  bool completeMerge(const std::string& absorberKey, const MergeIntent& intent,
                     cost::OpStats& st);

  /// Steps 2-4 of a merge whose donor is frozen by `intent`: stages it in
  /// the absorber and completes the merge, or thaws the donor when the
  /// absorber is no longer the clean leaf `absorberLabel`. Returns whether
  /// the merge happened.
  bool mergeFrozenDonor(const std::string& donorKey, const std::string& absorberKey,
                        const Label& absorberLabel, const MergeIntent& intent,
                        cost::OpStats& st);

  /// Completes any intent carried by `bucket` (stored under `key`).
  /// Returns true when a repair ran.
  bool repairBucket(const std::string& key, const LeafBucket& bucket,
                    cost::OpStats& st);

  /// Last-resort repair discovery for a key the binary search could not
  /// place: probes every candidate prefix name of `key` and repairs any
  /// intent found. Returns true when something was repaired (the caller
  /// should restart its search).
  bool repairProbe(double key, cost::OpStats& st);

  /// One multiGet of every candidate name of `key`: repairs each unclean
  /// bucket and reports the leaf covering the key (`retryFailed`: re-read a
  /// failed entry on its own).
  struct ProbeRound { bool repaired = false, anyFailed = false; BucketRef covering; };
  ProbeRound probeCandidates(double key, bool retryFailed, cost::OpStats& st);

  /// Entries the leaf cache and the decoded-bucket store each hold.
  static constexpr size_t kCacheCapacity = 4096;

  dht::Dht& dht_;
  Options opts_;
  size_t recordCount_ = 0;
  common::Pcg32 tokenRng_;
  RepairStats repairStats_;
  BucketStore store_;
  LeafCache leafCache_;
  /// Per-leaf lookup counts (adaptive splits), keyed by DHT key; halved
  /// wholesale every 4096 observations so heat tracks the recent window.
  std::unordered_map<std::string, common::u32> leafReads_;
  common::u64 leafReadsSinceDecay_ = 0;
};

}  // namespace lht::core
