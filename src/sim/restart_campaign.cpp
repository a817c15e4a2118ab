#include "sim/restart_campaign.h"

#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "dht/local_dht.h"
#include "exec/linearizability.h"
#include "index/reference_index.h"
#include "lht/lht_index.h"
#include "store/durable_engine.h"

namespace lht::sim {

namespace {

namespace fs = std::filesystem;

using common::u32;
using common::u64;

struct Op {
  bool isInsert = false;
  double key = 0.0;
  std::string payload;
};

/// Same shape as the fault campaign's workload: `inserts` distinct keys,
/// then `erases` of a shuffled subset.
std::vector<Op> makeWorkload(const RestartCampaignConfig& cfg, u64 seed) {
  common::Pcg32 rng(seed, /*stream=*/0x2E57A27u);
  std::vector<Op> ops;
  std::vector<double> keys;
  std::set<double> used;
  while (keys.size() < cfg.inserts) {
    const double k = rng.nextDouble();
    if (k <= 0.0 || k >= 1.0 || !used.insert(k).second) continue;
    keys.push_back(k);
    ops.push_back(Op{true, k, common::numbered("v", keys.size())});
  }
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(static_cast<u32>(i))]);
  }
  for (size_t i = 0; i < std::min(cfg.erases, keys.size()); ++i) {
    ops.push_back(Op{false, keys[i], ""});
  }
  return ops;
}

store::DurableOptions engineOpts(const RestartCampaignConfig& cfg,
                                 const std::string& dir,
                                 store::CrashInjector* injector) {
  store::DurableOptions o;
  o.dir = dir;
  o.segmentBytes = cfg.segmentBytes;
  o.spillValueBytes = cfg.spillValueBytes;
  o.syncEachCommit = true;
  o.physicalFsync = cfg.physicalFsync;
  o.injector = injector;
  return o;
}

core::LhtIndex::Options indexOpts(const RestartCampaignConfig& cfg,
                                  bool attach, u64 clientSeed) {
  core::LhtIndex::Options o;
  o.thetaSplit = cfg.thetaSplit;
  o.crashConsistentSplits = true;
  o.attachExisting = attach;
  o.clientSeed = clientSeed;
  return o;
}

void runOp(core::LhtIndex& idx, const Op& op) {
  if (op.isInsert) {
    idx.insert(index::Record{op.key, op.payload});
  } else {
    idx.erase(op.key);
  }
}

/// Cycle the kill flavor: a clean kill (nothing of the final write lands),
/// then two torn variants persisting different proper prefixes.
double tornFractionFor(u64 boundary) {
  switch (boundary % 3) {
    case 1: return 0.35;
    case 2: return 0.8;
    default: return -1.0;
  }
}

std::string describe(u64 seed, u64 boundary, const std::string& phase) {
  std::ostringstream os;
  os << "seed=" << seed << " boundary=" << boundary << " (" << phase << ")";
  return os.str();
}

/// What the primary (killed) run left behind, logically.
struct PrimaryOutcome {
  bool crashed = false;
  bool bootstrap = false;      ///< killed before the index existed
  bool inCompaction = false;   ///< killed inside compactStorage()
  std::optional<Op> inDoubt;   ///< the op in flight at the kill, if any
  index::ReferenceIndex oracle;
  std::set<double> live;       ///< keys the oracle currently holds
};

/// Replays the workload with `injector` armed; fills `out` with the oracle
/// of every op that definitely completed.
void runPrimary(const RestartCampaignConfig& cfg, const std::string& dir,
                const std::vector<Op>& ops, u64 seed,
                store::CrashInjector& injector, PrimaryOutcome& out) {
  out.bootstrap = true;  // engine construction I/O counts as bootstrap
  try {
    dht::LocalDht store(
        store::makeDurableEngine(engineOpts(cfg, dir, &injector)));
    core::LhtIndex index(store, indexOpts(cfg, /*attach=*/false, seed));
    out.bootstrap = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      out.inDoubt = ops[i];
      runOp(index, ops[i]);
      out.inDoubt.reset();
      if (ops[i].isInsert) {
        out.oracle.insert(index::Record{ops[i].key, ops[i].payload});
        out.live.insert(ops[i].key);
      } else {
        out.oracle.erase(ops[i].key);
        out.live.erase(ops[i].key);
      }
      if (cfg.compactEvery != 0 && (i + 1) % cfg.compactEvery == 0) {
        out.inCompaction = true;
        store.compactStorage();
        out.inCompaction = false;
      }
    }
  } catch (const store::StoreCrashError&) {
    out.crashed = true;
  }
  // A kill landing on the engine's shutdown flush is absorbed by the
  // writer's destructor (best-effort seal); the injector still records it.
  if (injector.crashed()) out.crashed = true;
}

void runSeed(const RestartCampaignConfig& cfg, const std::string& root,
             u64 seed, RestartCampaignReport& report) {
  const std::vector<Op> ops = makeWorkload(cfg, seed);

  // Shadow pass: how many I/O boundaries (writes + fsyncs) the full
  // workload performs. The replay below is deterministic, so boundary k of
  // the shadow run is boundary k of every armed run.
  u64 boundaries = 0;
  {
    const std::string dir = root + "/shadow";
    fs::remove_all(dir);
    store::CrashInjector injector;
    injector.disarm();
    PrimaryOutcome shadow;
    runPrimary(cfg, dir, ops, seed, injector, shadow);
    boundaries = injector.eventsObserved();
    fs::remove_all(dir);
    if (shadow.crashed) {
      report.failures.push_back("seed=" + std::to_string(seed) +
                                ": shadow run crashed with a disarmed injector");
      return;
    }
  }

  for (u64 k = 0; k < boundaries; ++k) {
    const std::string dir = root + "/k" + std::to_string(k);
    fs::remove_all(dir);
    store::CrashInjector injector;
    injector.arm(k, tornFractionFor(k));
    PrimaryOutcome primary;
    runPrimary(cfg, dir, ops, seed, injector, primary);

    const std::string phase =
        primary.bootstrap      ? "bootstrap"
        : primary.inDoubt      ? (primary.inDoubt->isInsert ? "insert"
                                                            : "erase")
        : primary.inCompaction ? "compaction"
                               : "shutdown";
    auto fail = [&](const std::string& what) {
      report.failures.push_back(describe(seed, k, phase) + ": " + what);
    };
    if (!primary.crashed) {
      fail("replay diverged (no crash fired)");
      fs::remove_all(dir);
      continue;
    }
    report.scenarios += 1;
    if (primary.bootstrap) {
      report.bootstrapCrashes += 1;
    } else if (primary.inDoubt) {
      report.opCrashes += 1;
    } else if (primary.inCompaction) {
      report.compactionCrashes += 1;
    } else {
      report.shutdownCrashes += 1;
    }

    // Cold reopen: recovery must repair the directory without help.
    std::unique_ptr<store::DurableEngine> engine;
    try {
      engine = std::make_unique<store::DurableEngine>(
          engineOpts(cfg, dir, nullptr));
    } catch (const store::StoreError& e) {
      fail(std::string("reopen failed: ") + e.what());
      fs::remove_all(dir);
      continue;
    }
    const auto rinfo = engine->recoveryInfo();
    if (rinfo.tornBytesTruncated > 0) report.tornTailRecoveries += 1;
    if (rinfo.usedFallbackSnapshot) report.snapshotFallbacks += 1;
    report.replayedRecords += rinfo.replayedRecords;
    dht::LocalDht store(std::move(engine));

    const u64 salt = (seed << 24) ^ (k << 2) ^ 0x2E57u;
    try {
    if (primary.bootstrap) {
      // The index never finished bootstrapping; a restart legitimately
      // re-bootstraps from scratch (there were no records to lose).
      core::LhtIndex recovered(store, indexOpts(cfg, /*attach=*/false, salt));
      const auto scan = exec::scanAtomicSplits(recovered, {}, {});
      if (!scan.ok) fail("bootstrap rescan: " + scan.explanation);
      fs::remove_all(dir);
      continue;
    }

    core::LhtIndex recovered(store, indexOpts(cfg, /*attach=*/true, salt));

    // Differential check against the oracle. The in-doubt key may have
    // landed either way; every other key must match exactly — and the
    // lookups double as lookup-triggered repair of whatever they touch.
    for (const double key : primary.live) {
      auto expected = primary.oracle.find(key);
      auto got = recovered.find(key);
      if (primary.inDoubt && primary.inDoubt->key == key) {
        if (got.record && expected.record &&
            got.record->payload != expected.record->payload) {
          fail("in-doubt erase left a foreign payload at key " +
               std::to_string(key));
        }
        continue;
      }
      if (!got.record) {
        fail("lost record at key " + std::to_string(key));
      } else if (!expected.record) {
        fail("oracle bookkeeping bug at key " + std::to_string(key));
      } else if (got.record->payload != expected.record->payload) {
        fail("payload mismatch at key " + std::to_string(key));
      }
    }
    if (primary.inDoubt && primary.inDoubt->isInsert &&
        primary.live.count(primary.inDoubt->key) == 0) {
      auto got = recovered.find(primary.inDoubt->key);
      if (got.record && got.record->payload != primary.inDoubt->payload) {
        fail("in-doubt insert resolved to a foreign payload");
      }
    }

    // Converge regions the lookups did not touch, then verify structure:
    // leaves must tile [0, 1) with no intent markers left, and the record
    // set must be bracketed by definite / definite ∪ maybe.
    recovered.repairSweep();
    report.splitRepairs += recovered.repairStats().splitRepairs;
    report.mergeRepairs += recovered.repairStats().mergeRepairs;

    std::set<double> definite = primary.live;
    std::set<double> maybe;
    if (primary.inDoubt) {
      definite.erase(primary.inDoubt->key);
      maybe.insert(primary.inDoubt->key);
    }
    const auto scan = exec::scanAtomicSplits(recovered, definite, maybe);
    if (!scan.ok) fail(scan.explanation);
    } catch (const std::exception& e) {
      fail(std::string("recovery threw: ") + e.what());
    }
    fs::remove_all(dir);
  }
}

}  // namespace

RestartCampaignReport runRestartCampaign(const RestartCampaignConfig& cfg) {
  RestartCampaignReport report;
  const std::string root =
      (cfg.scratchRoot.empty()
           ? (fs::temp_directory_path() / "lht_restart_campaign").string()
           : cfg.scratchRoot);
  for (size_t i = 0; i < cfg.seeds; ++i) {
    const u64 seed = cfg.baseSeed + i;
    const std::string seedRoot = root + "/seed" + std::to_string(seed);
    fs::create_directories(seedRoot);
    runSeed(cfg, seedRoot, seed, report);
    fs::remove_all(seedRoot);
  }
  return report;
}

}  // namespace lht::sim
