#include "sim/fault_campaign.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "dht/decorators.h"
#include "dht/local_dht.h"
#include "lht/lht_index.h"

namespace lht::sim {

namespace {

using common::u32;
using common::u64;

struct Op {
  bool isInsert = false;
  double key = 0.0;
  std::string payload;
};

/// `inserts` distinct keys, then `erases` of a shuffled subset — enough
/// erases concentrated by shuffling that sibling leaves drain and merge.
std::vector<Op> makeWorkload(const FaultCampaignConfig& cfg, u64 seed) {
  common::Pcg32 rng(seed, /*stream=*/0xFA17u);
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

core::LhtIndex::Options indexOpts(const FaultCampaignConfig& cfg, bool attach,
                                  u64 clientSeed) {
  core::LhtIndex::Options o;
  o.thetaSplit = cfg.thetaSplit;
  o.crashConsistentSplits = true;
  o.attachExisting = attach;
  o.clientSeed = clientSeed;
  o.useLeafCache = cfg.useLeafCache;
  o.cacheDecodedBuckets = cfg.cacheDecodedBuckets;
  return o;
}

dht::RetryingDht::Options retryOpts(const FaultCampaignConfig& cfg, u64 seed) {
  dht::RetryingDht::Options o;
  o.maxAttempts = cfg.maxAttempts;
  o.seed = seed;
  return o;
}

/// The client under test: lost replies injected under the retry layer,
/// CrashDht outermost so a "write" means one completed index protocol step
/// regardless of how many retries it took underneath.
struct ClientStack {
  dht::FaultDht lossy;
  dht::RetryingDht retrying;
  dht::CrashDht crash;
  core::LhtIndex index;

  ClientStack(dht::Dht& store, const FaultCampaignConfig& cfg, u64 lossSeed,
              core::LhtIndex::Options opts)
      : lossy(store, dht::FaultDht::Point::Reply, cfg.lostReplyRate, lossSeed),
        retrying(lossy, retryOpts(cfg, lossSeed ^ 0x5EEDu)),
        crash(retrying),
        index(crash, opts) {}
};

void runOp(core::LhtIndex& idx, const Op& op) {
  if (op.isInsert) {
    idx.insert(index::Record{op.key, op.payload});
  } else {
    idx.erase(op.key);
  }
}

void applyToOracle(std::map<double, std::string>& oracle, const Op& op) {
  if (op.isInsert) {
    oracle[op.key] = op.payload;
  } else {
    oracle.erase(op.key);
  }
}

struct Scenario {
  size_t opIdx = 0;
  size_t crashStep = 0;  ///< writes allowed before the client dies
  bool isSplit = false;  ///< split vs merge in flight at the kill
};

std::string describe(u64 seed, const Scenario& s) {
  std::ostringstream os;
  os << "seed=" << seed << " op=" << s.opIdx << " ("
     << (s.isSplit ? "split" : "merge") << ") crashStep=" << s.crashStep;
  return os.str();
}

/// Recovers with a fresh client and verifies the index against the oracle.
/// Appends failure descriptions to `report`.
void recoverAndVerify(dht::LocalDht& store, const FaultCampaignConfig& cfg,
                      const std::map<double, std::string>& oracle, u64 seed,
                      const Scenario& s, u64 scenarioSalt,
                      FaultCampaignReport& report) {
  dht::FaultDht lossy(store, dht::FaultDht::Point::Reply, cfg.lostReplyRate,
                      scenarioSalt ^ 0xDEADu);
  dht::RetryingDht retrying(lossy, retryOpts(cfg, scenarioSalt ^ 0xBEEFu));
  core::LhtIndex recovered(
      retrying, indexOpts(cfg, /*attach=*/true,
                          /*clientSeed=*/scenarioSalt ^ 0xC0FFEEu));

  auto fail = [&](const std::string& what) {
    report.failures.push_back(describe(seed, s) + ": " + what);
  };

  // Ordinary traffic first: every live key must be findable, and the
  // lookups opportunistically repair whatever they touch.
  for (const auto& [key, payload] : oracle) {
    auto found = recovered.find(key);
    if (!found.record) {
      fail("lost record at key " + std::to_string(key));
    } else if (found.record->payload != payload) {
      fail("wrong payload at key " + std::to_string(key));
    }
  }

  // Then converge the rest of the key space (regions with no records to
  // look up still may hold a half-finished structural change).
  recovered.repairSweep();
  report.splitRepairs += recovered.repairStats().splitRepairs;
  report.mergeRepairs += recovered.repairStats().mergeRepairs;
  report.lostRepliesInjected += lossy.injected();

  // Exhaustive walk: exactly the oracle's records, each exactly once, and
  // no intent marker left anywhere.
  std::map<double, std::vector<std::string>> walked;
  recovered.forEachBucket([&](const core::LeafBucket& b) {
    if (!b.clean()) fail("unclean bucket " + b.label.str() + " after repair");
    for (const auto& r : b.records) walked[r.key].push_back(r.payload);
  });
  for (const auto& [key, payloads] : walked) {
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      fail("resurrected/duplicated key " + std::to_string(key));
    } else if (payloads.size() != 1) {
      fail("key " + std::to_string(key) + " stored " +
           std::to_string(payloads.size()) + " times");
    } else if (payloads.front() != it->second) {
      fail("payload mismatch at key " + std::to_string(key));
    }
  }
  if (walked.size() != oracle.size()) {
    fail("index holds " + std::to_string(walked.size()) + " keys, oracle " +
         std::to_string(oracle.size()));
  }
}

void runSeed(const FaultCampaignConfig& cfg, u64 seed,
             FaultCampaignReport& report) {
  const std::vector<Op> ops = makeWorkload(cfg, seed);

  // Shadow pass: which ops change structure, and how many client-visible
  // DHT writes each of them takes.
  std::vector<Scenario> scenarios;
  {
    dht::LocalDht store;
    ClientStack client(store, cfg, /*lossSeed=*/seed,
                       indexOpts(cfg, /*attach=*/false, /*clientSeed=*/seed));
    for (size_t i = 0; i < ops.size(); ++i) {
      const auto before = client.index.meters().maintenance;
      client.crash.resetWriteCount();
      runOp(client.index, ops[i]);
      const auto& after = client.index.meters().maintenance;
      const size_t writes = client.crash.writesCompleted();
      const bool split = after.splits > before.splits;
      const bool merge = after.merges > before.merges;
      if (!split && !merge) continue;
      for (size_t k = 0; k < writes; ++k) {
        scenarios.push_back(Scenario{i, k, split});
      }
    }
    report.lostRepliesInjected += client.lossy.injected();
  }

  // Crash pass: one full deterministic replay per scenario, killed at the
  // chosen step, recovered by a different client, verified.
  for (const Scenario& s : scenarios) {
    dht::LocalDht store;
    ClientStack client(store, cfg, /*lossSeed=*/seed,
                       indexOpts(cfg, /*attach=*/false, /*clientSeed=*/seed));
    std::map<double, std::string> oracle;
    for (size_t i = 0; i < s.opIdx; ++i) {
      runOp(client.index, ops[i]);
      applyToOracle(oracle, ops[i]);
    }

    client.crash.armAfterWrites(s.crashStep);
    bool crashed = false;
    try {
      runOp(client.index, ops[s.opIdx]);
    } catch (const dht::CrashError&) {
      crashed = true;
    }
    if (!crashed) {
      report.failures.push_back(describe(seed, s) +
                                ": replay diverged (no crash fired)");
      continue;
    }
    // The operation's own record effect rides on its *first* write; with
    // at least one write through, the logical op is applied even though
    // the structural change is stranded mid-protocol.
    if (s.crashStep >= 1) applyToOracle(oracle, ops[s.opIdx]);

    report.scenarios += 1;
    (s.isSplit ? report.splitCrashes : report.mergeCrashes) += 1;
    report.lostRepliesInjected += client.lossy.injected();

    const u64 salt = (seed << 20) ^ (static_cast<u64>(s.opIdx) << 8) ^
                     static_cast<u64>(s.crashStep) ^ 0x5A17u;
    recoverAndVerify(store, cfg, oracle, seed, s, salt, report);
  }
}

}  // namespace

FaultCampaignReport runFaultCampaign(const FaultCampaignConfig& cfg) {
  FaultCampaignReport report;
  for (size_t i = 0; i < cfg.seeds; ++i) {
    runSeed(cfg, cfg.baseSeed + i, report);
  }
  return report;
}

}  // namespace lht::sim
