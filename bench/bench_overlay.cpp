// Emits BENCH_PR10.json: the self-routing overlay's cost profile
// (DESIGN.md §15).
//
// Every phase runs against REAL overlay daemons — fork/exec'd lht_noded
// processes on localhost UDP, grown from one seed exactly
// the way scripts/run_cluster.sh deploys them — driven by a RoutedNetDht
// client that knows only the seed address:
//   * warm_routing — mixed KV workload (oracle-verified), then a
//     measured read sweep over a settled view: warm lookups must route
//     straight to their owner (mean hops <= 1.2, the ISSUE gate).
//   * live_join   — a new daemon joins the LIVE cluster while the client
//     hammers reads of the preloaded records; availability during the
//     join (+ view heal) must stay >= 0.99.
//   * graceful_leave — SIGUSR1 one member (stream keys out, announce
//     Left, exit); afterwards every record the oracle holds must still
//     read back: lost_keys == 0 through the whole grow/shrink story.
//
// Gates (checked here and by scripts/diff_bench.py):
//   * warm mean hops <= 1.2;
//   * read availability during the live join >= 0.99;
//   * lost_keys == 0 after join AND after leave;
//   * every phase's oracle verification passes.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "common/flags.h"
#include "common/random.h"
#include "dht/routed_net_dht.h"
#include "rpc/noded_process.h"
#include "rpc/udp_transport.h"

using lht::common::u64;
using lht::dht::RoutedNetDht;
using lht::rpc::NodedProcess;
namespace rpc = lht::rpc;

namespace {

/// One read attempt, churn-tolerant accounting: correct value = available,
/// anything else (miss, stale, DhtError) = an unavailable sample.
bool readOk(RoutedNetDht& dht, const std::string& key,
            const std::string& expect) {
  try {
    auto got = dht.get(key);
    return got.has_value() && *got == expect;
  } catch (const lht::dht::DhtError&) {
    return false;
  }
}

/// Retry-until-deadline read: only a key still wrong at the deadline is
/// actually lost (the run_cluster.sh verify model).
bool eventuallyReads(RoutedNetDht& dht, const std::string& key,
                     const std::string& expect, int deadlineSeconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadlineSeconds);
  while (std::chrono::steady_clock::now() < deadline) {
    if (readOk(dht, key, expect)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

struct WorkloadResult {
  u64 ops = 0;
  u64 opsFailed = 0;
  double nsPerOp = 0.0;
  double opsPerSec = 0.0;
  bool oracleOk = false;
};

/// Mixed KV trace (50% get / 30% put / 20% apply) over a bounded
/// keyspace, oracle-verified afterwards. Deterministic per seed.
WorkloadResult runWorkload(RoutedNetDht& dht, u64 ops, u64 seed,
                           std::map<std::string, std::string>& oracle) {
  lht::common::Pcg32 rng(seed);
  const size_t keyspace = 512;
  for (size_t i = 0; i < keyspace; i += 2) {
    const std::string k = lht::common::numbered("k", i);
    const std::string v = lht::common::numbered("v", i);
    dht.put(k, v);
    oracle[k] = v;
  }

  WorkloadResult res;
  res.ops = ops;
  const auto start = std::chrono::steady_clock::now();
  for (u64 i = 0; i < ops; ++i) {
    const std::string k = lht::common::numbered("k", rng.below(keyspace));
    const u64 dice = rng.below(10);
    try {
      if (dice < 5) {
        auto got = dht.get(k);
        auto it = oracle.find(k);
        const bool want = it != oracle.end();
        if (got.has_value() != want || (want && *got != it->second)) {
          res.opsFailed += 1;
        }
      } else if (dice < 8) {
        const std::string v = lht::common::numbered("w", i);
        dht.put(k, v);
        oracle[k] = v;
      } else {
        dht.apply(k, [](std::optional<lht::dht::Value>& v) {
          v = v.value_or("") + "+";
        });
        oracle[k] += "+";
      }
    } catch (const lht::dht::DhtError&) {
      res.opsFailed += 1;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  res.nsPerOp = ns / static_cast<double>(ops);
  res.opsPerSec = ops / (ns / 1e9);

  res.oracleOk = res.opsFailed == 0;
  for (const auto& [k, v] : oracle) {
    auto got = dht.get(k);
    if (!got.has_value() || *got != v) {
      res.oracleOk = false;
      break;
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  lht::common::Flags flags(
      "bench_overlay",
      "Emits BENCH_PR10.json: warm routing hops, availability during a "
      "live join, and zero-loss grow/shrink over real overlay daemons.");
  flags.define("nodes", "8", "initial cluster size");
  flags.define("ops", "3000", "mixed workload operations (warm phase)");
  flags.define("replication", "2", "copies per key (overlay + client)");
  flags.define("seed", "42", "workload seed");
  flags.define("out", "BENCH_PR10.json", "output path");
  if (!flags.parse(argc, argv)) return 2;

  const size_t nodes = static_cast<size_t>(flags.getInt("nodes"));
  const u64 ops = static_cast<u64>(flags.getInt("ops"));
  const size_t replication = static_cast<size_t>(flags.getInt("replication"));
  const u64 seed = static_cast<u64>(flags.getInt("seed"));

  const std::string noded = rpc::findNoded();
  if (noded.empty()) {
    std::fprintf(stderr,
                 "bench_overlay: lht_noded binary not found (build it, or "
                 "set LHT_NODED_PATH)\n");
    return 1;
  }

  const std::string repFlag = "--replication=" + std::to_string(replication);
  auto overlayArgs = [&](size_t i, rpc::u16 seedPort) {
    std::vector<std::string> args = {"--port=0", "--quiet=true", repFlag,
                                     "--name=bench-" + std::to_string(i)};
    if (seedPort != 0) {
      args.push_back("--seed-port=" + std::to_string(seedPort));
    }
    return args;
  };

  // Grow the cluster from one seed, the run_cluster.sh way. The daemons
  // stop when `daemons` goes out of scope.
  std::vector<NodedProcess> daemons;
  daemons.push_back(NodedProcess::spawn(noded, overlayArgs(0, 0)));
  if (!daemons[0].running()) {
    std::fprintf(stderr, "bench_overlay: failed to spawn the seed daemon\n");
    return 1;
  }
  for (size_t i = 1; i < nodes; ++i) {
    daemons.push_back(
        NodedProcess::spawn(noded, overlayArgs(i, daemons[0].port())));
    if (!daemons.back().running()) {
      std::fprintf(stderr, "bench_overlay: failed to spawn a member daemon\n");
      return 1;
    }
  }

  RoutedNetDht::Options ro;
  ro.seed = daemons[0].addr();
  ro.replication = replication;
  RoutedNetDht dht(ro, [] {
    return std::make_unique<rpc::UdpTransport>(rpc::UdpTransport::Options{});
  });
  // The members may still be mid-join: retry the bootstrap until the
  // client's view holds the whole launch set.
  const auto formDeadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (dht.knownMembers() < nodes &&
         std::chrono::steady_clock::now() < formDeadline) {
    dht.bootstrap(/*deadlineMs=*/2000);
    if (dht.knownMembers() < nodes) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (dht.knownMembers() < nodes) {
    std::fprintf(stderr, "bench_overlay: cluster never formed (%zu/%zu)\n",
                 dht.knownMembers(), nodes);
    return 1;
  }

  // Phase 1: mixed workload, then the measured warm-hop sweep -----------------
  std::map<std::string, std::string> oracle;
  const WorkloadResult warm = runWorkload(dht, ops, seed, oracle);
  const u64 hopsBefore = dht.stats().hops;
  const u64 lookupsBefore = dht.stats().lookups;
  bool warmSweepOk = true;
  for (const auto& [k, v] : oracle) {
    if (!readOk(dht, k, v)) warmSweepOk = false;
  }
  const u64 warmLookups = u64{dht.stats().lookups} - lookupsBefore;
  const u64 warmHops = u64{dht.stats().hops} - hopsBefore;
  const double warmMeanHops =
      warmLookups == 0 ? 0.0
                       : static_cast<double>(warmHops) /
                             static_cast<double>(warmLookups);

  // Phase 2: live join under read load ----------------------------------------
  // The joiner daemon prints its ready line before the join handshake, so
  // the availability loop below runs concurrently with the actual key
  // streaming and ring change, and keeps running until the CLIENT's view
  // has healed to the grown ring (or a generous wall cap).
  daemons.push_back(
      NodedProcess::spawn(noded, overlayArgs(nodes, daemons[0].port())));
  if (!daemons.back().running()) {
    std::fprintf(stderr, "bench_overlay: failed to spawn the joiner\n");
    return 1;
  }
  u64 joinReadsOk = 0;
  u64 joinReadsBad = 0;
  std::vector<std::pair<std::string, std::string>> records(oracle.begin(),
                                                           oracle.end());
  const auto joinCap =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool joinHealed = false;
  while (true) {
    for (const auto& [k, v] : records) {
      if (readOk(dht, k, v)) {
        joinReadsOk += 1;
      } else {
        joinReadsBad += 1;
      }
    }
    joinHealed = dht.knownMembers() == nodes + 1;
    if (joinHealed || std::chrono::steady_clock::now() > joinCap) break;
  }
  const double joinAvailability =
      joinReadsOk + joinReadsBad == 0
          ? 0.0
          : static_cast<double>(joinReadsOk) /
                static_cast<double>(joinReadsOk + joinReadsBad);
  u64 lostAfterJoin = 0;
  for (const auto& [k, v] : records) {
    if (!eventuallyReads(dht, k, v, 15)) lostAfterJoin += 1;
  }

  // Phase 3: graceful leave ----------------------------------------------------
  // SIGUSR1 the last original member: it streams every key to the new
  // owners, announces Left, and exits 0. Nothing may be lost.
  const int leaveStatus = daemons[nodes - 1].stop(SIGUSR1);
  const bool leaverExitedClean =
      WIFEXITED(leaveStatus) && WEXITSTATUS(leaveStatus) == 0;
  u64 lostAfterLeave = 0;
  for (const auto& [k, v] : records) {
    if (!eventuallyReads(dht, k, v, 15)) lostAfterLeave += 1;
  }

  const auto rs = dht.routedStats();
  daemons.clear();

  const bool warmHopsOk = warmMeanHops <= 1.2 && warmLookups > 0;
  const bool availabilityOk = joinAvailability >= 0.99 && joinHealed;
  const u64 lostKeys = lostAfterJoin + lostAfterLeave;
  const bool lostKeysOk = lostKeys == 0 && leaverExitedClean;
  const bool oracleOk = warm.oracleOk && warmSweepOk;

  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"lht_overlay\",\n"
     << "  \"config\": {\n"
     << "    \"nodes\": " << nodes << ",\n"
     << "    \"ops\": " << ops << ",\n"
     << "    \"replication\": " << replication << ",\n"
     << "    \"seed\": " << seed << "\n"
     << "  },\n"
     << "  \"warm_routing\": {\n"
     << "    \"ops\": " << warm.ops << ",\n"
     << "    \"ops_failed\": " << warm.opsFailed << ",\n"
     << "    \"ns_per_op\": " << warm.nsPerOp << ",\n"
     << "    \"ops_per_sec\": " << warm.opsPerSec << ",\n"
     << "    \"sweep_lookups\": " << warmLookups << ",\n"
     << "    \"sweep_hops\": " << warmHops << ",\n"
     << "    \"mean_hops\": " << warmMeanHops << ",\n"
     << "    \"oracle_ok\": " << (oracleOk ? "true" : "false") << "\n"
     << "  },\n"
     << "  \"live_join\": {\n"
     << "    \"reads_ok\": " << joinReadsOk << ",\n"
     << "    \"reads_bad\": " << joinReadsBad << ",\n"
     << "    \"availability\": " << joinAvailability << ",\n"
     << "    \"view_healed\": " << (joinHealed ? "true" : "false") << ",\n"
     << "    \"lost_keys\": " << lostAfterJoin << "\n"
     << "  },\n"
     << "  \"graceful_leave\": {\n"
     << "    \"leaver_exited_clean\": "
     << (leaverExitedClean ? "true" : "false") << ",\n"
     << "    \"lost_keys\": " << lostAfterLeave << "\n"
     << "  },\n"
     << "  \"client\": {\n"
     << "    \"bootstraps\": " << rs.bootstraps << ",\n"
     << "    \"refreshes\": " << rs.refreshes << ",\n"
     << "    \"redirects_followed\": " << rs.redirectsFollowed << ",\n"
     << "    \"stale_hints\": " << rs.staleHints << ",\n"
     << "    \"retries_after_timeout\": " << rs.retriesAfterTimeout << "\n"
     << "  },\n"
     << "  \"gates\": {\n"
     << "    \"warm_mean_hops\": " << warmMeanHops << ",\n"
     << "    \"warm_mean_hops_ceiling\": 1.2,\n"
     << "    \"warm_hops_ok\": " << (warmHopsOk ? "true" : "false") << ",\n"
     << "    \"join_availability\": " << joinAvailability << ",\n"
     << "    \"join_availability_floor\": 0.99,\n"
     << "    \"availability_ok\": " << (availabilityOk ? "true" : "false")
     << ",\n"
     << "    \"lost_keys\": " << lostKeys << ",\n"
     << "    \"lost_keys_ok\": " << (lostKeysOk ? "true" : "false") << ",\n"
     << "    \"oracle_ok\": " << (oracleOk ? "true" : "false") << "\n"
     << "  }\n"
     << "}\n";

  const std::string outPath = flags.getString("out");
  std::ofstream out(outPath);
  if (!out) {
    std::fprintf(stderr, "bench_overlay: cannot write %s\n", outPath.c_str());
    return 1;
  }
  out << os.str();
  std::cout << os.str();

  if (!oracleOk) {
    std::fprintf(stderr, "bench_overlay: GATE FAILED: oracle verification\n");
    return 4;
  }
  if (!warmHopsOk) {
    std::fprintf(stderr,
                 "bench_overlay: GATE FAILED: warm mean hops %.3f > 1.2\n",
                 warmMeanHops);
    return 5;
  }
  if (!availabilityOk) {
    std::fprintf(
        stderr,
        "bench_overlay: GATE FAILED: join availability %.4f < 0.99 "
        "(healed=%d)\n",
        joinAvailability, joinHealed ? 1 : 0);
    return 6;
  }
  if (!lostKeysOk) {
    std::fprintf(stderr,
                 "bench_overlay: GATE FAILED: %llu keys lost "
                 "(leaver_clean=%d)\n",
                 static_cast<unsigned long long>(lostKeys),
                 leaverExitedClean ? 1 : 0);
    return 7;
  }
  return 0;
}
