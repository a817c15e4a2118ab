// Emits BENCH_PR9.json: the networked transport's cost profile
// (DESIGN.md §14).
//
// Three phases over the same mixed KV workload (RoutedNetDht,
// replication=2, oracle-verified against an in-memory map):
//   * in_process  — the client, given the static launch set, over the
//     SimHub twin (NodeServers inline, no sockets): the protocol's CPU
//     floor.
//   * networked   — the same client over real UDP sockets against
//     fork/exec'd lht_noded daemons on localhost, grown from one seed
//     the way run_cluster.sh launches them: what a process boundary and
//     the kernel's loopback stack add.
//   * batching    — datagrams spent reading K keys one get() at a time vs
//     one multiGet() round (clean SimHub, deterministic counts).
//
// Gates (checked here and by scripts/diff_bench.py):
//   * every phase verifies against the oracle with zero failed ops;
//   * batching ratio (unbatched / batched datagrams) >= 3.0 — the batch
//     rounds must collapse per-key datagrams into per-node datagrams.
#include <chrono>
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

#include "common/flags.h"
#include "common/random.h"
#include "dht/routed_net_dht.h"
#include "rpc/noded_process.h"
#include "rpc/sim_cluster.h"
#include "rpc/udp_transport.h"

using lht::common::u64;
using lht::dht::RoutedNetDht;
using lht::rpc::NodedProcess;
namespace rpc = lht::rpc;

namespace {

struct WorkloadResult {
  u64 ops = 0;
  u64 opsFailed = 0;
  double nsPerOp = 0.0;
  double opsPerSec = 0.0;
  bool oracleOk = false;
};

/// Mixed KV trace: 50% get / 30% put / 20% apply over a bounded keyspace,
/// verified against an in-memory oracle afterwards. Deterministic per seed.
WorkloadResult runWorkload(lht::dht::Dht& dht, u64 ops, u64 seed) {
  lht::common::Pcg32 rng(seed);
  const size_t keyspace = 512;
  std::map<std::string, std::string> oracle;
  // Preload half the keyspace so gets mostly hit.
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
    } catch (const lht::dht::DhtError& e) {
      res.opsFailed += 1;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const double ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  res.nsPerOp = ns / static_cast<double>(ops);
  res.opsPerSec = ops / (ns / 1e9);

  // Full oracle sweep: every key the oracle holds must read back exactly.
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

/// A client of `cluster`, given its servers as the launch set.
std::unique_ptr<RoutedNetDht> inProcessClient(rpc::SimCluster& cluster,
                                              size_t replication) {
  RoutedNetDht::Options o;
  o.members = cluster.addrs;
  o.replication = replication;
  return std::make_unique<RoutedNetDht>(
      o, [&cluster] { return cluster.hub.makeEndpoint(); });
}

/// The in-process phases' servers sit on ports 6000.. (the ring depends
/// on the ports, and the batching phase's datagram counts on the ring).
constexpr rpc::u16 kSimBasePort = 6000;

void emitWorkload(std::ostringstream& os, const char* name,
                  const WorkloadResult& r,
                  const RoutedNetDht::RoutedStats& net) {
  os << "  \"" << name << "\": {\n"
     << "    \"ops\": " << r.ops << ",\n"
     << "    \"ops_failed\": " << r.opsFailed << ",\n"
     << "    \"ns_per_op\": " << r.nsPerOp << ",\n"
     << "    \"ops_per_sec\": " << r.opsPerSec << ",\n"
     << "    \"datagrams_sent\": " << net.datagramsSent << ",\n"
     << "    \"retransmits\": " << net.retransmits << ",\n"
     << "    \"timeouts\": " << net.timeouts << ",\n"
     << "    \"oracle_ok\": " << (r.oracleOk ? "true" : "false") << "\n"
     << "  },\n";
}

}  // namespace

int main(int argc, char** argv) {
  lht::common::Flags flags(
      "bench_net",
      "Emits BENCH_PR9.json: in-process vs multi-process RoutedNetDht "
      "throughput "
      "plus the multiGet batching economy, with oracle verification.");
  flags.define("nodes", "8", "cluster size (both phases)");
  flags.define("ops", "4000", "workload operations per phase");
  flags.define("batch-keys", "256", "keys in the batching comparison");
  flags.define("replication", "2", "total copies per key");
  flags.define("seed", "42", "workload seed");
  flags.define("out", "BENCH_PR9.json", "output path");
  if (!flags.parse(argc, argv)) return 2;

  const size_t nodes = static_cast<size_t>(flags.getInt("nodes"));
  const u64 ops = static_cast<u64>(flags.getInt("ops"));
  const size_t batchKeys = static_cast<size_t>(flags.getInt("batch-keys"));
  const size_t replication = static_cast<size_t>(flags.getInt("replication"));
  const u64 seed = static_cast<u64>(flags.getInt("seed"));

  // Phase 1: in-process (SimHub) ---------------------------------------------
  WorkloadResult inProc;
  RoutedNetDht::RoutedStats inProcNet;
  {
    rpc::SimCluster cluster(nodes, kSimBasePort);
    auto dht = inProcessClient(cluster, replication);
    inProc = runWorkload(*dht, ops, seed);
    inProcNet = dht->routedStats();
  }

  // Phase 2: networked (fork/exec lht_noded, real UDP) -----------------------
  const std::string noded = rpc::findNoded();
  if (noded.empty()) {
    std::fprintf(stderr,
                 "bench_net: lht_noded binary not found (build it, or set "
                 "LHT_NODED_PATH)\n");
    return 1;
  }
  WorkloadResult networked;
  RoutedNetDht::RoutedStats networkedNet;
  {
    // Seed first, then joiners through it. The daemons stop when
    // `daemons` goes out of scope.
    const std::string repFlag = "--replication=" + std::to_string(replication);
    std::vector<NodedProcess> daemons;
    for (size_t i = 0; i < nodes; ++i) {
      std::vector<std::string> args = {"--port=0", "--quiet=true", repFlag};
      if (i > 0) {
        args.push_back("--seed-port=" + std::to_string(daemons[0].port()));
      }
      daemons.push_back(NodedProcess::spawn(noded, args));
      if (!daemons.back().running()) {
        std::fprintf(stderr, "bench_net: failed to spawn daemon %zu\n", i);
        return 1;
      }
    }
    RoutedNetDht::Options o;
    o.seed = daemons[0].addr();
    o.replication = replication;
    RoutedNetDht dht(o, [] {
      return std::make_unique<rpc::UdpTransport>(rpc::UdpTransport::Options{});
    });
    // The joiners may still be mid-join: re-pull until the client's view
    // holds the whole cluster.
    const auto formDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (dht.knownMembers() < nodes &&
           std::chrono::steady_clock::now() < formDeadline) {
      dht.bootstrap(/*deadlineMs=*/2000);
      if (dht.knownMembers() < nodes) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (dht.knownMembers() != nodes) {
      std::fprintf(stderr, "bench_net: cluster never formed (%zu/%zu)\n",
                   dht.knownMembers(), nodes);
      return 1;
    }
    networked = runWorkload(dht, ops, seed);
    networkedNet = dht.routedStats();
  }

  // Phase 3: batching economy (clean SimHub, deterministic) ------------------
  u64 unbatchedDatagrams = 0;
  u64 batchedDatagrams = 0;
  u64 batchRounds = 0;
  bool batchOracleOk = true;
  {
    rpc::SimCluster cluster(nodes, kSimBasePort);
    auto dht = inProcessClient(cluster, replication);
    std::vector<std::string> keys;
    for (size_t i = 0; i < batchKeys; ++i) {
      keys.push_back("batch" + std::to_string(i));
      dht->put(keys.back(), lht::common::numbered("v", i));
    }
    const auto afterLoad = dht->routedStats();
    for (const auto& k : keys) {
      auto got = dht->get(k);
      if (!got.has_value()) batchOracleOk = false;
    }
    const auto afterSingles = dht->routedStats();
    auto outcomes = dht->multiGet(keys);
    const auto afterBatch = dht->routedStats();
    for (size_t i = 0; i < outcomes.size(); ++i) {
      if (!outcomes[i].ok || outcomes[i].value != lht::common::numbered("v", i)) {
        batchOracleOk = false;
      }
    }
    unbatchedDatagrams = afterSingles.datagramsSent - afterLoad.datagramsSent;
    batchedDatagrams = afterBatch.datagramsSent - afterSingles.datagramsSent;
    batchRounds = 1;
  }
  const double batchRatio =
      batchedDatagrams == 0
          ? 0.0
          : static_cast<double>(unbatchedDatagrams) / batchedDatagrams;

  const bool oracleOk =
      inProc.oracleOk && networked.oracleOk && batchOracleOk;
  const bool batchRatioOk = batchRatio >= 3.0;

  std::ostringstream os;
  os << "{\n"
     << "  \"bench\": \"lht_net\",\n"
     << "  \"config\": {\n"
     << "    \"nodes\": " << nodes << ",\n"
     << "    \"ops\": " << ops << ",\n"
     << "    \"batch_keys\": " << batchKeys << ",\n"
     << "    \"replication\": " << replication << ",\n"
     << "    \"seed\": " << seed << "\n"
     << "  },\n";
  emitWorkload(os, "in_process", inProc, inProcNet);
  emitWorkload(os, "networked", networked, networkedNet);
  os << "  \"batching\": {\n"
     << "    \"keys\": " << batchKeys << ",\n"
     << "    \"unbatched_datagrams\": " << unbatchedDatagrams << ",\n"
     << "    \"batched_datagrams\": " << batchedDatagrams << ",\n"
     << "    \"batch_rounds\": " << batchRounds << ",\n"
     << "    \"ratio\": " << batchRatio << "\n"
     << "  },\n"
     << "  \"gates\": {\n"
     << "    \"oracle_ok\": " << (oracleOk ? "true" : "false") << ",\n"
     << "    \"batch_ratio\": " << batchRatio << ",\n"
     << "    \"batch_ratio_floor\": 3.0,\n"
     << "    \"batch_ratio_ok\": " << (batchRatioOk ? "true" : "false") << "\n"
     << "  }\n"
     << "}\n";

  const std::string outPath = flags.getString("out");
  std::ofstream out(outPath);
  if (!out) {
    std::fprintf(stderr, "bench_net: cannot write %s\n", outPath.c_str());
    return 1;
  }
  out << os.str();
  std::cout << os.str();

  if (!oracleOk) {
    std::fprintf(stderr, "bench_net: GATE FAILED: oracle verification\n");
    return 4;
  }
  if (!batchRatioOk) {
    std::fprintf(stderr,
                 "bench_net: GATE FAILED: batching ratio %.2f < 3.0\n",
                 batchRatio);
    return 5;
  }
  return 0;
}
