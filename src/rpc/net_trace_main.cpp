// lht_net_trace: drives a real LHT client fleet against a running
// lht_noded cluster and verifies the result against an oracle.
//
// The cluster is someone else's problem (run_cluster.sh forks the
// daemons); this binary is pure client: build a RoutedNetDht over UDP
// that knows only one seed member (--seed-port; the ring is learned via
// gossip pull + redirects), preload one record per oracle cell through a
// loader index, run a mixed insert/find/range trace through a concurrent
// ClientFleet, then re-read every preloaded record through a fresh
// verifier client and compare payloads.
//
// --mode splits the phases so churn scripts can interleave topology
// changes between them:
//   run      preload + trace + verify (default, the PR 9 behavior)
//   preload  preload the oracle records, verify they read back, exit
//   verify   only re-read the oracle (reconstructed from --preload/--seed)
// A verify against a cluster mid-join/leave/repair sets --retry-for-ms:
// a missing or timed-out record is retried until the window closes, so
// transient unavailability is separated from actual data loss.
//
// The fleet's readers send conditional reads (DESIGN.md §14) while its
// writers change buckets on the live daemons, starting from the buckets
// they hold (DESIGN.md §15); routed_stats counts the read entries that
// carried a digest and those answered `unchanged`, and the applies that
// began from a start and those whose CAS from it conflicted.
//
// Prints one JSON object on stdout. Exit codes: 0 ok, 2 flag error,
// 3 cluster never came up, 4 trace ops failed, 5 oracle mismatch.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "dht/routed_net_dht.h"
#include "exec/client_fleet.h"
#include "exec/thread_pool.h"
#include "lht/lht_index.h"
#include "rpc/udp_transport.h"
#include "workload/trace.h"

namespace {

using namespace lht;

double nowWallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags("lht_net_trace",
                      "mixed-trace client fleet against an lht_noded cluster");
  flags.define("seed-port", "0", "UDP port of any live cluster member");
  flags.define("clients", "8", "concurrent fleet clients");
  flags.define("ops", "2000", "trace operations");
  flags.define("preload", "64", "oracle records preloaded before the trace");
  flags.define("replication", "2", "copies per key (primary + replicas)");
  flags.define("dist", "uniform", "key distribution: uniform|gaussian|zipf");
  flags.define("seed", "42", "workload seed");
  flags.define("ping-deadline-ms", "10000",
               "how long to wait for the seed to answer");
  flags.define("mode", "run", "run | preload | verify (see header comment)");
  flags.define("retry-for-ms", "0",
               "verify: retry a missing/timed-out oracle record this long");
  if (!flags.parse(argc, argv)) return 2;

  const auto seedPort = common::parsePort(flags.getString("seed-port"));
  if (!seedPort || *seedPort == 0) {
    std::fprintf(stderr,
                 "lht_net_trace: --seed-port takes a decimal port in "
                 "[1, 65535]\n");
    return 2;
  }
  const auto clients = static_cast<size_t>(flags.getInt("clients"));
  const auto ops = static_cast<size_t>(flags.getInt("ops"));
  const auto preload = static_cast<size_t>(flags.getInt("preload"));
  const common::u64 seed = static_cast<common::u64>(flags.getInt("seed"));
  const std::string mode = flags.getString("mode");
  const double retryForMs = static_cast<double>(flags.getInt("retry-for-ms"));
  if (mode != "run" && mode != "preload" && mode != "verify") {
    std::fprintf(stderr, "lht_net_trace: bad --mode=%s\n", mode.c_str());
    return 2;
  }

  auto makeTransport = [] {
    return std::make_unique<rpc::UdpTransport>(rpc::UdpTransport::Options{});
  };
  const auto pingDeadline =
      static_cast<common::u64>(flags.getInt("ping-deadline-ms"));

  dht::RoutedNetDht::Options ro;
  ro.seed = rpc::NetAddr{rpc::kLoopbackHost, *seedPort};
  ro.replication = static_cast<size_t>(flags.getInt("replication"));
  dht::RoutedNetDht ndht(ro, makeTransport);
  if (!ndht.bootstrap(pingDeadline)) {
    std::fprintf(stderr, "lht_net_trace: seed %s never answered\n",
                 ro.seed.str().c_str());
    return 3;
  }

  auto indexOptions = [&](common::u64 clientSeed, bool attach) {
    core::LhtIndex::Options io;
    io.useLeafCache = true;
    io.cacheDecodedBuckets = true;
    io.crashConsistentSplits = true;  // concurrent structural churn
    io.attachExisting = attach;
    io.clientSeed = clientSeed;
    return io;
  };

  // The oracle is a pure function of (preload, i): churn scripts rebuild
  // it in --mode=verify without any state carried between invocations.
  std::vector<index::Record> oracle;
  oracle.reserve(preload);
  for (size_t i = 0; i < preload; ++i) {
    index::Record r;
    r.key = (static_cast<double>(i) + 0.5) / static_cast<double>(preload);
    r.payload = "oracle-" + std::to_string(i);
    oracle.push_back(std::move(r));
  }

  // Preload doubles as the oracle (same pattern as the skew campaign):
  // the trace erases only keys it itself inserted, so these records must
  // all survive the run bit-for-bit.
  if (mode != "verify") {
    core::LhtIndex loader(ndht, indexOptions(seed * 131, false));
    for (const index::Record& r : oracle) loader.insert(r);
  }

  exec::FleetResult result;
  if (mode == "run") {
    const auto trace = workload::makeMixedTrace(
        workload::parseDistribution(flags.getString("dist")), ops,
        workload::TraceMix{}, seed * 7919);
    exec::FleetOptions fo;
    fo.clients = clients;
    fo.chunkSize = 16;
    fo.clientSeedBase = seed * 10'000;
    fo.index = indexOptions(/*per-client override*/ 1, true);
    exec::ClientFleet fleet(
        [&](size_t, net::SimClock&) {
          exec::ClientStack stack;
          stack.top = &ndht;  // straight onto the wire: no sim decorators
          return stack;
        },
        fo);
    exec::WorkStealingPool pool(4);
    result = fleet.run(trace, pool);
  }

  // Oracle pass through a fresh client (no cache warm-up from the run).
  // Under --retry-for-ms, misses and timeouts are retried: a cluster
  // mid-join/leave may be transiently unable to serve a key that is
  // nonetheless safe; only a record still missing when the window closes
  // counts as lost.
  size_t oracleMisses = 0;
  size_t verifyRetries = 0;
  {  // every mode ends with a verify pass
    core::LhtIndex verifier(ndht, indexOptions(seed * 4099, true));
    const double verifyDeadline = nowWallMs() + retryForMs;
    for (const index::Record& r : oracle) {
      bool ok = false;
      while (true) {
        try {
          auto found = verifier.find(r.key);
          ok = found.record.has_value() && found.record->payload == r.payload;
        } catch (const dht::DhtError&) {
          ok = false;  // timeout / redirect storm: retryable
        }
        if (ok || nowWallMs() >= verifyDeadline) break;
        verifyRetries += 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (!ok) oracleMisses += 1;
    }
  }

  const auto& ds = ndht.stats();
  const double meanHops =
      ds.lookups.load() == 0
          ? 0.0
          : static_cast<double>(ds.hops.load()) /
                static_cast<double>(ds.lookups.load());
  const auto rs = ndht.routedStats();
  std::printf(
      "{\"mode\": \"%s\", \"clients\": %zu, "
      "\"ops\": %zu, \"ops_failed\": %zu, \"elapsed_wall_ms\": %.1f, "
      "\"oracle_records\": %zu, \"oracle_misses\": %zu, \"oracle_ok\": %s, "
      "\"verify_retries\": %zu, ",
      mode.c_str(), clients, result.opsTotal, result.opsFailed,
      result.elapsedWallMs, oracle.size(), oracleMisses,
      oracleMisses == 0 ? "true" : "false", verifyRetries);
  std::printf(
      "\"routed_stats\": {\"bootstraps\": %llu, \"refreshes\": %llu, "
      "\"redirects_followed\": %llu, \"stale_hints\": %llu, "
      "\"retries_after_timeout\": %llu, \"known_members\": %zu, "
      "\"conditional_reads\": %llu, \"unchanged_reads\": %llu, "
      "\"applies_from_start\": %llu, \"start_conflicts\": %llu}, ",
      static_cast<unsigned long long>(rs.bootstraps),
      static_cast<unsigned long long>(rs.refreshes),
      static_cast<unsigned long long>(rs.redirectsFollowed),
      static_cast<unsigned long long>(rs.staleHints),
      static_cast<unsigned long long>(rs.retriesAfterTimeout),
      ndht.knownMembers(),
      static_cast<unsigned long long>(rs.conditionalReads),
      static_cast<unsigned long long>(rs.unchangedReads),
      static_cast<unsigned long long>(rs.appliesFromStart),
      static_cast<unsigned long long>(rs.startConflicts));
  std::printf(
      "\"net\": {\"datagrams_sent\": %llu, \"datagrams_received\": %llu, "
      "\"retransmits\": %llu, \"timeouts\": %llu, \"connections\": %llu}, ",
      static_cast<unsigned long long>(rs.datagramsSent),
      static_cast<unsigned long long>(rs.datagramsReceived),
      static_cast<unsigned long long>(rs.retransmits),
      static_cast<unsigned long long>(rs.timeouts),
      static_cast<unsigned long long>(rs.connections));
  std::printf(
      "\"dht\": {\"lookups\": %llu, \"hops\": %llu, \"mean_hops\": %.3f, "
      "\"batch_rounds\": %llu}}\n",
      static_cast<unsigned long long>(ds.lookups.load()),
      static_cast<unsigned long long>(ds.hops.load()), meanHops,
      static_cast<unsigned long long>(ds.batchRounds.load()));
  if (result.opsFailed != 0) return 4;
  if (oracleMisses != 0) return 5;
  return 0;
}
