// lht_perfbench: LHT operations over a live lht_noded cluster, end to end
// and split by layer. perfbench/README.md describes the workloads and the
// metrics; perfbench/run.py builds this binary and runs it.
//
// One run is a series of rounds of fixed work until --seconds of timed
// work is spent. A round spawns the overlay daemons, bulk-loads the
// preload, attaches one LhtIndex client per thread and warms its caches
// (that is set-up), runs the workload's ops closed-loop, and checks every
// answer and then the whole index against an in-memory oracle.
// --trace=true spends half the time untraced and half with timing probes,
// and reports the per-layer split.
//
// The last stdout line is the result object; the line before it is the
// full report. Exit status: 0 when every check passed, 1 when a check
// failed (the result line says so), 2 on bad flags or a set-up failure.

#include <sched.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cluster.h"
#include "common/flags.h"
#include "common/random.h"
#include "dht/routed_net_dht.h"
#include "lht/lht_index.h"
#include "probes.h"
#include "rpc/udp_transport.h"

namespace perfbench {
namespace {

namespace core = lht::core;
namespace dht = lht::dht;
namespace rpc = lht::rpc;
using lht::index::Record;

constexpr double kWindowSeconds = 1.0;
/// Ops per latency slice: consecutive ops of one client. Its 1% tail holds
/// 20 samples.
constexpr size_t kSliceOps = 2000;
/// lookup's client threads: the nproc of the 4-vCPU reference host. With
/// everything on one CPU (see rotateTo), more threads would add queueing,
/// not parallelism.
constexpr size_t kLookupClients = 4;
/// Spans per client kept for the Chrome trace of a --trace-out run.
constexpr size_t kKeptSpans = 20000;
/// Daemon-only window after the first set-up, for overlay.idle_cpu_pct.
constexpr auto kIdleWindow = std::chrono::seconds(1);

enum class Workload { Lookup, Ingest, Scan };

struct Config {
  Workload workload = Workload::Lookup;
  std::string workloadName;
  u64 seed = 1;
  double seconds = 0.0;
  bool trace = false;
  std::string noded;
  std::string traceOut;
  size_t preload = 0;
  size_t roundOps = 0;  ///< ops per client in each round
  size_t clients = 1;
  size_t countOps = 0;
  size_t daemons = 4;
  size_t replication = 2;
  double span = 0.005;
  std::vector<int> cpus;  ///< the CPUs the run rotates over
};

/// CPUs this process may use; a run moves everything it runs onto one of
/// them at a time (see perfbench/README.md, "One CPU at a time").
std::vector<int> allowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Moves the benchmark and its daemons onto the i-th CPU of the rotation.
void rotateTo(const Config& cfg, size_t i, const Cluster* cluster) {
  if (cfg.cpus.empty()) return;
  const int cpu = cfg.cpus[i % cfg.cpus.size()];
  pinProcess(0, cpu);
  if (cluster != nullptr) cluster->pinTo(cpu);
}

// --- Inputs and oracle -------------------------------------------------------

/// Sorted, distinct uniform keys with their payloads; a pure function of
/// (n, seed).
std::vector<Record> makePreload(size_t n, u64 seed) {
  lht::common::Pcg32 rng(seed, 1);
  std::vector<double> keys;
  while (keys.size() < n) {
    while (keys.size() < n) keys.push_back(rng.nextDouble());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  std::vector<Record> out(n);
  char buf[32];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "rec-%09zu", i);
    out[i] = Record{keys[i], buf};
  }
  return out;
}

const Record* oracleFind(const std::vector<Record>& sorted, double key) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), key,
                             [](const Record& r, double k) { return r.key < k; });
  return it != sorted.end() && it->key == key ? &*it : nullptr;
}

/// Whether `got` is exactly the oracle's records in [lo, hi).
bool rangeMatches(const std::vector<Record>& sorted, double lo, double hi,
                  const std::vector<Record>& got) {
  auto cmp = [](const Record& r, double k) { return r.key < k; };
  auto b = std::lower_bound(sorted.begin(), sorted.end(), lo, cmp);
  auto e = std::lower_bound(b, sorted.end(), hi, cmp);
  return std::equal(b, e, got.begin(), got.end());
}

// --- Client stacks -------------------------------------------------------------

core::LhtIndex::Options indexOptions(u64 clientSeed, bool attach) {
  // The client options lht_net_trace runs with; batchFanout stays default.
  core::LhtIndex::Options io;
  io.useLeafCache = true;
  io.cacheDecodedBuckets = true;
  io.crashConsistentSplits = true;
  io.attachExisting = attach;
  io.clientSeed = clientSeed;
  return io;
}

/// One application client: LhtIndex -> [TimingDht] -> RoutedNetDht ->
/// CountingTransport -> UDP. Not movable: the probes hold its counters.
struct Client {
  Client(const Config& cfg, const rpc::NetAddr& seed, bool traced,
         u64 clientSeed, bool attach) {
    if (traced) tracer = std::make_unique<Tracer>(cfg.traceOut.empty() ? 0 : kKeptSpans);
    dht::RoutedNetDht::Options ro;
    ro.seed = seed;
    ro.replication = cfg.replication;
    routed = std::make_unique<dht::RoutedNetDht>(ro, [this] {
      return std::make_unique<CountingTransport>(
          std::make_unique<rpc::UdpTransport>(rpc::UdpTransport::Options{}),
          wire, tracer.get());
    });
    if (!routed->bootstrap(5000)) throw std::runtime_error("client: bootstrap failed");
    dht::Dht* top = routed.get();
    if (traced) {
      timing = std::make_unique<TimingDht>(*routed, *tracer, wire);
      top = timing.get();
    }
    index = std::make_unique<core::LhtIndex>(*top, indexOptions(clientSeed, attach));
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  WireCounters wire;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<dht::RoutedNetDht> routed;
  std::unique_ptr<TimingDht> timing;
  std::unique_ptr<core::LhtIndex> index;
};

/// Every counter a phase reports, read at one instant of one client.
struct Snapshot {
  WireCounters wire;
  u64 lookups = 0;
  dht::RoutedNetDht::RoutedStats routed;
  u64 leafHits = 0, leafMisses = 0, storeHits = 0, storeMisses = 0;
  std::array<CallStats, kCallKinds> calls{};

  static Snapshot of(Client& c) {
    Snapshot s;
    s.wire = c.wire;
    s.lookups = c.routed->stats().lookups;
    s.routed = c.routed->routedStats();
    s.leafHits = c.index->leafCache().hits();
    s.leafMisses = c.index->leafCache().misses();
    s.storeHits = c.index->bucketStore().hits();
    s.storeMisses = c.index->bucketStore().misses();
    if (c.timing) s.calls = c.timing->calls();
    return s;
  }

  /// this - base, field by field; accumulates into `acc`.
  void addDeltaTo(const Snapshot& base, Snapshot& acc) const {
    acc.wire.datagramsSent += wire.datagramsSent - base.wire.datagramsSent;
    acc.wire.datagramsReceived += wire.datagramsReceived - base.wire.datagramsReceived;
    acc.wire.bytesSent += wire.bytesSent - base.wire.bytesSent;
    acc.wire.bytesReceived += wire.bytesReceived - base.wire.bytesReceived;
    acc.wire.rounds += wire.rounds - base.wire.rounds;
    acc.wire.receiveCalls += wire.receiveCalls - base.wire.receiveCalls;
    acc.lookups += lookups - base.lookups;
    acc.routed.refreshes += routed.refreshes - base.routed.refreshes;
    acc.routed.redirectsFollowed +=
        routed.redirectsFollowed - base.routed.redirectsFollowed;
    acc.routed.retriesAfterTimeout +=
        routed.retriesAfterTimeout - base.routed.retriesAfterTimeout;
    acc.leafHits += leafHits - base.leafHits;
    acc.leafMisses += leafMisses - base.leafMisses;
    acc.storeHits += storeHits - base.storeHits;
    acc.storeMisses += storeMisses - base.storeMisses;
    for (size_t k = 0; k < kCallKinds; ++k) {
      acc.calls[k].calls += calls[k].calls - base.calls[k].calls;
      acc.calls[k].rounds += calls[k].rounds - base.calls[k].rounds;
      acc.calls[k].bytes += calls[k].bytes - base.calls[k].bytes;
    }
  }
};

/// Reads the whole index through a fresh client, in slices, and counts
/// records that differ from `expected` (missing, extra, or wrong payload).
u64 sweepMismatches(const Config& cfg, const rpc::NetAddr& seed,
                    const std::vector<Record>& expected, u64 clientSeed) {
  Client c(cfg, seed, false, clientSeed, true);
  constexpr size_t kSlices = 16;
  u64 bad = 0;
  auto cmp = [](const Record& r, double k) { return r.key < k; };
  for (size_t i = 0; i < kSlices; ++i) {
    const double lo = static_cast<double>(i) / kSlices;
    const double hi = static_cast<double>(i + 1) / kSlices;
    const auto got = c.index->rangeQuery(lo, hi).records;
    auto b = std::lower_bound(expected.begin(), expected.end(), lo, cmp);
    auto e = std::lower_bound(b, expected.end(), hi, cmp);
    const auto want = static_cast<size_t>(e - b);
    size_t same = 0;
    for (size_t j = 0; j < std::min(want, got.size()); ++j) same += b[j] == got[j];
    bad += std::max(want, got.size()) - same;
  }
  return bad;
}

// --- Set-up --------------------------------------------------------------------

/// A formed cluster holding the preload, with warmed clients attached.
struct Deployment {
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<Client>> clients;
  u64 warmMismatches = 0;
  double setupSeconds = 0.0;
};

std::unique_ptr<Deployment> deploy(const Config& cfg,
                                   const std::vector<Record>& preload,
                                   bool traced, size_t index) {
  rotateTo(cfg, index, nullptr);  // the daemons inherit this CPU
  auto d = std::make_unique<Deployment>();
  const u64 t0 = nowNs();
  d->cluster = std::make_unique<Cluster>(
      Cluster::Options{cfg.noded, cfg.daemons, cfg.replication});
  {
    Client loader(cfg, d->cluster->seed(), false, cfg.seed * 131 + 7, false);
    loader.index->insertBatch(preload);
  }
  // Attach and warm one client at a time: on one CPU a parallel warm-up
  // saves nothing, and this keeps the set-up's memory peak repeatable.
  for (size_t c = 0; c < cfg.clients; ++c) {
    auto client = std::make_unique<Client>(cfg, d->cluster->seed(), traced,
                                           cfg.seed * 10'000 + c + 1, true);
    // One sweep warms the leaf cache and decoded-bucket store; its answer
    // doubles as a check of the preload.
    if (client->index->rangeQuery(0.0, 1.0).records != preload) d->warmMismatches += 1;
    d->clients.push_back(std::move(client));
  }
  d->setupSeconds = static_cast<double>(nowNs() - t0) / 1e9;
  for (auto& c : d->clients) {
    if (c->tracer) c->tracer->reset();
  }
  return d;
}

// --- Timed phase ---------------------------------------------------------------

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double ratio(u64 num, u64 den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentileUs(std::vector<std::uint32_t>& ns, double q) {
  if (ns.empty()) return 0.0;
  const auto k = static_cast<size_t>(std::ceil(q * static_cast<double>(ns.size()))) - 1;
  std::nth_element(ns.begin(), ns.begin() + static_cast<long>(k), ns.end());
  return static_cast<double>(ns[k]) / 1e3;
}

/// What a phase (its rounds together) measured.
struct PhaseResult {
  u64 ops = 0;
  u64 failed = 0;
  double wallSeconds = 0;  ///< timed, summed over the rounds
  /// One entry per latency slice of every round.
  std::vector<double> sliceP50, sliceP99;
  /// Traffic over each client's first countOps ops of the first round.
  u64 countWindowOps = 0;
  Snapshot counted;
  /// Summed over every round.
  Snapshot total;
  Tracer::Totals trace;
  u64 selfCpuNs = 0, daemonCpuNs = 0, daemonSwitches = 0;
  /// Largest over the rounds.
  double clientPeakRssMb = 0, daemonPeakRssMb = 0;

  // Throughput and CPU per op are totals over the timed rounds. The host
  // switches between two speeds about 1.3x apart, seconds at a time, and a
  // median over windows or slices jumps from one to the other when the run
  // spent about half its time at each; a total or a mean moves in
  // proportion. So p50 is the mean of the slices' medians. A stall of the
  // host, though, puts a few slices' p99 far out, which a median ignores
  // and a mean follows, so p99 is the median of the slices' p99s.
  [[nodiscard]] double throughput() const { return ratio(static_cast<double>(ops), wallSeconds); }
  [[nodiscard]] double p50() const { return mean(sliceP50); }
  [[nodiscard]] double p99() const { return median(sliceP99); }
  [[nodiscard]] double cpuPerOp() const {
    return ratio(static_cast<double>(selfCpuNs + daemonCpuNs) / 1e3, static_cast<double>(ops));
  }
};

std::uint32_t clampNs(u64 ns) {
  return static_cast<std::uint32_t>(std::min<u64>(ns, ~std::uint32_t{0}));
}

/// Times `call` (one index op) and wraps it in an op span. Returns false
/// when it threw DhtError; the latency then runs to the throw.
template <typename Call>
bool timedOp(Tracer* tracer, std::uint32_t& latencyNs, Call&& call) {
  SpanGuard span(tracer, Layer::Op, "lht.op");
  const u64 t0 = nowNs();
  bool ok = true;
  try {
    call();
  } catch (const dht::DhtError&) {
    ok = false;
  }
  latencyNs = clampNs(nowNs() - t0);
  return ok;
}

/// One client's ops for a round, a pure function of (seed, client). The
/// inputs are drawn before the round is timed, and lookup's answers are
/// kept and checked after it. Ingest's inserts are checked by the
/// read-back after the round. A round's scan answers would take hundreds
/// of MB, so scan checks each answer between its ops, outside their
/// latency but inside the timed wall and CPU time (about 2% of an op's
/// time; see perfbench/README.md).
class OpStream {
 public:
  OpStream(const Config& cfg, const std::vector<Record>& oracle, size_t client, size_t ops)
      : cfg_(cfg), oracle_(oracle), ok_(ops) {
    lht::common::Pcg32 rng(cfg.seed, 100 + client);
    switch (cfg.workload) {
      case Workload::Lookup:
        keys_.resize(ops);
        found_.resize(ops);
        for (double& key : keys_) {
          // Half hits on preloaded keys, half uniform probes.
          const bool hit = rng.below(2) == 0;
          key = hit ? oracle[rng.below(static_cast<std::uint32_t>(oracle.size()))].key
                    : rng.nextDouble();
        }
        break;
      case Workload::Ingest: {
        std::unordered_set<double> fresh;
        char buf[32];
        while (inserts_.size() < ops) {
          const double key = rng.nextDouble();
          if (oracleFind(oracle, key) != nullptr || !fresh.insert(key).second) continue;
          std::snprintf(buf, sizeof(buf), "ins-%09zu", inserts_.size());
          inserts_.push_back(Record{key, buf});
        }
        break;
      }
      case Workload::Scan:
        keys_.resize(ops);
        for (double& lo : keys_) lo = rng.nextDouble() * (1.0 - cfg.span);
        break;
    }
  }

  /// Runs op i, timed and traced, and keeps what check() needs.
  void run(size_t i, core::LhtIndex& index, Tracer* tracer, std::uint32_t& latencyNs) {
    switch (cfg_.workload) {
      case Workload::Lookup:
        ok_[i] = timedOp(tracer, latencyNs, [&] { found_[i] = index.find(keys_[i]).record; });
        break;
      case Workload::Ingest:
        ok_[i] = timedOp(tracer, latencyNs, [&] { index.insert(inserts_[i]); });
        break;
      case Workload::Scan: {
        const double lo = keys_[i];
        lht::index::RangeResult got;
        ok_[i] = timedOp(tracer, latencyNs, [&] { got = index.rangeQuery(lo, lo + cfg_.span); }) &&
                 rangeMatches(oracle_, lo, lo + cfg_.span, got.records);
        break;
      }
    }
  }

  /// After the round: the failed ops among the first `n` (DhtError or an
  /// answer that disagrees with the oracle). Appends the acknowledged
  /// inserts to `inserted`.
  u64 check(size_t n, std::vector<Record>& inserted) const {
    u64 failed = 0;
    for (size_t i = 0; i < n; ++i) {
      bool good = ok_[i] != 0;
      if (good && cfg_.workload == Workload::Lookup) {
        const Record* want = oracleFind(oracle_, keys_[i]);
        good = want == nullptr ? !found_[i].has_value() : found_[i] == *want;
      }
      if (good && cfg_.workload == Workload::Ingest) inserted.push_back(inserts_[i]);
      failed += good ? 0 : 1;
    }
    return failed;
  }

 private:
  const Config& cfg_;
  const std::vector<Record>& oracle_;
  std::vector<double> keys_;  ///< lookup: the key; scan: the range's low end
  std::vector<std::optional<Record>> found_;
  std::vector<Record> inserts_;
  std::vector<std::uint8_t> ok_;  ///< op ran without DhtError (scan: and matched)
};

/// One client's share of a round. Sized up front, so the samples never
/// reallocate and the run's memory peak does not depend on its speed.
struct ClientRun {
  ClientRun(const Config& cfg, const std::vector<Record>& oracle, size_t client)
      : ops(cfg, oracle, client, cfg.roundOps), latNs(cfg.roundOps) {}
  OpStream ops;
  std::vector<std::uint32_t> latNs;
  std::atomic<u64> done{0};
  Snapshot atStart, atCountWindow, atEnd;
  std::exception_ptr error;
};

/// One timed round on a deployment: every client runs its next roundOps
/// ops of the workload, closed-loop. The round is cut short only if it
/// outlasts `capSeconds`. Time is split into kWindowSeconds windows; each
/// window runs on the next CPU of the rotation (`window` counts windows
/// across the phase). Appends to `acc`, the round's inserts to `inserted`,
/// and returns the round's length in seconds.
double runRound(const Config& cfg, Deployment& dep, const std::vector<Record>& oracle,
                double capSeconds, bool firstRound, size_t& window, PhaseResult& acc,
                std::vector<Record>& inserted) {
  const size_t nc = dep.clients.size();
  std::vector<std::unique_ptr<ClientRun>> runs;
  for (size_t c = 0; c < nc; ++c) runs.push_back(std::make_unique<ClientRun>(cfg, oracle, c));
  std::atomic<bool> go{false};
  std::atomic<bool> cut{false};
  std::mutex doneMutex;
  std::condition_variable allDone;
  size_t finished = 0;

  std::vector<std::thread> threads;
  for (size_t c = 0; c < nc; ++c) {
    threads.emplace_back([&, c] {
      ClientRun& run = *runs[c];
      Client& client = *dep.clients[c];
      run.atStart = Snapshot::of(client);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        for (size_t done = 0; done < cfg.roundOps && !cut.load(std::memory_order_relaxed);) {
          run.ops.run(done, *client.index, client.tracer.get(), run.latNs[done]);
          done += 1;
          run.done.store(done, std::memory_order_relaxed);
          if (done == cfg.countOps) run.atCountWindow = Snapshot::of(client);
        }
      } catch (...) {
        run.error = std::current_exception();
      }
      if (run.done.load() < cfg.countOps) run.atCountWindow = Snapshot::of(client);
      run.atEnd = Snapshot::of(client);
      std::lock_guard<std::mutex> lock(doneMutex);
      finished += 1;
      allDone.notify_one();
    });
  }

  const auto windowNs = static_cast<u64>(kWindowSeconds * 1e9);
  const auto capNs = static_cast<u64>(capSeconds * 1e9);
  rotateTo(cfg, window, dep.cluster.get());
  const ProcSample d0 = dep.cluster->sample();
  const u64 cpu0 = selfCpuNs();
  const u64 start = nowNs();
  go.store(true, std::memory_order_release);
  u64 end = start;
  for (bool over = false; !over;) {
    {
      std::unique_lock<std::mutex> lock(doneMutex);
      const auto boundary = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(end + windowNs));
      over = allDone.wait_until(lock, boundary, [&] { return finished == nc; });
    }
    end = nowNs();
    if (!over && end - start > capNs) cut.store(true);
    rotateTo(cfg, ++window, dep.cluster.get());
  }
  for (auto& t : threads) t.join();
  const ProcSample d1 = dep.cluster->sample();
  const double roundSeconds = static_cast<double>(end - start) / 1e9;
  acc.selfCpuNs += selfCpuNs() - cpu0;
  acc.daemonCpuNs += d1.cpuNs - d0.cpuNs;
  acc.daemonSwitches += d1.voluntarySwitches - d0.voluntarySwitches;
  acc.wallSeconds += roundSeconds;
  acc.clientPeakRssMb = std::max(acc.clientPeakRssMb, peakRssMb("self"));
  acc.daemonPeakRssMb = std::max(acc.daemonPeakRssMb, dep.cluster->peakRssMb());
  for (const auto& r : runs) {
    if (r->error) std::rethrow_exception(r->error);
  }

  // Latency percentiles are taken per slice of kSliceOps consecutive ops of
  // one client. Which slice an op falls in depends on its place in the
  // round, not on the host's speed, so the burst of splits that opens an
  // ingest round always fills the same slices; and a stall of the host
  // spoils the tail of the slices it hits, not the round's. A short last
  // slice counts only when it holds half a slice or is the client's only one.
  for (const auto& r : runs) {
    const size_t n = r->done.load();
    for (size_t begin = 0; begin < n; begin += kSliceOps) {
      const size_t end = std::min(n, begin + kSliceOps);
      if (begin > 0 && end - begin < kSliceOps / 2) break;
      std::vector<std::uint32_t> slice(r->latNs.begin() + static_cast<long>(begin),
                                       r->latNs.begin() + static_cast<long>(end));
      acc.sliceP50.push_back(percentileUs(slice, 0.50));
      acc.sliceP99.push_back(percentileUs(slice, 0.99));
    }
  }
  for (size_t c = 0; c < nc; ++c) {
    ClientRun& r = *runs[c];
    acc.ops += r.done.load();
    acc.failed += r.ops.check(r.done.load(), inserted);
    if (firstRound) {
      acc.countWindowOps += std::min<u64>(r.done.load(), cfg.countOps);
      r.atCountWindow.addDeltaTo(r.atStart, acc.counted);
    }
    r.atEnd.addDeltaTo(r.atStart, acc.total);
    if (Tracer* t = dep.clients[c]->tracer.get()) {
      for (size_t l = 0; l < kLayers; ++l) {
        acc.trace.ns[l] += t->totals().ns[l];
        acc.trace.selfNs[l] += t->totals().selfNs[l];
      }
    }
  }
  return roundSeconds;
}

// --- Reporting -----------------------------------------------------------------

/// Ordered name -> (value, unit) map, printed as the contract's metrics object.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    items_.emplace_back(name, std::make_pair(value, std::string(unit)));
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(10);
    os << "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << items_[i].first << "\": {\"value\": "
         << items_[i].second.first << ", \"unit\": \"" << items_[i].second.second
         << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

Metrics endToEnd(const PhaseResult& p, double setupS) {
  const auto n = static_cast<double>(p.countWindowOps);
  Metrics m;
  m.add("throughput_ops_s", p.throughput(), "1/s");
  m.add("p50_us", p.p50(), "us");
  m.add("p99_us", p.p99(), "us");
  m.add("rtts_per_op", ratio(static_cast<double>(p.counted.wire.rounds), n), "count");
  m.add("datagrams_per_op", ratio(static_cast<double>(p.counted.wire.datagrams()), n),
        "count");
  m.add("wire_bytes_per_op", ratio(static_cast<double>(p.counted.wire.bytes()), n), "B");
  m.add("dht_lookups_per_op", ratio(static_cast<double>(p.counted.lookups), n), "count");
  m.add("cpu_us_per_op", p.cpuPerOp(), "us");
  m.add("peak_rss_mb", p.clientPeakRssMb + p.daemonPeakRssMb, "MB");
  m.add("setup_s", setupS, "s");
  return m;
}

Metrics perLayer(const PhaseResult& plain, const PhaseResult& traced, double idleCpuPct) {
  const auto ops = static_cast<double>(traced.ops);
  const auto& t = traced.trace;
  const auto layer = [](Layer l) { return static_cast<size_t>(l); };
  Metrics m;
  m.add("lht.self_us_per_op", ratio(t.selfNs[layer(Layer::Op)] / 1e3, ops), "us");
  m.add("lht.mutator_us_per_op", ratio(t.ns[layer(Layer::Mutator)] / 1e3, ops), "us");
  u64 calls = 0;
  for (size_t k = 0; k < kCallKinds; ++k) {
    calls += traced.total.calls[k].calls;
    m.add(std::string("lht.calls_per_op.") + kCallKindNames[k],
          ratio(static_cast<double>(traced.total.calls[k].calls), ops), "count");
  }
  m.add("lht.leaf_cache_hit_ratio",
        ratio(traced.total.leafHits, traced.total.leafHits + traced.total.leafMisses),
        "ratio");
  m.add("lht.bucket_store_hit_ratio",
        ratio(traced.total.storeHits, traced.total.storeHits + traced.total.storeMisses),
        "ratio");
  m.add("dht.self_us_per_call",
        ratio(t.selfNs[layer(Layer::Dht)] / 1e3, static_cast<double>(calls)), "us");
  for (size_t k = 0; k < kCallKinds; ++k) {
    const CallStats& s = traced.total.calls[k];
    m.add(std::string("dht.rounds_per_call.") + kCallKindNames[k],
          ratio(s.rounds, s.calls), "count");
    m.add(std::string("dht.bytes_per_call.") + kCallKindNames[k],
          ratio(s.bytes, s.calls), "B");
  }
  // Anomaly counters over both phases of the run.
  const auto both = [&](auto field) {
    return static_cast<double>(field(plain.total) + field(traced.total));
  };
  m.add("dht.view_refreshes", both([](const Snapshot& s) { return s.routed.refreshes; }),
        "count");
  m.add("dht.redirects",
        both([](const Snapshot& s) { return s.routed.redirectsFollowed; }), "count");
  m.add("dht.timeout_retries",
        both([](const Snapshot& s) { return s.routed.retriesAfterTimeout; }), "count");
  const WireCounters& w = traced.total.wire;
  m.add("rpc.send_us_per_datagram",
        ratio(t.ns[layer(Layer::Send)] / 1e3, static_cast<double>(w.datagramsSent)), "us");
  m.add("rpc.wait_us_per_round",
        ratio(t.ns[layer(Layer::Receive)] / 1e3, static_cast<double>(w.rounds)), "us");
  m.add("rpc.receive_calls_per_round", ratio(w.receiveCalls, w.rounds), "count");
  m.add("rpc.unanswered_sends", both([](const Snapshot& s) {
          return s.wire.datagramsSent - std::min(s.wire.datagramsSent,
                                                 s.wire.datagramsReceived);
        }),
        "count");
  // Daemon and client CPU come from the untraced phase: the probes run in
  // the client only, and they would inflate its CPU and slow the load.
  const auto requests = static_cast<double>(plain.total.wire.datagramsSent);
  m.add("overlay.cpu_us_per_request", ratio(plain.daemonCpuNs / 1e3, requests), "us");
  m.add("overlay.wakeups_per_request",
        ratio(static_cast<double>(plain.daemonSwitches), requests), "count");
  m.add("overlay.idle_cpu_pct", idleCpuPct, "%");
  m.add("overlay.peak_rss_mb", std::max(plain.daemonPeakRssMb, traced.daemonPeakRssMb),
        "MB");
  m.add("client.cpu_us_per_op",
        ratio(plain.selfCpuNs / 1e3, static_cast<double>(plain.ops)), "us");
  m.add("trace.overhead_pct", 100.0 * (1.0 - ratio(traced.throughput(), plain.throughput())),
        "%");
  return m;
}

std::string list(const std::vector<double>& v) {
  std::ostringstream os;
  os.precision(6);
  os << "[";
  for (size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "]";
  return os.str();
}

std::string phaseJson(const PhaseResult& p) {
  const auto n = static_cast<double>(p.countWindowOps);
  std::ostringstream os;
  os.precision(10);
  os << "{\"ops\": " << p.ops << ", \"failed\": " << p.failed
     << ", \"latency_samples\": " << p.ops << ", \"wall_s\": " << p.wallSeconds
     << ", \"slices\": {\"p50_us\": " << list(p.sliceP50)
     << ", \"p99_us\": " << list(p.sliceP99)
     << "}, \"count_window\": {\"ops\": " << p.countWindowOps
     << ", \"rtts_per_op\": " << ratio(static_cast<double>(p.counted.wire.rounds), n)
     << ", \"datagrams_per_op\": "
     << ratio(static_cast<double>(p.counted.wire.datagrams()), n)
     << ", \"wire_bytes_per_op\": " << ratio(static_cast<double>(p.counted.wire.bytes()), n)
     << ", \"dht_lookups_per_op\": " << ratio(static_cast<double>(p.counted.lookups), n)
     << "}, \"client_peak_rss_mb\": " << p.clientPeakRssMb
     << ", \"daemon_peak_rss_mb\": " << p.daemonPeakRssMb << "}";
  return os.str();
}

std::string hostJson(const Config& cfg) {
  utsname u{};
  ::uname(&u);
  std::ostringstream os;
  os.precision(10);
  std::ostringstream cpus;
  for (size_t i = 0; i < cfg.cpus.size(); ++i) cpus << (i ? ", " : "") << cfg.cpus[i];
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_rotation\": ["
     << cpus.str() << "], \"sched_policy\": \""
     << (::sched_getscheduler(0) == SCHED_BATCH ? "batch" : "other") << "\""
     << ", \"kernel\": \"" << u.sysname << " " << u.release << "\""
     << ", \"machine\": \"" << u.machine << "\""
     << ", \"compiler\": \"" << __VERSION__ << "\""
     << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"daemons\": " << cfg.daemons << ", \"client_threads\": " << cfg.clients
     << ", \"replication\": " << cfg.replication << ", \"preload\": " << cfg.preload
     << ", \"seed\": " << cfg.seed << ", \"seconds\": " << cfg.seconds
     << ", \"round_ops_per_client\": " << cfg.roundOps << ", \"window_s\": " << kWindowSeconds
     << ", \"slice_ops\": " << kSliceOps
     << ", \"count_window_ops_per_client\": " << cfg.countOps
     << ", \"scan_span\": " << cfg.span << "}";
  return os.str();
}

struct Phase {
  PhaseResult result;
  size_t rounds = 0;
  std::vector<double> setupSeconds;
  u64 checkFailures = 0;  ///< warm-sweep and read-back mismatches
};

/// Rounds until `budgetSeconds` of timed work is spent, and at least one:
/// another round starts only if a round of the average length still fits.
/// Each round gets a fresh deployment (timed as set-up), runs, and is read
/// back whole through a fresh client. Every round starts from the same
/// preload and runs the same ops, so every round measures the same work
/// and ingest never outgrows the leaf cache. With `idleCpuPct`, the
/// daemons' idle CPU is measured on the first deployment; with `traceOut`,
/// the first round's spans are written as a Chrome trace.
Phase runPhase(const Config& cfg, const std::vector<Record>& preload, bool traced,
               double budgetSeconds, size_t& deployments, double* idleCpuPct,
               const std::string& traceOut) {
  Phase phase;
  size_t window = 0;
  double timed = 0.0;
  for (size_t r = 0; r == 0 || timed + timed / static_cast<double>(r) <= budgetSeconds;
       ++r) {
    auto dep = deploy(cfg, preload, traced, deployments++);
    phase.setupSeconds.push_back(dep->setupSeconds);
    phase.checkFailures += dep->warmMismatches;
    if (idleCpuPct != nullptr && r == 0) {
      const ProcSample i0 = dep->cluster->sample();
      const u64 t0 = nowNs();
      std::this_thread::sleep_for(kIdleWindow);
      const ProcSample i1 = dep->cluster->sample();
      *idleCpuPct = 100.0 * ratio(static_cast<double>(i1.cpuNs - i0.cpuNs),
                                  static_cast<double>(nowNs() - t0));
    }
    std::vector<Record> inserted;
    timed += runRound(cfg, *dep, preload, budgetSeconds, r == 0, window, phase.result,
                      inserted);
    phase.rounds += 1;
    if (r == 0 && !traceOut.empty()) {
      std::vector<const Tracer*> tracers;
      for (const auto& c : dep->clients) tracers.push_back(c->tracer.get());
      if (!writeChromeTrace(traceOut, tracers)) {
        std::fprintf(stderr, "lht_perfbench: cannot write %s\n", traceOut.c_str());
      }
    }
    std::vector<Record> expected = preload;
    expected.insert(expected.end(), inserted.begin(), inserted.end());
    std::sort(expected.begin(), expected.end(), lht::index::recordLess);
    phase.checkFailures +=
        sweepMismatches(cfg, dep->cluster->seed(), expected, cfg.seed * 4099 + 3);
  }
  return phase;
}

int run(const Config& cfg) {
  const std::vector<Record> preload = makePreload(cfg.preload, cfg.seed);
  size_t deployments = 0;
  Phase plain, traced;
  double idleCpuPct = 0.0;
  if (!cfg.trace) {
    plain = runPhase(cfg, preload, false, cfg.seconds, deployments, nullptr, "");
  } else {
    // The same workload and seed, untraced and then traced; the phases
    // share the run's --seconds.
    plain = runPhase(cfg, preload, false, cfg.seconds / 2, deployments, &idleCpuPct, "");
    traced = runPhase(cfg, preload, true, cfg.seconds / 2, deployments, nullptr,
                      cfg.traceOut);
  }
  std::vector<double> setupTimes = plain.setupSeconds;
  setupTimes.insert(setupTimes.end(), traced.setupSeconds.begin(), traced.setupSeconds.end());
  const double setupS = median(setupTimes);

  const u64 attempted = plain.result.ops + traced.result.ops;
  const u64 failed = plain.result.failed + traced.result.failed + plain.checkFailures +
                     traced.checkFailures;
  const bool correct = failed == 0;

  Metrics result = cfg.trace ? perLayer(plain.result, traced.result, idleCpuPct)
                             : endToEnd(plain.result, setupS);
  std::ostringstream report;
  report.precision(10);
  report << "{\"benchmark\": \"lht_perfbench\", \"workload\": \"" << cfg.workloadName
         << "\", \"trace\": " << (cfg.trace ? "true" : "false")
         << ", \"host\": " << hostJson(cfg) << ", \"setup_s\": {\"median\": " << setupS
         << ", \"runs\": " << list(setupTimes) << "}, \"error_rate\": {\"value\": "
         << ratio(failed, attempted) << ", \"unit\": \"ratio\"}, \"check_failures\": "
         << plain.checkFailures + traced.checkFailures
         << ", \"untraced\": " << phaseJson(plain.result)
         << ", \"end_to_end\": " << endToEnd(plain.result, setupS).json();
  if (cfg.trace) {
    report << ", \"traced\": " << phaseJson(traced.result)
           << ", \"per_layer\": " << result.json() << ", \"chrome_trace\": \""
           << cfg.traceOut << "\"";
  }
  report << "}";
  std::printf("%s\n", report.str().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), result.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  lht::common::Flags flags("lht_perfbench",
                           "LHT over a live lht_noded cluster, end to end and per layer");
  flags.define("workload", "lookup", "lookup | ingest | scan");
  flags.define("seed", "1", "workload seed");
  flags.define("seconds", "30", "timed seconds to spend on rounds (halved per phase with --trace)");
  flags.define("trace", "false", "run the untraced and the traced phase");
  flags.define("noded", PERFBENCH_NODED_PATH, "lht_noded binary");
  flags.define("trace-out", "", "Chrome trace file of the traced phase");
  flags.define("preload", "100000", "records bulk-loaded before the workload");
  flags.define("round-ops", "0",
               "ops in each round, all clients together (0 = the workload's default)");
  flags.define("count-ops", "0",
               "ops per client in the count window (0 = the workload's default)");
  if (!flags.parse(argc, argv)) return 2;

  Config cfg;
  cfg.workloadName = flags.getString("workload");
  // Per workload: ops in each round (all clients together; about 6 s on a
  // shared 4-vCPU x86-64 VM) and the count window per client.
  size_t defaultRoundOps = 0;
  size_t defaultCountOps = 0;
  if (cfg.workloadName == "lookup") {
    cfg.workload = Workload::Lookup;
    defaultRoundOps = 200000;
    defaultCountOps = 20000;
  } else if (cfg.workloadName == "ingest") {
    cfg.workload = Workload::Ingest;
    defaultRoundOps = 50000;
    defaultCountOps = 10000;
  } else if (cfg.workloadName == "scan") {
    cfg.workload = Workload::Scan;
    defaultRoundOps = 18000;
    defaultCountOps = 4000;
  } else {
    std::fprintf(stderr, "lht_perfbench: unknown --workload=%s\n", cfg.workloadName.c_str());
    return 2;
  }
  cfg.seed = static_cast<u64>(flags.getInt("seed"));
  cfg.seconds = flags.getDouble("seconds");
  cfg.trace = flags.getBool("trace");
  cfg.noded = flags.getString("noded");
  cfg.traceOut = flags.getString("trace-out");
  cfg.preload = static_cast<size_t>(flags.getInt("preload"));
  cfg.clients = cfg.workload == Workload::Lookup ? kLookupClients : 1;
  const auto roundOps = flags.getInt("round-ops") > 0
                            ? static_cast<size_t>(flags.getInt("round-ops"))
                            : defaultRoundOps;
  cfg.roundOps = std::max<size_t>(1, roundOps / cfg.clients);
  cfg.countOps = std::min(cfg.roundOps, flags.getInt("count-ops") > 0
                                            ? static_cast<size_t>(flags.getInt("count-ops"))
                                            : defaultCountOps);
  if (cfg.seconds <= 0 || cfg.preload == 0) {
    std::fprintf(stderr, "lht_perfbench: --seconds and --preload must be positive\n");
    return 2;
  }

  if (const auto strays = strayDaemons(); !strays.empty()) {
    std::fprintf(stderr,
                 "lht_perfbench: %zu lht_noded process(es) already running (pid %d); "
                 "stop them first, they share the cores being measured\n",
                 strays.size(), static_cast<int>(strays.front()));
    return 2;
  }
  installSignalCleanup();
  // SCHED_BATCH: a woken peer does not preempt the sender, so on one CPU
  // each process runs until it blocks and a send span holds only the send.
  // Every thread and daemon started later inherits the policy.
  const sched_param none{};
  ::sched_setscheduler(0, SCHED_BATCH, &none);
  cfg.cpus = allowedCpus();
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lht_perfbench: %s\n", e.what());
    return 2;
  }
}
