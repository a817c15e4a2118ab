#include "exec/client_fleet.h"

#include <chrono>
#include <utility>

#include "common/types.h"
#include "net/sim_network.h"

namespace lht::exec {

namespace {

const char* opMetricName(workload::Operation::Kind k) {
  using Kind = workload::Operation::Kind;
  switch (k) {
    case Kind::Insert:
      return "fleet.op.insert.sim_ms";
    case Kind::Erase:
      return "fleet.op.erase.sim_ms";
    case Kind::Find:
      return "fleet.op.find.sim_ms";
    case Kind::Range:
      return "fleet.op.range.sim_ms";
    case Kind::Min:
    case Kind::Max:
      return "fleet.op.minmax.sim_ms";
  }
  return "fleet.op.other.sim_ms";
}

OpKind historyKind(workload::Operation::Kind k) {
  using Kind = workload::Operation::Kind;
  switch (k) {
    case Kind::Insert:
      return OpKind::Insert;
    case Kind::Erase:
      return OpKind::Erase;
    case Kind::Find:
      return OpKind::Find;
    case Kind::Range:
      return OpKind::Range;
    case Kind::Min:
    case Kind::Max:
      return OpKind::MinMax;
  }
  return OpKind::MinMax;
}

}  // namespace

ClientFleet::ClientFleet(StackFactory factory, FleetOptions options)
    : opts_(std::move(options)) {
  common::checkInvariant(opts_.clients >= 1, "ClientFleet: need >= 1 client");
  common::checkInvariant(opts_.chunkSize >= 1,
                         "ClientFleet: chunkSize must be >= 1");
  clients_.reserve(opts_.clients);
  for (size_t i = 0; i < opts_.clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    c->history = History(i);
    c->stack = factory(i, c->clock);
    common::checkInvariant(c->stack.top != nullptr,
                           "ClientFleet: StackFactory returned a null top");
    core::LhtIndex::Options io = opts_.index;
    // Client 0 bootstraps the root leaf — unless the caller attaches the
    // whole fleet to an index that already exists (e.g. querying a
    // preloaded tree mid-churn), in which case nobody may clobber it.
    io.attachExisting = opts_.index.attachExisting || i > 0;
    io.clientSeed = opts_.clientSeedBase + i;
    // Lease expiry must tick on the clock the client's latency decorators
    // advance, so each client's leases age with its own simulated time.
    if (io.leasedReads && io.leaseClock == nullptr) io.leaseClock = &c->clock;
    // Construction writes (the bootstrap put) charge this client's clock
    // and land in its private registry, same as its ops will.
    net::ThreadClockScope clockScope(c->clock);
    obs::ScopedObservability sinks(&c->metrics, &c->tracer);
    c->index = std::make_unique<core::LhtIndex>(*c->stack.top, io);
    clients_.push_back(std::move(c));
  }
}

ClientFleet::~ClientFleet() = default;

bool ClientFleet::runOp(Client& c, const workload::Operation& op) {
  using Kind = workload::Operation::Kind;
  OpRecord rec;
  rec.kind = historyKind(op.kind);
  rec.key = op.key;
  rec.hi = op.hi;
  rec.invokeMs = nextTick();
  const common::u64 simBefore = c.clock.nowMs();
  bool failed = false;
  try {
    switch (op.kind) {
      case Kind::Insert: {
        const auto r = c.index->insert({op.key, op.payload});
        rec.ok = r.ok;
        rec.value = op.payload;
        break;
      }
      case Kind::Erase: {
        const auto r = c.index->erase(op.key);
        rec.ok = r.ok;
        break;
      }
      case Kind::Find: {
        auto r = c.index->find(op.key);
        rec.ok = true;
        if (r.record) rec.value = r.record->payload;
        break;
      }
      case Kind::Range: {
        const auto r = c.index->rangeQuery(op.key, op.hi);
        rec.ok = true;
        rec.keys.reserve(r.records.size());
        for (const auto& record : r.records) rec.keys.push_back(record.key);
        break;
      }
      case Kind::Min: {
        auto r = c.index->minRecord();
        rec.ok = true;
        if (r.record) rec.value = r.record->payload;
        break;
      }
      case Kind::Max: {
        auto r = c.index->maxRecord();
        rec.ok = true;
        if (r.record) rec.value = r.record->payload;
        break;
      }
    }
  } catch (const dht::DhtError&) {
    rec.ok = false;
    failed = true;
  } catch (const dht::CrashError&) {
    rec.ok = false;
    failed = true;
  }
  rec.returnMs = nextTick();
  obs::observeMs(opMetricName(op.kind),
                 static_cast<double>(c.clock.nowMs() - simBefore));
  if (failed) obs::count("fleet.op.failed");
  c.history.append(std::move(rec));
  return failed;
}

void ClientFleet::runChunk(Client& c, WorkStealingPool& pool) {
  net::ThreadClockScope clockScope(c.clock);
  obs::ScopedObservability sinks(&c.metrics, &c.tracer);
  const size_t end = std::min(c.cursor + opts_.chunkSize, c.ops.size());
  for (; c.cursor < end; ++c.cursor) {
    if (opts_.openLoopInterarrivalMs > 0) {
      c.clock.advanceTo(static_cast<common::u64>(c.cursor) *
                        opts_.openLoopInterarrivalMs);
    }
    runOp(c, c.ops[c.cursor]);
  }
  if (c.cursor < c.ops.size()) {
    pool.submit([this, &c, &pool] { runChunk(c, pool); });
  }
}

FleetResult ClientFleet::run(const std::vector<workload::Operation>& trace,
                             WorkStealingPool& pool) {
  for (auto& c : clients_) {
    c->ops.clear();
    c->cursor = 0;
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    clients_[i % clients_.size()]->ops.push_back(trace[i]);
  }
  const auto wallStart = std::chrono::steady_clock::now();
  const common::u64 stealsBefore = pool.stealCount();
  for (auto& c : clients_) {
    if (c->ops.empty()) continue;
    Client* client = c.get();
    pool.submit([this, client, &pool] { runChunk(*client, pool); });
  }
  pool.wait();
  const auto wallEnd = std::chrono::steady_clock::now();

  FleetResult result;
  result.elapsedWallMs =
      std::chrono::duration<double, std::milli>(wallEnd - wallStart).count();
  result.steals = pool.stealCount() - stealsBefore;
  result.opsTotal = trace.size();
  for (auto& c : clients_) {
    result.metrics.mergeFrom(c->metrics);
    result.trace.mergeFrom(c->tracer);
    result.histories.push_back(c->history);
    result.elapsedSimMs = std::max(result.elapsedSimMs, c->clock.nowMs());
  }
  result.opsFailed =
      static_cast<size_t>(result.metrics.counterValue("fleet.op.failed"));
  return result;
}

}  // namespace lht::exec
