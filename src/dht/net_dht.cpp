#include "dht/net_dht.h"

#include <algorithm>
#include <numeric>

#include "common/types.h"

namespace lht::dht {

using common::u64;
using namespace rpc::wire;  // NOLINT — this file IS the protocol client

// --- Connection pool --------------------------------------------------------

class NetDht::Lease {
 public:
  explicit Lease(const NetDht& dht) : dht_(dht) {
    std::lock_guard<std::mutex> lock(dht_.poolMutex_);
    if (dht_.freeConns_.empty()) {
      auto conn = std::make_unique<Conn>();
      conn->transport = dht_.makeTransport_();
      conn->rpc = std::make_unique<rpc::RpcClient>(*conn->transport,
                                                   dht_.opts_.rpc);
      dht_.conns_.push_back(std::move(conn));
      idx_ = dht_.conns_.size() - 1;
    } else {
      idx_ = dht_.freeConns_.back();
      dht_.freeConns_.pop_back();
    }
    // Resolve the Conn pointer while still holding poolMutex_: a
    // concurrent Lease's push_back may reallocate conns_'s buffer, so
    // rpc() must never re-index it unlocked. The unique_ptr pointee is
    // stable across reallocation, and this slot is ours until ~Lease.
    conn_ = dht_.conns_[idx_].get();
  }
  ~Lease() {
    std::lock_guard<std::mutex> lock(dht_.poolMutex_);
    dht_.freeConns_.push_back(idx_);
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  [[nodiscard]] rpc::RpcClient& rpc() { return *conn_->rpc; }

 private:
  const NetDht& dht_;
  size_t idx_;
  Conn* conn_;
};

// --- Construction -----------------------------------------------------------

NetDht::NetDht(Options options, TransportFactory makeTransport)
    : opts_(std::move(options)),
      ring_(opts_.nodes.size(), opts_.virtualNodes),
      makeTransport_(std::move(makeTransport)) {
  common::checkInvariant(!opts_.nodes.empty(), "NetDht: need >= 1 node");
  common::checkInvariant(opts_.replication >= 1, "NetDht: replication >= 1");
  common::checkInvariant(opts_.maxKeysPerDatagram >= 1,
                         "NetDht: maxKeysPerDatagram >= 1");
}

NetDht::~NetDht() = default;

size_t NetDht::replicaFanout() const {
  return std::min(opts_.replication, opts_.nodes.size()) - 1;
}

std::vector<rpc::NetAddr> NetDht::replicaAddrs(const Key& key) const {
  const auto holders = ring_.holders(key, replicaFanout());
  std::vector<rpc::NetAddr> out;
  out.reserve(holders.size());
  for (size_t i = 1; i < holders.size(); ++i) out.push_back(addrOf(holders[i]));
  return out;
}

namespace {

void checkStatus(const rpc::RpcClient::Result& r, const char* op,
                 const Key& key) {
  detail::checkStatus(r, "NetDht", op, key);
}

}  // namespace

// --- Single-key ops ---------------------------------------------------------

void NetDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  readSlots_.clear();
  stats_.lookups += 1;
  stats_.puts += 1;
  stats_.hops += 1;  // client -> owner, single-hop by construction
  stats_.valueBytesMoved += value.size();
  Lease lease(*this);
  auto r = lease.rpc().callOne(ownerAddr(key), PutReq{key, value});
  checkStatus(r, "put", key);
  const u64 version = std::get<PutRep>(r.body).version;
  detail::replicate(lease.rpc(), replicaAddrs(key), key, value, version);
}

std::optional<Value> NetDht::get(const Key& key) {
  RoutedOpScope scope(*this, "dht.get", key);
  readSlots_.clear();  // a get that throws leaves no read behind
  stats_.lookups += 1;
  stats_.gets += 1;
  stats_.hops += 1;
  Lease lease(*this);
  auto r = lease.rpc().callOne(ownerAddr(key), GetReq{key});
  checkStatus(r, "get", key);
  auto& rep = std::get<GetRep>(r.body);
  readSlots_.fill(key, rep);
  if (!rep.present) return std::nullopt;
  stats_.valueBytesMoved += rep.value.size();
  return std::move(rep.value);
}

bool NetDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  readSlots_.clear();
  stats_.lookups += 1;
  stats_.removes += 1;
  stats_.hops += 1;
  Lease lease(*this);
  auto r = lease.rpc().callOne(ownerAddr(key), RemoveReq{key});
  checkStatus(r, "remove", key);
  const bool existed = std::get<RemoveRep>(r.body).existed;
  if (existed) {
    detail::replicate(lease.rpc(), replicaAddrs(key), key, std::nullopt, 0);
  }
  return existed;
}

bool NetDht::apply(const Key& key, const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  auto start = readSlots_.take(key);
  stats_.lookups += 1;
  stats_.applies += 1;
  stats_.hops += 1;
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  const rpc::NetAddr& owner = ownerAddr(key);
  const detail::KeyRoute route{
      cli, [&](const RequestBody& body) { return cli.callOne(owner, body); },
      [&] { return replicaAddrs(key); }, "NetDht"};
  return detail::readModifyWrite(route, key, fn, std::move(start),
                                 opts_.casRetries, stats_.valueBytesMoved);
}

// --- Batch rounds -----------------------------------------------------------

std::vector<detail::Fetched> NetDht::fetch(rpc::RpcClient& cli,
                                           const std::vector<Key>& keys) {
  std::vector<detail::Fetched> out(keys.size());
  std::vector<size_t> pending(keys.size());
  std::iota(pending.begin(), pending.end(), size_t{0});
  // Each round re-sends only the unanswered tails of prefix replies; every
  // reply answers or fails at least one entry, so the loop terminates.
  while (!pending.empty()) {
    const auto chunks = detail::packChunks(
        pending, opts_.maxKeysPerDatagram, opts_.maxBytesPerDatagram,
        [&](size_t i) { return ring_.ownerIndex(keys[i]); },
        [&](size_t i) { return keys[i].size() + 8; });
    std::vector<rpc::RpcClient::Token> tokens;
    tokens.reserve(chunks.size());
    for (const detail::Chunk& c : chunks) {
      MultiGetReq req;
      req.entries.reserve(c.entries.size());
      for (size_t i : c.entries) req.entries.push_back(GetReq{keys[i]});
      tokens.push_back(cli.call(addrOf(c.owner), std::move(req)));
    }
    cli.settle();

    std::vector<size_t> tail;
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      auto r = cli.take(tokens[ci]);
      if (detail::foldMultiGetReply(chunks[ci], r, out, tail,
                                    "NetDht::multiGet")) {
        continue;
      }
      const std::string err = r.timedOut
                                  ? "NetDht::multiGet: rpc timeout"
                                  : std::string("NetDht::multiGet: status ") +
                                        statusName(r.status);
      for (size_t i : chunks[ci].entries) out[i].error = err;
    }
    pending = std::move(tail);
  }
  return out;
}

std::vector<GetOutcome> NetDht::multiGet(const std::vector<Key>& keys) {
  readSlots_.clear();
  if (keys.empty()) return {};
  obs::SpanScope span("dht.multiGet", "dht");
  stats_.batchRounds += 1;
  stats_.lookups += keys.size();
  stats_.gets += keys.size();
  stats_.hops += keys.size();

  Lease lease(*this);
  return detail::toGetOutcomes(fetch(lease.rpc(), keys), stats_.valueBytesMoved);
}

std::vector<ApplyOutcome> NetDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  readSlots_.clear();
  if (reqs.empty()) return {};
  obs::SpanScope span("dht.multiApply", "dht");
  stats_.batchRounds += 1;
  stats_.lookups += reqs.size();
  stats_.applies += reqs.size();
  stats_.hops += reqs.size();

  std::vector<ApplyOutcome> out(reqs.size());
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();

  // Snapshot phase: every key through the MultiGet path; the fetched
  // (present, version, value) is each entry's CAS state, refreshed by
  // conflict replies.
  std::vector<Key> keys;
  keys.reserve(reqs.size());
  for (const ApplyRequest& req : reqs) keys.push_back(req.key);
  std::vector<detail::Fetched> state = fetch(cli, keys);
  std::vector<bool> existedAtFirstCas(reqs.size(), false);
  std::vector<size_t> active;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (state[i].ok) {
      active.push_back(i);
    } else {
      out[i].error = "NetDht::multiApply: snapshot failed (" + state[i].error + ")";
    }
  }

  // CAS rounds: run mutators locally, batch the writes, retry conflicts.
  std::vector<std::pair<Key, std::pair<std::optional<Value>, u64>>> toReplicate;
  for (size_t round = 0; round < opts_.casRetries && !active.empty(); ++round) {
    std::vector<size_t> casEntries;   // indices into reqs
    std::vector<CasReq> casReqs;
    for (size_t i : active) {
      GetRep& s = state[i].rep;
      std::optional<Value> v =
          s.present ? std::optional<Value>(s.value) : std::nullopt;
      reqs[i].fn(v);
      if (!v.has_value() && !s.present) {  // absent -> absent: no-op
        out[i].ok = true;
        out[i].existed = false;
        continue;
      }
      if (v.has_value() && s.present && *v == s.value) {  // no change
        out[i].ok = true;
        out[i].existed = true;
        continue;
      }
      if (v.has_value()) stats_.valueBytesMoved += v->size();
      existedAtFirstCas[i] = s.present;
      casEntries.push_back(i);
      casReqs.push_back(
          CasReq{reqs[i].key, s.version, v.has_value(), v.value_or(Value{})});
    }
    active.clear();
    if (casEntries.empty()) break;

    std::vector<size_t> positions(casEntries.size());
    std::iota(positions.begin(), positions.end(), size_t{0});
    const auto chunks = detail::packChunks(
        positions, opts_.maxKeysPerDatagram, opts_.maxBytesPerDatagram,
        [&](size_t j) { return ring_.ownerIndex(casReqs[j].key); },
        [&](size_t j) { return casReqs[j].key.size() + casReqs[j].value.size() + 16; });
    std::vector<rpc::RpcClient::Token> tokens;
    tokens.reserve(chunks.size());
    for (const detail::Chunk& c : chunks) {
      MultiCasReq req;
      for (size_t j : c.entries) req.entries.push_back(casReqs[j]);
      tokens.push_back(cli.call(addrOf(c.owner), std::move(req)));
    }
    cli.settle();
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      auto r = cli.take(tokens[ci]);
      if (r.timedOut || r.status != Status::Ok) {
        // Lost reply: the CAS may or may not have executed — exactly the
        // documented lost-reply semantics for a failed apply entry.
        for (size_t j : chunks[ci].entries) {
          out[casEntries[j]].error = "NetDht::multiApply: cas rpc timeout";
        }
        continue;
      }
      auto& rep = std::get<MultiCasRep>(r.body);
      for (size_t k = 0; k < rep.entries.size(); ++k) {
        const size_t j = chunks[ci].entries[k];
        const size_t i = casEntries[j];
        CasRep& cr = rep.entries[k];
        if (cr.applied) {
          out[i].ok = true;
          out[i].existed = existedAtFirstCas[i];
          toReplicate.emplace_back(
              reqs[i].key,
              std::make_pair(casReqs[j].present
                                 ? std::optional<Value>(casReqs[j].value)
                                 : std::nullopt,
                             cr.currentVersion));
        } else {
          GetRep& s = state[i].rep;
          s.present = cr.currentPresent;
          s.version = cr.currentVersion;
          s.value = std::move(cr.currentValue);
          active.push_back(i);  // conflict: retry next round
        }
      }
    }
  }
  for (size_t i : active) {
    out[i].error = "NetDht::multiApply: CAS contention exhausted";
  }

  // Replica pushes for every applied mutation, all in one settle.
  std::vector<rpc::RpcClient::Token> tokens;
  for (const auto& [key, vv] : toReplicate) {
    detail::startReplicaWrites(cli, replicaAddrs(key), key, vv.first, vv.second,
                               tokens);
  }
  detail::settleReplicaWrites(cli, tokens);
  return out;
}

// --- Unrouted / admin -------------------------------------------------------

void NetDht::storeDirect(const Key& key, Value value) {
  readSlots_.clear();
  Lease lease(*this);
  auto r = lease.rpc().callOne(ownerAddr(key), PutReq{key, value});
  checkStatus(r, "storeDirect", key);
  detail::replicate(lease.rpc(), replicaAddrs(key), key, value,
                    std::get<PutRep>(r.body).version);
}

std::optional<Value> NetDht::getReplica(const Key& key, size_t replicaIndex) {
  RoutedOpScope scope(*this, "dht.get_replica", key);
  readSlots_.clear();
  stats_.lookups += 1;
  stats_.gets += 1;
  stats_.hops += 1;
  if (replicaIndex >= replicaFanout()) {
    throw DhtError("NetDht::getReplica: no replica " +
                   std::to_string(replicaIndex) + " (fanout " +
                   std::to_string(replicaFanout()) + ")");
  }
  const rpc::NetAddr holder = replicaAddrs(key)[replicaIndex];
  Lease lease(*this);
  auto r = lease.rpc().callOne(holder, ReplicaGetReq{key});
  if (r.timedOut) {
    // A holder that stays silent through every retransmit is down, as far
    // as this client can tell — that is the failover decorators' cue.
    throw DhtPeerDownError("NetDht::getReplica: holder " + holder.str() +
                           " unresponsive for \"" + key + "\"");
  }
  checkStatus(r, "getReplica", key);
  auto& rep = std::get<GetRep>(r.body);
  if (!rep.present) return std::nullopt;
  stats_.valueBytesMoved += rep.value.size();
  return std::move(rep.value);
}

void NetDht::syncStorage() {
  readSlots_.clear();
  Lease lease(*this);
  std::vector<rpc::RpcClient::Token> tokens;
  for (size_t n = 0; n < opts_.nodes.size(); ++n) {
    tokens.push_back(lease.rpc().call(addrOf(n), SyncReq{}));
  }
  lease.rpc().settle();
  for (auto t : tokens) (void)lease.rpc().take(t);
}

void NetDht::compactStorage() {
  readSlots_.clear();
  Lease lease(*this);
  std::vector<rpc::RpcClient::Token> tokens;
  for (size_t n = 0; n < opts_.nodes.size(); ++n) {
    tokens.push_back(lease.rpc().call(addrOf(n), CompactReq{}));
  }
  lease.rpc().settle();
  for (auto t : tokens) (void)lease.rpc().take(t);
}

size_t NetDht::size() const {
  readSlots_.clear();
  Lease lease(*this);
  std::vector<rpc::RpcClient::Token> tokens;
  for (size_t n = 0; n < opts_.nodes.size(); ++n) {
    tokens.push_back(lease.rpc().call(addrOf(n), SizeReq{}));
  }
  lease.rpc().settle();
  size_t total = 0;
  for (auto t : tokens) {
    auto r = lease.rpc().take(t);
    if (r.timedOut) {
      throw DhtTimeoutError("NetDht::size: a node did not answer");
    }
    total += static_cast<size_t>(std::get<SizeRep>(r.body).primaryKeys);
  }
  return total;
}

bool NetDht::pingAll(u64 deadlineMs) {
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  const u64 start = cli.transport().nowMs();
  std::vector<bool> up(opts_.nodes.size(), false);
  size_t remaining = opts_.nodes.size();
  while (remaining > 0) {
    // Ping every still-silent node concurrently: a round costs at most
    // one requestDeadline regardless of how many nodes are down, so the
    // overshoot past deadlineMs is bounded by a single request deadline
    // — not one per unresponsive node.
    std::vector<std::pair<size_t, rpc::RpcClient::Token>> round;
    round.reserve(remaining);
    for (size_t n = 0; n < opts_.nodes.size(); ++n) {
      if (!up[n]) round.emplace_back(n, cli.call(addrOf(n), PingReq{}));
    }
    cli.settle();
    for (const auto& [n, t] : round) {
      auto r = cli.take(t);
      if (!r.timedOut && r.status == Status::Ok) {
        up[n] = true;
        remaining -= 1;
      }
    }
    if (remaining == 0) return true;
    if (cli.transport().nowMs() - start >= deadlineMs) return false;
  }
  return true;
}

NetDht::NetStats NetDht::netStats() const {
  NetStats s;
  std::lock_guard<std::mutex> lock(poolMutex_);
  for (const auto& conn : conns_) {
    const auto& t = conn->transport->stats();
    s.datagramsSent += t.datagramsSent;
    s.datagramsReceived += t.datagramsReceived;
    s.bytesSent += t.bytesSent;
    s.bytesReceived += t.bytesReceived;
    const auto& r = conn->rpc->stats();
    s.requestsStarted += r.requestsStarted;
    s.retransmits += r.retransmits;
    s.timeouts += r.timeouts;
  }
  s.connections = conns_.size();
  return s;
}

}  // namespace lht::dht
