#include "dht/routed_net_dht.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"
#include "common/types.h"

namespace lht::dht {

using common::u64;
using namespace rpc::wire;  // NOLINT — this file IS the protocol client

namespace {

/// Batch regroup rounds (after a Redirect, a timeout, or an owner missing
/// from the view). Re-sending a prefix reply's tail is free.
constexpr size_t kMaxBatchRounds = 4;

/// One outgoing batch datagram: entry positions packed for one owner.
struct Chunk {
  u64 owner = 0;
  std::vector<size_t> entries;
};

/// Groups `items` by `ownerOf(i)`, opening a new chunk whenever one hits
/// rpc::kBatchKeysPerDatagram entries or rpc::kBatchBytesPerDatagram of
/// `byteCost(i)` (the entry's request footprint).
template <typename OwnerOf, typename ByteCost>
std::vector<Chunk> packChunks(const std::vector<size_t>& items,
                              OwnerOf ownerOf, ByteCost byteCost) {
  std::vector<Chunk> chunks;
  std::vector<size_t> chunkBytes;
  std::unordered_map<u64, size_t> open;  // owner -> open chunk
  for (size_t i : items) {
    const u64 owner = ownerOf(i);
    const size_t cost = byteCost(i);
    auto it = open.find(owner);
    if (it == open.end() ||
        chunks[it->second].entries.size() >= rpc::kBatchKeysPerDatagram ||
        chunkBytes[it->second] + cost > rpc::kBatchBytesPerDatagram) {
      it = open.insert_or_assign(owner, chunks.size()).first;
      chunks.push_back(Chunk{owner, {}});
      chunkBytes.push_back(0);
    }
    chunks[it->second].entries.push_back(i);
    chunkBytes[it->second] += cost;
  }
  return chunks;
}

/// Throws for a single-key reply that is not Ok: DhtTimeoutError when the
/// request timed out, DhtError otherwise. `op` names the Dht call.
void checkStatus(const rpc::RpcClient::Result& r, const char* op,
                 const Key& key) {
  if (r.timedOut) {
    throw DhtTimeoutError(std::string("RoutedNetDht::") + op +
                          ": rpc timeout on \"" + key + "\"");
  }
  if (r.status != Status::Ok) {
    throw DhtError(std::string("RoutedNetDht::") + op + ": status " +
                   statusName(r.status) + " on \"" + key + "\"");
  }
}

/// Pushes one mutated key to its replica holders and settles: a
/// ReplicaPut of (`value`, `version`) to each, or a ReplicaRemove when
/// `value` is empty. The replies are dropped (best-effort, see header).
void replicate(rpc::RpcClient& cli, const std::vector<rpc::NetAddr>& replicas,
               const Key& key, const std::optional<Value>& value, u64 version) {
  if (replicas.empty()) return;
  std::vector<rpc::RpcClient::Token> tokens;
  tokens.reserve(replicas.size());
  for (const rpc::NetAddr& holder : replicas) {
    if (value.has_value()) {
      tokens.push_back(cli.call(holder, ReplicaPutReq{key, *value, version}));
    } else {
      tokens.push_back(cli.call(holder, ReplicaRemoveReq{key}));
    }
  }
  cli.settle();
  for (auto t : tokens) (void)cli.take(t);
}

}  // namespace

// --- Connection pool --------------------------------------------------------

class RoutedNetDht::Lease {
 public:
  explicit Lease(const RoutedNetDht& dht) : dht_(dht) {
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
  const RoutedNetDht& dht_;
  size_t idx_;
  Conn* conn_;
};

// --- Construction -----------------------------------------------------------

RoutedNetDht::RoutedNetDht(Options options, TransportFactory makeTransport)
    : opts_(std::move(options)), makeTransport_(std::move(makeTransport)) {
  common::checkInvariant(opts_.replication >= 1,
                         "RoutedNetDht: replication >= 1");
  common::checkInvariant(opts_.maxAttempts >= 1,
                         "RoutedNetDht: maxAttempts >= 1");
  common::checkInvariant(
      (opts_.seed != rpc::NetAddr{}) == opts_.members.empty(),
      "RoutedNetDht: set exactly one of seed and members");
  if (!opts_.members.empty()) {
    view_ = makeView(overlay::launchTable(opts_.members));
  }
}

RoutedNetDht::~RoutedNetDht() = default;

// --- View maintenance -------------------------------------------------------

std::shared_ptr<const RoutedNetDht::View> RoutedNetDht::makeView(
    const std::vector<NodeEntry>& table) const {
  auto v = std::make_shared<View>();
  v->ring = overlay::MemberRing(table, opts_.virtualNodes);
  for (const NodeEntry& e : table) {
    if (e.state > static_cast<common::u8>(overlay::NodeState::Suspect)) {
      continue;
    }
    v->addrs.emplace(e.id, overlay::addrOf(e));
    v->pullTargets.push_back(overlay::addrOf(e));
  }
  if (v->addrs.empty()) return nullptr;
  return v;
}

std::shared_ptr<const RoutedNetDht::View> RoutedNetDht::view() const {
  std::lock_guard<std::mutex> lock(viewMutex_);
  return view_;
}

std::shared_ptr<const RoutedNetDht::View> RoutedNetDht::requireView() const {
  auto v = view();
  if (!v) {
    throw DhtTimeoutError(
        "RoutedNetDht: not bootstrapped (seed never answered)");
  }
  return v;
}

void RoutedNetDht::noteHint(const std::optional<GossipHint>& hint) {
  if (!hint || hint->senderId == 0) return;
  std::lock_guard<std::mutex> lock(viewMutex_);
  auto it = hintVersions_.find(hint->senderId);
  if (it == hintVersions_.end()) {
    hintVersions_.emplace(hint->senderId, hint->version);
    return;
  }
  if (hint->version > it->second) {
    // Someone's table moved since we last looked: our ring may be stale.
    it->second = hint->version;
    refreshWanted_ = true;
    routedStats_.staleHints += 1;
  }
}

bool RoutedNetDht::pullView(rpc::RpcClient& cli, const rpc::NetAddr& from) {
  // senderId 0 marks a client pull: the node replies with its table
  // without trying to merge anything from us.
  auto r = cli.callOne(from, GossipSyncReq{});
  if (r.timedOut || r.status != Status::Ok) return false;
  const auto* rep = std::get_if<GossipSyncRep>(&r.body);
  if (rep == nullptr) return false;
  // An empty table (a bare NodeServer) leaves the view as it is.
  auto v = makeView(rep->entries);
  if (!v) return false;
  {
    std::lock_guard<std::mutex> lock(viewMutex_);
    const bool first = view_ == nullptr;
    view_ = std::move(v);
    refreshWanted_ = false;
    (first ? routedStats_.bootstraps : routedStats_.refreshes) += 1;
  }
  noteHint(r.hint);
  return true;
}

bool RoutedNetDht::refreshView(rpc::RpcClient& cli) {
  std::vector<rpc::NetAddr> targets;
  if (auto v = view()) targets = v->pullTargets;
  if (opts_.members.empty()) targets.push_back(opts_.seed);
  for (const rpc::NetAddr& t : targets) {
    if (pullView(cli, t)) return true;
  }
  return false;
}

bool RoutedNetDht::bootstrap(u64 deadlineMs) {
  const std::vector<rpc::NetAddr> from =
      opts_.members.empty() ? std::vector<rpc::NetAddr>{opts_.seed}
                            : opts_.members;
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  const u64 start = cli.transport().nowMs();
  while (true) {
    for (const rpc::NetAddr& a : from) {
      if (pullView(cli, a)) return true;
    }
    if (cli.transport().nowMs() - start >= deadlineMs) return false;
  }
}

size_t RoutedNetDht::knownMembers() const {
  auto v = view();
  return v ? v->addrs.size() : 0;
}

RoutedNetDht::RoutedStats RoutedNetDht::routedStats() const {
  RoutedStats s = routedStats_;
  std::lock_guard<std::mutex> lock(poolMutex_);
  s.connections = conns_.size();
  for (const auto& conn : conns_) {
    const auto& t = conn->transport->stats();
    s.datagramsSent += t.datagramsSent;
    s.datagramsReceived += t.datagramsReceived;
    const auto& r = conn->rpc->stats();
    s.requestsStarted += r.requestsStarted;
    s.retransmits += r.retransmits;
    s.timeouts += r.timeouts;
  }
  return s;
}

// --- Routed single-key calls ------------------------------------------------

rpc::RpcClient::Result RoutedNetDht::callRouted(rpc::RpcClient& cli,
                                                const Key& key,
                                                const RequestBody& body) {
  bool wantRefresh;
  {
    std::lock_guard<std::mutex> lock(viewMutex_);
    wantRefresh = refreshWanted_;
  }
  if (wantRefresh) refreshView(cli);

  auto v = view();
  rpc::RpcClient::Result last;
  last.timedOut = true;
  for (size_t attempt = 0; attempt < opts_.maxAttempts; ++attempt) {
    if (!v) {
      if (!refreshView(cli)) break;
      v = requireView();
    }
    const u64 owner = v->ring.owner(key);
    auto addrIt = v->addrs.find(owner);
    if (owner == 0 || addrIt == v->addrs.end()) {
      if (!refreshView(cli)) break;
      v = requireView();
      continue;
    }
    // Hop accounting: the op's first route is charged by the caller, one
    // hop straight to the owner the view names; only extra rounds
    // (redirects, refresh-retries after a timeout) add hops — so warm
    // mean hops sits at 1.0, and every topology stumble shows up as the
    // excess.
    if (attempt > 0) stats_.hops += 1;
    last = cli.callOne(addrIt->second, body);
    noteHint(last.hint);
    if (last.timedOut) {
      // The owner may have crashed; a fresher view routes to whoever the
      // survivors promoted for its range.
      routedStats_.retriesAfterTimeout += 1;
      refreshView(cli);
      v = view();
      continue;
    }
    if (last.status == Status::Redirect) {
      routedStats_.redirectsFollowed += 1;
      // The fresh owner itself is the best node to pull the table from.
      const auto* red = std::get_if<RedirectRep>(&last.body);
      const bool pulled =
          red != nullptr && red->host != 0 &&
          pullView(cli, rpc::NetAddr{red->host, red->port});
      if (!pulled) refreshView(cli);
      v = view();
      continue;
    }
    return last;
  }
  return last;  // timed out / redirect-looped: caller's checkStatus throws
}

// --- Replication ------------------------------------------------------------

size_t RoutedNetDht::replicaFanout() const {
  auto v = view();
  const size_t members = v ? v->ring.memberCount() : opts_.replication;
  return std::min(opts_.replication, std::max<size_t>(members, 1)) - 1;
}

std::vector<rpc::NetAddr> RoutedNetDht::replicaAddrs(const View& v,
                                                     const Key& key) const {
  std::vector<rpc::NetAddr> out;
  const size_t fanout = replicaFanout();
  if (fanout == 0) return out;
  const auto holders = v.ring.holders(key, fanout);
  for (size_t i = 1; i < holders.size(); ++i) {
    auto it = v.addrs.find(holders[i]);
    if (it != v.addrs.end()) out.push_back(it->second);
  }
  return out;
}

// --- Single-key ops ---------------------------------------------------------

void RoutedNetDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  stats_.lookups += 1;
  stats_.puts += 1;
  stats_.hops += 1;
  stats_.valueBytesMoved += value.size();
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, PutReq{key, value});
  checkStatus(r, "put", key);
  const u64 version = std::get<PutRep>(r.body).version;
  replicate(lease.rpc(), replicaAddrs(*requireView(), key), key, value,
            version);
}

std::optional<Value> RoutedNetDht::get(const Key& key) {
  return getIfChanged(key, 0).value;
}

GetOutcome RoutedNetDht::getIfChanged(const Key& key, u64 held) {
  RoutedOpScope scope(*this, "dht.get", key);
  stats_.lookups += 1;
  stats_.gets += 1;
  stats_.hops += 1;
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, GetReq{key, held});
  checkStatus(r, "get", key);
  auto& rep = std::get<GetRep>(r.body);
  if (held != 0) routedStats_.conditionalReads += 1;
  if (rep.unchanged) routedStats_.unchangedReads += 1;
  GetOutcome out;
  out.ok = true;
  out.unchanged = rep.unchanged;
  if (rep.present && !rep.unchanged) {
    stats_.valueBytesMoved += rep.value.size();
    out.value = std::move(rep.value);
  }
  return out;
}

bool RoutedNetDht::remove(const Key& key) {
  RoutedOpScope scope(*this, "dht.remove", key);
  stats_.lookups += 1;
  stats_.removes += 1;
  stats_.hops += 1;
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, RemoveReq{key});
  checkStatus(r, "remove", key);
  const bool existed = std::get<RemoveRep>(r.body).existed;
  if (existed) {
    replicate(lease.rpc(), replicaAddrs(*requireView(), key), key,
              std::nullopt, 0);
  }
  return existed;
}

bool RoutedNetDht::apply(const Key& key, const Mutator& fn) {
  return casLoop(key, nullptr, fn);
}

bool RoutedNetDht::applyFrom(const Key& key, const Value& start,
                             const Mutator& fn) {
  return casLoop(key, &start, fn);
}

bool RoutedNetDht::casLoop(const Key& key, const Value* start,
                           const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  stats_.lookups += 1;
  stats_.applies += 1;
  stats_.hops += 1;
  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  if (start != nullptr) routedStats_.appliesFromStart += 1;
  auto readOwner = [&](u64 held) {
    auto g = callRouted(cli, key, GetReq{key, held});
    checkStatus(g, "apply", key);
    if (held != 0) {
      routedStats_.conditionalReads += 1;
      if (std::get<GetRep>(g.body).unchanged) routedStats_.unchangedReads += 1;
    }
    return std::move(std::get<GetRep>(g.body));
  };
  // The state `fn` runs on: the start, a read, or a conflict reply's
  // value. The CAS is guarded by its digest (0: absent). `early`: the
  // state is the caller's start, from before this call. A conflict proves
  // it stale and replaces it; a no-change outcome on it proves nothing
  // until a conditional read finds the start still stored.
  bool early = start != nullptr;
  GetRep state = early ? GetRep{true, 0, *start} : readOwner(0);
  for (size_t casRounds = 0; casRounds < opts_.casRetries;) {
    std::optional<Value> v =
        state.present ? std::optional<Value>(state.value) : std::nullopt;
    fn(v);
    const bool unchanged = v.has_value() ? state.present && *v == state.value
                                         : !state.present;
    if (unchanged && !early) return state.present;
    const u64 guard =
        state.present ? common::hash::valueDigest(state.value) : 0;
    if (unchanged) {
      GetRep fresh = readOwner(guard);
      if (fresh.unchanged) return true;  // the start is stored: it stands
      state = std::move(fresh);
      early = false;
      continue;
    }
    ++casRounds;
    if (v.has_value()) stats_.valueBytesMoved += v->size();
    auto r = callRouted(cli, key,
                        CasReq{key, guard, v.has_value(), v.value_or(Value{})});
    checkStatus(r, "apply", key);
    auto& rep = std::get<CasRep>(r.body);
    if (rep.applied) {
      replicate(cli, replicaAddrs(*requireView(), key), key, v,
                rep.currentVersion);
      return state.present;
    }
    if (early) routedStats_.startConflicts += 1;
    // Conflict: the reply carries the stored value, so the mutator re-runs
    // on it without another GET round.
    state.present = rep.currentPresent;
    state.value = std::move(rep.currentValue);
    early = false;
  }
  throw DhtError("RoutedNetDht::apply: CAS contention exhausted " +
                 std::to_string(opts_.casRetries) + " attempts on \"" + key +
                 "\"");
}

// --- Batch rounds -----------------------------------------------------------

std::vector<RoutedNetDht::Fetched> RoutedNetDht::fetch(
    rpc::RpcClient& cli, const std::vector<Key>& keys,
    const std::vector<u64>& held) {
  std::vector<Fetched> out(keys.size());
  std::vector<size_t> pending(keys.size());
  std::iota(pending.begin(), pending.end(), size_t{0});
  // Only regroups (a Redirect, a timeout, an owner missing from the view)
  // spend kMaxBatchRounds. Re-sending the tail of a prefix reply is free:
  // every reply answers or fails at least one entry.
  size_t regroups = 0;
  while (!pending.empty() && regroups < kMaxBatchRounds) {
    auto v = view();
    if (!v) {
      if (!refreshView(cli)) break;
      v = requireView();
    }
    const auto chunks = packChunks(
        pending, [&](size_t i) { return v->ring.owner(keys[i]); },
        [&](size_t i) { return keys[i].size() + 8; });
    std::vector<rpc::RpcClient::Token> tokens(chunks.size(), 0);
    std::vector<bool> sent(chunks.size(), false);
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      auto it = v->addrs.find(chunks[ci].owner);
      if (it == v->addrs.end()) continue;  // stale view: regroup
      MultiGetReq req;
      req.entries.reserve(chunks[ci].entries.size());
      for (size_t i : chunks[ci].entries) {
        req.entries.push_back(GetReq{keys[i], held[i]});
      }
      tokens[ci] = cli.call(it->second, std::move(req));
      sent[ci] = true;
    }
    cli.settle();

    std::vector<size_t> tail;
    std::vector<size_t> regroup;
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      const auto& entries = chunks[ci].entries;
      if (!sent[ci]) {
        regroup.insert(regroup.end(), entries.begin(), entries.end());
        continue;
      }
      auto r = cli.take(tokens[ci]);
      noteHint(r.hint);
      if (!r.timedOut &&
          (r.status == Status::Ok || r.status == Status::TooLarge)) {
        // Ok answers a prefix of the chunk. TooLarge means the first
        // entry alone exceeds a datagram: it fails, the rest go on. Either
        // way the unanswered rest is re-sent next round.
        size_t answered = 1;
        if (r.status == Status::TooLarge) {
          out[entries.front()].error =
              "RoutedNetDht::multiGet: status too_large";
        } else {
          auto& rep = std::get<MultiGetRep>(r.body);
          answered = rep.entries.size();
          common::checkInvariant(
              answered >= 1 && answered <= entries.size(),
              "MultiGet reply answered no prefix of its chunk");
          for (size_t j = 0; j < answered; ++j) {
            Fetched& f = out[entries[j]];
            f.ok = true;
            f.rep = std::move(rep.entries[j]);
          }
        }
        tail.insert(tail.end(), entries.begin() + static_cast<long>(answered),
                    entries.end());
        continue;
      }
      if (r.timedOut || r.status == Status::Redirect) {
        // Stale grouping (join/leave in flight) or a dead owner: refresh
        // and regroup just these entries.
        regroup.insert(regroup.end(), entries.begin(), entries.end());
        if (r.status == Status::Redirect) routedStats_.redirectsFollowed += 1;
        continue;
      }
      const std::string err =
          std::string("RoutedNetDht::multiGet: status ") + statusName(r.status);
      for (size_t i : entries) out[i].error = err;
    }
    if (!regroup.empty()) {
      regroups += 1;
      stats_.hops += regroup.size();  // each regrouped entry routes again
      refreshView(cli);
    }
    pending = std::move(tail);
    pending.insert(pending.end(), regroup.begin(), regroup.end());
  }
  for (size_t i : pending) out[i].error = "RoutedNetDht::multiGet: rpc timeout";
  return out;
}

std::vector<GetOutcome> RoutedNetDht::multiGet(const std::vector<Key>& keys) {
  return multiGetIfChanged(keys, std::vector<u64>(keys.size(), 0));
}

std::vector<GetOutcome> RoutedNetDht::multiGetIfChanged(
    const std::vector<Key>& keys, const std::vector<u64>& held) {
  common::checkInvariant(held.size() == keys.size(),
                         "RoutedNetDht::multiGetIfChanged: one held digest per key");
  if (keys.empty()) return {};
  obs::SpanScope span("dht.multiGet", "dht");
  stats_.batchRounds += 1;
  stats_.lookups += keys.size();
  stats_.gets += keys.size();
  stats_.hops += keys.size();

  Lease lease(*this);
  std::vector<Fetched> fetched = fetch(lease.rpc(), keys, held);
  std::vector<GetOutcome> out(fetched.size());
  u64 unchanged = 0;
  for (size_t i = 0; i < fetched.size(); ++i) {
    Fetched& f = fetched[i];
    out[i].ok = f.ok;
    out[i].error = std::move(f.error);
    if (!f.ok) continue;
    if (f.rep.unchanged) {
      out[i].unchanged = true;
      unchanged += 1;
    } else if (f.rep.present) {
      stats_.valueBytesMoved += f.rep.value.size();
      out[i].value = std::move(f.rep.value);
    }
  }
  routedStats_.conditionalReads += static_cast<u64>(
      std::count_if(held.begin(), held.end(), [](u64 h) { return h != 0; }));
  routedStats_.unchangedReads += unchanged;
  return out;
}

std::vector<ApplyOutcome> RoutedNetDht::multiApply(
    const std::vector<ApplyRequest>& reqs) {
  if (reqs.empty()) return {};
  obs::SpanScope span("dht.multiApply", "dht");
  stats_.batchRounds += 1;
  stats_.lookups += reqs.size();
  stats_.applies += reqs.size();
  stats_.hops += reqs.size();

  Lease lease(*this);
  rpc::RpcClient& cli = lease.rpc();
  std::vector<ApplyOutcome> out(reqs.size());

  // Snapshot phase: every key through the MultiGet path (prefix tails,
  // regroups on redirect/timeout); the fetched (present, version, value)
  // is each entry's CAS state, refreshed by conflict replies.
  std::vector<Key> keys;
  keys.reserve(reqs.size());
  for (const ApplyRequest& req : reqs) keys.push_back(req.key);
  std::vector<Fetched> state = fetch(cli, keys, std::vector<u64>(keys.size(), 0));
  std::vector<bool> existedAtFirstCas(reqs.size(), false);
  std::vector<size_t> active;
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (state[i].ok) {
      active.push_back(i);
    } else {
      out[i].error =
          "RoutedNetDht::multiApply: snapshot failed (" + state[i].error + ")";
    }
  }

  // CAS rounds. A Redirect means the CAS did NOT execute, so retrying it
  // (after a view refresh) is safe; a conflict carries fresh state.
  std::vector<std::pair<Key, std::pair<std::optional<Value>, u64>>> toReplicate;
  for (size_t round = 0; round < opts_.casRetries && !active.empty(); ++round) {
    std::vector<size_t> casEntries;
    std::vector<CasReq> casReqs;
    for (size_t i : active) {
      GetRep& s = state[i].rep;
      std::optional<Value> v =
          s.present ? std::optional<Value>(s.value) : std::nullopt;
      reqs[i].fn(v);
      if (!v.has_value() && !s.present) {
        out[i].ok = true;
        out[i].existed = false;
        continue;
      }
      if (v.has_value() && s.present && *v == s.value) {
        out[i].ok = true;
        out[i].existed = true;
        continue;
      }
      if (v.has_value()) stats_.valueBytesMoved += v->size();
      existedAtFirstCas[i] = s.present;
      casEntries.push_back(i);
      casReqs.push_back(CasReq{reqs[i].key,
                               s.present ? common::hash::valueDigest(s.value) : 0,
                               v.has_value(), v.value_or(Value{})});
    }
    active.clear();
    if (casEntries.empty()) break;

    auto v = requireView();
    std::vector<size_t> positions(casEntries.size());
    std::iota(positions.begin(), positions.end(), size_t{0});
    const auto chunks = packChunks(
        positions, [&](size_t j) { return v->ring.owner(casReqs[j].key); },
        [&](size_t j) {
          return casReqs[j].key.size() + casReqs[j].value.size() + 16;
        });
    std::vector<rpc::RpcClient::Token> tokens(chunks.size(), 0);
    std::vector<bool> sent(chunks.size(), false);
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      auto it = v->addrs.find(chunks[ci].owner);
      if (it == v->addrs.end()) continue;
      MultiCasReq req;
      for (size_t j : chunks[ci].entries) req.entries.push_back(casReqs[j]);
      tokens[ci] = cli.call(it->second, std::move(req));
      sent[ci] = true;
    }
    cli.settle();
    bool wantRefresh = false;
    for (size_t ci = 0; ci < chunks.size(); ++ci) {
      if (!sent[ci]) {
        for (size_t j : chunks[ci].entries) active.push_back(casEntries[j]);
        wantRefresh = true;
        continue;
      }
      auto r = cli.take(tokens[ci]);
      noteHint(r.hint);
      if (r.status == Status::Redirect && !r.timedOut) {
        for (size_t j : chunks[ci].entries) active.push_back(casEntries[j]);
        wantRefresh = true;
        continue;
      }
      if (r.timedOut || r.status != Status::Ok) {
        // Lost reply: the CAS may or may not have executed — the
        // documented lost-reply semantics for a failed apply entry.
        for (size_t j : chunks[ci].entries) {
          out[casEntries[j]].error = "RoutedNetDht::multiApply: cas rpc timeout";
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
          s.value = std::move(cr.currentValue);
          active.push_back(i);
        }
      }
    }
    if (wantRefresh && !active.empty()) refreshView(cli);
  }
  for (size_t i : active) {
    out[i].error = "RoutedNetDht::multiApply: CAS contention exhausted";
  }

  if (replicaFanout() > 0 && !toReplicate.empty()) {
    auto v = requireView();
    for (const auto& [key, vv] : toReplicate) {
      replicate(cli, replicaAddrs(*v, key), key, vv.first, vv.second);
    }
  }
  return out;
}

// --- Unrouted / admin -------------------------------------------------------

void RoutedNetDht::storeDirect(const Key& key, Value value) {
  Lease lease(*this);
  auto r = callRouted(lease.rpc(), key, PutReq{key, value});
  checkStatus(r, "storeDirect", key);
  replicate(lease.rpc(), replicaAddrs(*requireView(), key), key, value,
            std::get<PutRep>(r.body).version);
}

std::optional<Value> RoutedNetDht::getReplica(const Key& key,
                                              size_t replicaIndex) {
  RoutedOpScope scope(*this, "dht.get_replica", key);
  stats_.lookups += 1;
  stats_.gets += 1;
  stats_.hops += 1;
  const size_t fanout = replicaFanout();
  if (replicaIndex >= fanout) {
    throw DhtError("RoutedNetDht::getReplica: no replica " +
                   std::to_string(replicaIndex));
  }
  auto v = requireView();
  const auto holders = v->ring.holders(key, fanout);
  if (holders.size() <= replicaIndex + 1) {
    throw DhtPeerDownError("RoutedNetDht::getReplica: holder unknown");
  }
  auto it = v->addrs.find(holders[replicaIndex + 1]);
  if (it == v->addrs.end()) {
    throw DhtPeerDownError("RoutedNetDht::getReplica: holder unknown");
  }
  Lease lease(*this);
  auto r = lease.rpc().callOne(it->second, ReplicaGetReq{key});
  noteHint(r.hint);
  if (r.timedOut) {
    throw DhtPeerDownError("RoutedNetDht::getReplica: holder " +
                           it->second.str() + " unresponsive for \"" + key +
                           "\"");
  }
  checkStatus(r, "getReplica", key);
  auto& rep = std::get<GetRep>(r.body);
  if (!rep.present) return std::nullopt;
  stats_.valueBytesMoved += rep.value.size();
  return std::move(rep.value);
}

void RoutedNetDht::syncStorage() {
  auto v = requireView();
  Lease lease(*this);
  std::vector<rpc::RpcClient::Token> tokens;
  for (const auto& [id, addr] : v->addrs) {
    tokens.push_back(lease.rpc().call(addr, SyncReq{}));
  }
  lease.rpc().settle();
  for (auto t : tokens) (void)lease.rpc().take(t);
}

void RoutedNetDht::compactStorage() {
  auto v = requireView();
  Lease lease(*this);
  std::vector<rpc::RpcClient::Token> tokens;
  for (const auto& [id, addr] : v->addrs) {
    tokens.push_back(lease.rpc().call(addr, CompactReq{}));
  }
  lease.rpc().settle();
  for (auto t : tokens) (void)lease.rpc().take(t);
}

size_t RoutedNetDht::size() const {
  auto v = requireView();
  Lease lease(*this);
  std::vector<rpc::RpcClient::Token> tokens;
  for (const auto& [id, addr] : v->addrs) {
    tokens.push_back(lease.rpc().call(addr, SizeReq{}));
  }
  lease.rpc().settle();
  size_t total = 0;
  for (auto t : tokens) {
    auto r = lease.rpc().take(t);
    if (r.timedOut) {
      throw DhtTimeoutError("RoutedNetDht::size: a node did not answer");
    }
    total += static_cast<size_t>(std::get<SizeRep>(r.body).primaryKeys);
  }
  return total;
}

}  // namespace lht::dht
