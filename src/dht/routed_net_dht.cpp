#include "dht/routed_net_dht.h"

#include <algorithm>
#include <tuple>

#include "common/hash.h"
#include "common/types.h"

namespace lht::dht {

using common::u64;
using namespace rpc::wire;  // NOLINT — this file IS the protocol client

namespace {

/// Routes per entry and call: the first, and up to three re-routes after
/// a Redirect, a timeout or an owner missing from the view. Re-sending a
/// prefix reply's tail is not a route.
constexpr size_t kMaxRoutes = 4;

/// The key a single-key request routes on.
const Key& keyOf(const RequestBody& body) {
  return std::visit(
      [](const auto& b) -> const Key& {
        if constexpr (requires { b.key; }) {
          return b.key;
        } else {
          throw common::InvariantError(
              "RoutedNetDht: a routed request has no key");
        }
      },
      body);
}

/// An entry's footprint in a batch datagram, against
/// rpc::kBatchBytesPerDatagram.
size_t requestBytes(const RequestBody& body) {
  if (const auto* c = std::get_if<CasReq>(&body)) {
    return c->key.size() + c->value.size() + 16;
  }
  return keyOf(body).size() + 8;
}

/// The batch request (MultiGetReq or MultiCasReq) carrying `count`
/// entries of one opcode, entry j being `request(j)`.
template <typename Batch, typename Entry, typename At>
Batch packed(size_t count, const At& request) {
  Batch batch;
  batch.entries.reserve(count);
  for (size_t j = 0; j < count; ++j) {
    batch.entries.push_back(std::get<Entry>(request(j)));
  }
  return batch;
}

/// Why an answer is not Ok, for the Dht call `op` on `key`.
std::string failure(const rpc::RpcClient::Result& r, const char* op,
                    const Key& key) {
  const std::string why = r.timedOut
                              ? std::string("rpc timeout")
                              : std::string("status ") + statusName(r.status);
  return std::string("RoutedNetDht::") + op + ": " + why + " on \"" + key +
         "\"";
}

/// Throws unless a single-key answer is Ok: DhtTimeoutError when the
/// request timed out, DhtError otherwise.
void check(const rpc::RpcClient::Result& r, const char* op, const Key& key) {
  if (r.ok()) return;
  if (r.timedOut) throw DhtTimeoutError(failure(r, op, key));
  throw DhtError(failure(r, op, key));
}

}  // namespace

// --- Connection pool --------------------------------------------------------

struct RoutedNetDht::Conn {
  /// A pending entry of a routing pass, and the owner it goes to.
  struct Slot {
    u64 owner = 0;
    size_t entry = 0;
  };
  /// One datagram of a routing pass: slots[first, first + count), all to
  /// one owner under one opcode.
  struct Send {
    size_t first = 0;
    size_t count = 0;
    size_t bytes = 0;  ///< the entries' batch footprint
    bool sent = false;  ///< the view had an address for the owner
    rpc::RpcClient::Token token = 0;
  };

  std::unique_ptr<rpc::Transport> transport;
  std::unique_ptr<rpc::RpcClient> rpc;
  // route()'s scratch, kept so a warm connection routes without
  // allocating: the pending entries in send order, and the sends.
  std::vector<Slot> slots;
  std::vector<Send> sends;
};

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

  [[nodiscard]] Conn& conn() { return *conn_; }
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

// --- Routing ----------------------------------------------------------------

void RoutedNetDht::route(Conn& conn, std::span<Routed> round, bool batched) {
  rpc::RpcClient& cli = *conn.rpc;
  bool stale;
  {
    std::lock_guard<std::mutex> lock(viewMutex_);
    stale = refreshWanted_ || view_ == nullptr;
  }
  if (stale) refreshView(cli);
  for (Routed& e : round) {
    if (!e.pending) continue;
    e.answer = {};
    e.answer.timedOut = true;  // until some node answers it
  }
  std::vector<Conn::Slot>& slots = conn.slots;
  std::vector<Conn::Send>& sends = conn.sends;
  auto v = view();
  size_t routes = 1;
  while (v != nullptr) {
    slots.clear();
    for (size_t i = 0; i < round.size(); ++i) {
      if (!round[i].pending) continue;
      slots.push_back(Conn::Slot{v->ring.owner(keyOf(round[i].request)), i});
    }
    if (slots.empty()) break;
    const auto kind = [&](const Conn::Slot& slot) {
      return round[slot.entry].request.index();
    };
    if (batched) {
      // Each owner's entries in call order, one opcode at a time, cut
      // into datagrams at the key and byte caps below.
      std::sort(slots.begin(), slots.end(),
                [&](const Conn::Slot& a, const Conn::Slot& b) {
                  return std::tuple(a.owner, kind(a), a.entry) <
                         std::tuple(b.owner, kind(b), b.entry);
                });
    }
    sends.clear();
    for (size_t k = 0; k < slots.size(); ++k) {
      const size_t cost =
          batched ? requestBytes(round[slots[k].entry].request) : 0;
      const bool joins =
          batched && !sends.empty() &&
          slots[sends.back().first].owner == slots[k].owner &&
          kind(slots[sends.back().first]) == kind(slots[k]) &&
          sends.back().count < rpc::kBatchKeysPerDatagram &&
          sends.back().bytes + cost <= rpc::kBatchBytesPerDatagram;
      if (!joins) sends.push_back(Conn::Send{k});
      sends.back().count += 1;
      sends.back().bytes += cost;
    }

    for (Conn::Send& s : sends) {
      auto it = v->addrs.find(slots[s.first].owner);
      s.sent = it != v->addrs.end();
      if (!s.sent) continue;
      const auto request = [&](size_t j) -> const RequestBody& {
        return round[slots[s.first + j].entry].request;
      };
      if (!batched) {
        s.token = cli.call(it->second, request(0));
      } else if (std::holds_alternative<GetReq>(request(0))) {
        s.token = cli.call(it->second,
                           packed<MultiGetReq, GetReq>(s.count, request));
      } else {
        s.token = cli.call(it->second,
                           packed<MultiCasReq, CasReq>(s.count, request));
      }
    }
    cli.settle();

    size_t rerouted = 0;
    std::optional<rpc::NetAddr> pullFrom;
    for (const Conn::Send& s : sends) {
      const auto entry = [&](size_t j) -> Routed& {
        return round[slots[s.first + j].entry];
      };
      rpc::RpcClient::Result r;
      r.timedOut = true;  // what an unsent entry is left with
      if (s.sent) {
        r = cli.take(s.token);
        noteHint(r.hint);
      }
      size_t done = 0;  // entries [0, done) are answered; the rest go again
      if (!s.sent || r.timedOut || r.status == Status::Redirect) {
        // A stale view, a dead owner, or a node that disowns the key: the
        // request did not execute (or may run again, as a lost reply's
        // may), so these entries route again on a fresher view.
        if (s.sent && r.timedOut) routedStats_.retriesAfterTimeout += 1;
        if (const auto* red = std::get_if<RedirectRep>(&r.body)) {
          routedStats_.redirectsFollowed += 1;
          if (!pullFrom && red->host != 0) {
            pullFrom = rpc::NetAddr{red->host, red->port};
          }
        }
        rerouted += s.count;
      } else if (r.status != Status::Ok) {
        // TooLarge: the first entry alone does not fit a datagram; it
        // fails and the rest go out again. Any other status fails all.
        done = r.status == Status::TooLarge ? 1 : s.count;
      } else if (!batched) {
        done = 1;
        entry(0).answer.body = std::move(r.body);
      } else {
        // A batch reply answers a prefix of its entries; the rest go out
        // again next pass, which spends no route.
        const auto answer = [&](auto& reps) {
          done = reps.size();
          common::checkInvariant(
              done >= 1 && done <= s.count,
              "RoutedNetDht: a batch reply answered no prefix of its send");
          for (size_t j = 0; j < done; ++j) {
            entry(j).answer.body = std::move(reps[j]);
          }
        };
        if (auto* gets = std::get_if<MultiGetRep>(&r.body)) {
          answer(gets->entries);
        } else {
          answer(std::get<MultiCasRep>(r.body).entries);
        }
      }
      // Answered entries are done; a re-routed one keeps this answer in
      // case it is its last.
      for (size_t j = 0; j < (done == 0 ? s.count : done); ++j) {
        entry(j).answer.timedOut = r.timedOut;
        entry(j).answer.status = r.status;
        entry(j).pending = done == 0;
      }
    }
    if (rerouted == 0) continue;  // tails only, or nothing left
    // The fresh owner itself is the best node to pull the table from.
    if (!pullFrom || !pullView(cli, *pullFrom)) refreshView(cli);
    if (++routes > kMaxRoutes) break;
    stats_.hops += rerouted;  // each re-routed entry routes again
    v = view();
  }
  // What is left keeps its last answer: a timeout or a Redirect.
  for (Routed& e : round) e.pending = false;
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

void RoutedNetDht::replicate(rpc::RpcClient& cli,
                             std::span<const Routed> round) {
  if (replicaFanout() == 0) return;
  auto v = requireView();
  std::vector<rpc::RpcClient::Token> tokens;
  for (const Routed& e : round) {
    if (!e.answer.ok()) continue;
    const Key& key = keyOf(e.request);
    RequestBody push;
    if (const auto* put = std::get_if<PutReq>(&e.request)) {
      push = ReplicaPutReq{key, put->value,
                           std::get<PutRep>(e.answer.body).version};
    } else if (const auto* cas = std::get_if<CasReq>(&e.request)) {
      const auto& rep = std::get<CasRep>(e.answer.body);
      if (!rep.applied) continue;
      if (cas->present) {
        push = ReplicaPutReq{key, cas->value, rep.currentVersion};
      } else {
        push = ReplicaRemoveReq{key};
      }
    } else if (std::holds_alternative<RemoveReq>(e.request) &&
               std::get<RemoveRep>(e.answer.body).existed) {
      push = ReplicaRemoveReq{key};
    } else {
      continue;  // a read, or a remove of an absent key
    }
    for (const rpc::NetAddr& holder : replicaAddrs(*v, key)) {
      tokens.push_back(cli.call(holder, push));
    }
  }
  if (tokens.empty()) return;
  cli.settle();
  for (auto t : tokens) (void)cli.take(t);
}

// --- Single-key ops ---------------------------------------------------------

void RoutedNetDht::put(const Key& key, Value value) {
  RoutedOpScope scope(*this, "dht.put", key);
  stats_.lookups += 1;
  stats_.puts += 1;
  stats_.hops += 1;
  stats_.valueBytesMoved += value.size();
  Lease lease(*this);
  Routed r{PutReq{key, std::move(value)}};
  route(lease.conn(), {&r, 1}, /*batched=*/false);
  check(r.answer, "put", key);
  replicate(lease.rpc(), {&r, 1});
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
  Routed r{GetReq{key, held}};
  route(lease.conn(), {&r, 1}, /*batched=*/false);
  check(r.answer, "get", key);
  return readOutcome(r, "get");
}

GetOutcome RoutedNetDht::readOutcome(Routed& r, const char* op) {
  GetOutcome out;
  const GetReq& req = std::get<GetReq>(r.request);
  if (!r.answer.ok()) {
    out.error = failure(r.answer, op, req.key);
    return out;
  }
  auto& rep = std::get<GetRep>(r.answer.body);
  if (req.held != 0) routedStats_.conditionalReads += 1;
  if (rep.unchanged) routedStats_.unchangedReads += 1;
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
  Routed r{RemoveReq{key}};
  route(lease.conn(), {&r, 1}, /*batched=*/false);
  check(r.answer, "remove", key);
  replicate(lease.rpc(), {&r, 1});
  return std::get<RemoveRep>(r.answer.body).existed;
}

// --- The CAS step -----------------------------------------------------------

bool RoutedNetDht::apply(const Key& key, const Mutator& fn) {
  return applyOne(key, nullptr, fn);
}

bool RoutedNetDht::applyFrom(const Key& key, const Value& start,
                             const Mutator& fn) {
  return applyOne(key, &start, fn);
}

bool RoutedNetDht::applyOne(const Key& key, const Value* start,
                            const Mutator& fn) {
  RoutedOpScope scope(*this, "dht.apply", key);
  stats_.lookups += 1;
  stats_.applies += 1;
  stats_.hops += 1;
  Applying a;
  a.key = &key;
  a.fn = &fn;
  if (start != nullptr) {
    routedStats_.appliesFromStart += 1;
    a.present = true;
    a.value = *start;
    a.early = true;
  }
  Routed r;
  Lease lease(*this);
  applyAll(lease.conn(), {&a, 1}, {&r, 1}, /*batched=*/false);
  if (a.outcome.ok) return a.outcome.existed;
  // The last answer says why: a timeout, or a status or CAS conflict.
  if (r.answer.timedOut) throw DhtTimeoutError(a.outcome.error);
  throw DhtError(a.outcome.error);
}

void RoutedNetDht::applyAll(Conn& conn, std::span<Applying> applies,
                            std::span<Routed> round, bool batched) {
  for (bool more = true; more;) {
    more = false;
    for (size_t i = 0; i < applies.size(); ++i) {
      round[i].pending = !applies[i].done && casStep(applies[i], round[i]);
      more = more || round[i].pending;
    }
    if (more) route(conn, round, batched);
  }
  replicate(*conn.rpc, round);
}

bool RoutedNetDht::casStep(Applying& a, Routed& r) {
  const Key& key = *a.key;
  const auto finish = [&](bool existed) {
    a.done = true;
    a.outcome.ok = true;
    a.outcome.existed = existed;
    return false;
  };
  const auto fail = [&](std::string error) {
    a.done = true;
    a.outcome.error = std::move(error);
    return false;
  };
  if (a.sent) {
    if (!r.answer.ok()) return fail(failure(r.answer, "apply", key));
    if (auto* read = std::get_if<GetRep>(&r.answer.body)) {
      if (std::get<GetReq>(r.request).held != 0) {
        routedStats_.conditionalReads += 1;
        if (read->unchanged) routedStats_.unchangedReads += 1;
      }
      // The start is still stored: the no-change outcome stands.
      if (read->unchanged) return finish(true);
      a.present = read->present;
      a.value = std::move(read->value);
    } else {
      auto& cas = std::get<CasRep>(r.answer.body);
      if (cas.applied) return finish(a.present);
      if (a.early) routedStats_.startConflicts += 1;
      // Conflict: the reply carries the stored value, so the mutator
      // re-runs on it without another GET round.
      a.present = cas.currentPresent;
      a.value = std::move(cas.currentValue);
    }
    a.early = false;
  } else if (!a.early) {
    a.sent = true;
    r.request = GetReq{key, 0};
    return true;
  }
  if (a.casRounds >= opts_.casRetries) {
    return fail("RoutedNetDht::apply: CAS contention exhausted " +
                std::to_string(opts_.casRetries) + " attempts on \"" + key +
                "\"");
  }
  // The state `fn` runs on: the start, a read, or a conflict reply's
  // value. The CAS is guarded by its digest (0: absent).
  std::optional<Value> v =
      a.present ? std::optional<Value>(a.value) : std::nullopt;
  (*a.fn)(v);
  const bool unchanged =
      v.has_value() ? a.present && *v == a.value : !a.present;
  if (unchanged && !a.early) return finish(a.present);
  const u64 guard = a.present ? common::hash::valueDigest(a.value) : 0;
  a.sent = true;
  if (unchanged) {
    // A no-change outcome on the start proves nothing until a read
    // carrying its digest finds it still stored.
    r.request = GetReq{key, guard};
    return true;
  }
  ++a.casRounds;
  if (v.has_value()) stats_.valueBytesMoved += v->size();
  r.request = CasReq{key, guard, v.has_value(), std::move(v).value_or(Value{})};
  return true;
}

// --- Batch rounds -----------------------------------------------------------

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

  std::vector<Routed> round;
  round.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    round.push_back(Routed{GetReq{keys[i], held[i]}});
  }
  Lease lease(*this);
  route(lease.conn(), round, /*batched=*/true);
  std::vector<GetOutcome> out;
  out.reserve(keys.size());
  for (Routed& r : round) out.push_back(readOutcome(r, "multiGet"));
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

  std::vector<Applying> applies(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    applies[i].key = &reqs[i].key;
    applies[i].fn = &reqs[i].fn;
  }
  std::vector<Routed> round(reqs.size());
  Lease lease(*this);
  applyAll(lease.conn(), applies, round, /*batched=*/true);
  std::vector<ApplyOutcome> out;
  out.reserve(applies.size());
  for (Applying& a : applies) out.push_back(std::move(a.outcome));
  return out;
}

// --- Unrouted / admin -------------------------------------------------------

void RoutedNetDht::storeDirect(const Key& key, Value value) {
  Lease lease(*this);
  Routed r{PutReq{key, std::move(value)}};
  route(lease.conn(), {&r, 1}, /*batched=*/false);
  check(r.answer, "storeDirect", key);
  replicate(lease.rpc(), {&r, 1});
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
  check(r, "getReplica", key);
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
