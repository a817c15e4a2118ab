#include "dht/net_batch.h"

#include "common/types.h"

namespace lht::dht::detail {

using rpc::wire::CasRep;
using rpc::wire::CasReq;
using rpc::wire::GetRep;
using rpc::wire::GetReq;
using rpc::wire::Status;

bool foldMultiGetReply(const Chunk& chunk, rpc::RpcClient::Result& r,
                       std::vector<Fetched>& out, std::vector<size_t>& tail,
                       const char* who) {
  if (r.timedOut) return false;
  size_t answered = 0;
  if (r.status == Status::TooLarge) {
    Fetched& first = out[chunk.entries.front()];
    first.error = std::string(who) + ": status too_large";
    answered = 1;
  } else if (r.status == Status::Ok) {
    auto& rep = std::get<rpc::wire::MultiGetRep>(r.body);
    answered = rep.entries.size();
    common::checkInvariant(answered >= 1 && answered <= chunk.entries.size(),
                           "MultiGet reply answered no prefix of its chunk");
    for (size_t j = 0; j < answered; ++j) {
      Fetched& f = out[chunk.entries[j]];
      f.ok = true;
      f.rep = std::move(rep.entries[j]);
    }
  } else {
    return false;
  }
  tail.insert(tail.end(), chunk.entries.begin() + static_cast<long>(answered),
              chunk.entries.end());
  return true;
}

std::vector<GetOutcome> toGetOutcomes(std::vector<Fetched> fetched,
                                      common::RelaxedCounter& valueBytesMoved) {
  std::vector<GetOutcome> out(fetched.size());
  for (size_t i = 0; i < fetched.size(); ++i) {
    Fetched& f = fetched[i];
    out[i].ok = f.ok;
    out[i].error = std::move(f.error);
    if (f.ok && f.rep.present) {
      valueBytesMoved += f.rep.value.size();
      out[i].value = std::move(f.rep.value);
    }
  }
  return out;
}

void checkStatus(const rpc::RpcClient::Result& r, const char* who,
                 const char* op, const Key& key) {
  if (r.timedOut) {
    throw DhtTimeoutError(std::string(who) + "::" + op + ": rpc timeout on \"" +
                          key + "\"");
  }
  if (r.status != Status::Ok) {
    throw DhtError(std::string(who) + "::" + op + ": status " +
                   statusName(r.status) + " on \"" + key + "\"");
  }
}

// --- Replica pushes ---------------------------------------------------------

void startReplicaWrites(rpc::RpcClient& cli,
                        const std::vector<rpc::NetAddr>& replicas,
                        const Key& key, const std::optional<Value>& value,
                        common::u64 version,
                        std::vector<rpc::RpcClient::Token>& tokens) {
  for (const rpc::NetAddr& holder : replicas) {
    if (value.has_value()) {
      tokens.push_back(
          cli.call(holder, rpc::wire::ReplicaPutReq{key, *value, version}));
    } else {
      tokens.push_back(cli.call(holder, rpc::wire::ReplicaRemoveReq{key}));
    }
  }
}

void settleReplicaWrites(rpc::RpcClient& cli,
                         const std::vector<rpc::RpcClient::Token>& tokens) {
  if (tokens.empty()) return;
  cli.settle();
  for (auto t : tokens) (void)cli.take(t);
}

void replicate(rpc::RpcClient& cli, const std::vector<rpc::NetAddr>& replicas,
               const Key& key, const std::optional<Value>& value,
               common::u64 version) {
  std::vector<rpc::RpcClient::Token> tokens;
  startReplicaWrites(cli, replicas, key, value, version, tokens);
  settleReplicaWrites(cli, tokens);
}

// --- Per-thread read slots --------------------------------------------------

void ReadSlots::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(std::this_thread::get_id());
  if (it != slots_.end()) it->second.full = false;
}

void ReadSlots::fill(const Key& key, const GetRep& rep) {
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& s = slots_[std::this_thread::get_id()];
  s.full = true;
  s.read.key = key;
  s.read.rep.present = rep.present;
  s.read.rep.version = rep.version;
  s.read.rep.value = rep.value;
}

std::optional<SlotRead> ReadSlots::take(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(std::this_thread::get_id());
  if (it == slots_.end() || !it->second.full) return std::nullopt;
  it->second.full = false;
  if (it->second.read.key != key) return std::nullopt;
  return std::move(it->second.read);
}

// --- The read-modify-write loop ---------------------------------------------

bool readModifyWrite(const KeyRoute& route, const Key& key, const Mutator& fn,
                     std::optional<SlotRead> start, size_t casRetries,
                     common::RelaxedCounter& valueBytesMoved) {
  auto readOwner = [&] {
    auto g = route.callOwner(GetReq{key});
    checkStatus(g, route.who, "apply", key);
    return std::move(std::get<GetRep>(g.body));
  };
  // `early`: the state is the caller's read from before this call. A
  // conflict proves it stale and replaces it; a no-change outcome on it
  // proves nothing, so it re-reads first.
  bool early = start.has_value();
  GetRep state = early ? std::move(start->rep) : readOwner();
  for (size_t casRounds = 0; casRounds < casRetries;) {
    std::optional<Value> v =
        state.present ? std::optional<Value>(state.value) : std::nullopt;
    fn(v);
    const bool unchanged = v.has_value() ? state.present && *v == state.value
                                         : !state.present;
    if (unchanged) {
      if (!early) return state.present;
      state = readOwner();
      early = false;
      continue;
    }
    ++casRounds;
    if (v.has_value()) valueBytesMoved += v->size();
    auto r = route.callOwner(
        CasReq{key, state.version, v.has_value(), v.value_or(Value{})});
    checkStatus(r, route.who, "apply", key);
    auto& rep = std::get<CasRep>(r.body);
    if (rep.applied) {
      replicate(route.cli, route.replicas(), key, v, rep.currentVersion);
      return state.present;
    }
    // Conflict: the reply carries the fresh state, so the mutator re-runs
    // on it without another GET round.
    state.present = rep.currentPresent;
    state.version = rep.currentVersion;
    state.value = std::move(rep.currentValue);
    early = false;
  }
  throw DhtError(std::string(route.who) + "::apply: CAS contention exhausted " +
                 std::to_string(casRetries) + " attempts on \"" + key + "\"");
}

}  // namespace lht::dht::detail
