#include "dht/net_batch.h"

#include "common/types.h"

namespace lht::dht::detail {

bool foldMultiGetReply(const Chunk& chunk, rpc::RpcClient::Result& r,
                       std::vector<Fetched>& out, std::vector<size_t>& tail,
                       const char* who) {
  if (r.timedOut) return false;
  size_t answered = 0;
  if (r.status == rpc::wire::Status::TooLarge) {
    Fetched& first = out[chunk.entries.front()];
    first.error = std::string(who) + ": status too_large";
    answered = 1;
  } else if (r.status == rpc::wire::Status::Ok) {
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

}  // namespace lht::dht::detail
