#include "probes.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace dht = lht::dht;
namespace rpc = lht::rpc;

// --- Tracer -----------------------------------------------------------------

void Tracer::open(Layer layer, const char* name) {
  stack_.push_back(Frame{layer, name, nowNs(), 0});
}

void Tracer::close() {
  const u64 end = nowNs();
  const Frame f = stack_.back();
  stack_.pop_back();
  const u64 dur = end - f.startNs;
  const auto i = static_cast<size_t>(f.layer);
  totals_.ns[i] += dur;
  totals_.selfNs[i] += dur - f.childNs;
  if (!stack_.empty()) stack_.back().childNs += dur;
  if (kept_.size() < keepLimit_) kept_.push_back(Kept{f.name, f.layer, f.startNs, dur});
}

// --- CountingTransport ------------------------------------------------------

bool CountingTransport::send(const rpc::NetAddr& to, std::string_view payload) {
  if (!roundOpen_) {
    counters_.rounds += 1;
    roundOpen_ = true;
  }
  counters_.datagramsSent += 1;
  counters_.bytesSent += payload.size();
  SpanGuard span(tracer_, Layer::Send, "rpc.send");
  return inner_->send(to, payload);
}

size_t CountingTransport::receive(std::vector<rpc::Datagram>& out,
                                  u64 timeoutMs) {
  const size_t before = out.size();
  size_t n = 0;
  {
    SpanGuard span(tracer_, Layer::Receive, "rpc.receive");
    n = inner_->receive(out, timeoutMs);
  }
  counters_.receiveCalls += 1;
  if (n > 0) {
    roundOpen_ = false;
    counters_.datagramsReceived += n;
    for (size_t i = before; i < out.size(); ++i) {
      counters_.bytesReceived += out[i].payload.size();
    }
  }
  return n;
}

// --- TimingDht --------------------------------------------------------------

/// One Dht call: a span, plus the wire rounds and bytes it caused charged
/// to its kind (also when the call throws).
class TimingDht::CallScope {
 public:
  CallScope(TimingDht& d, CallKind kind, const char* name)
      : d_(d),
        kind_(kind),
        rounds0_(d.wire_.rounds),
        bytes0_(d.wire_.bytes()),
        span_(&d.tracer_, Layer::Dht, name) {}
  ~CallScope() {
    CallStats& s = d_.calls_[static_cast<size_t>(kind_)];
    s.calls += 1;
    s.rounds += d_.wire_.rounds - rounds0_;
    s.bytes += d_.wire_.bytes() - bytes0_;
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  TimingDht& d_;
  CallKind kind_;
  u64 rounds0_;
  u64 bytes0_;
  SpanGuard span_;
};

dht::Mutator TimingDht::timed(const dht::Mutator& fn) {
  return [this, &fn](std::optional<dht::Value>& v) {
    SpanGuard span(&tracer_, Layer::Mutator, "lht.mutator");
    fn(v);
  };
}

void TimingDht::put(const dht::Key& key, dht::Value value) {
  CallScope call(*this, CallKind::Put, "dht.put");
  inner_.put(key, std::move(value));
}

std::optional<dht::Value> TimingDht::get(const dht::Key& key) {
  CallScope call(*this, CallKind::Get, "dht.get");
  return inner_.get(key);
}

bool TimingDht::remove(const dht::Key& key) {
  CallScope call(*this, CallKind::Remove, "dht.remove");
  return inner_.remove(key);
}

bool TimingDht::apply(const dht::Key& key, const dht::Mutator& fn) {
  CallScope call(*this, CallKind::Apply, "dht.apply");
  return inner_.apply(key, timed(fn));
}

std::vector<dht::GetOutcome> TimingDht::multiGet(
    const std::vector<dht::Key>& keys) {
  CallScope call(*this, CallKind::MultiGet, "dht.multi_get");
  return inner_.multiGet(keys);
}

std::vector<dht::ApplyOutcome> TimingDht::multiApply(
    const std::vector<dht::ApplyRequest>& reqs) {
  CallScope call(*this, CallKind::MultiApply, "dht.multi_apply");
  std::vector<dht::ApplyRequest> wrapped;
  wrapped.reserve(reqs.size());
  for (const dht::ApplyRequest& r : reqs) {
    wrapped.push_back(dht::ApplyRequest{r.key, timed(r.fn)});
  }
  return inner_.multiApply(wrapped);
}

std::optional<dht::Value> TimingDht::getReplica(const dht::Key& key,
                                                size_t replicaIndex) {
  // Leased reads are off in this benchmark, so no kind is reported for
  // replica reads; the span keeps their time out of lht self time anyway.
  SpanGuard span(&tracer_, Layer::Dht, "dht.get_replica");
  return inner_.getReplica(key, replicaIndex);
}

// --- Chrome trace -----------------------------------------------------------

bool writeChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& clients) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static constexpr std::array<const char*, kLayers> kCat = {"lht", "dht", "lht",
                                                            "rpc", "rpc"};
  u64 origin = ~u64{0};
  for (const Tracer* t : clients) {
    for (const Tracer::Kept& s : t->kept()) origin = std::min(origin, s.startNs);
  }
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (size_t tid = 0; tid < clients.size(); ++tid) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"client %zu\"}}",
                 first ? "" : ",\n", tid, tid);
    first = false;
    for (const Tracer::Kept& s : clients[tid]->kept()) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f}",
                   s.name, kCat[static_cast<size_t>(s.layer)], tid,
                   static_cast<double>(s.startNs - origin) / 1e3,
                   static_cast<double>(s.durNs) / 1e3);
    }
  }
  std::fputs("\n], \"displayTimeUnit\": \"ns\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
