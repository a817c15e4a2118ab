// Probes the benchmark wraps around the library's layer boundaries.
//
// Nothing here changes what the library does; each probe forwards every
// call to the object it wraps:
//  * CountingTransport sits under RoutedNetDht (handed in through the
//    transport factory) and counts datagrams, bytes, request rounds and
//    receive calls. With a Tracer it also times send() and receive().
//  * TimingDht sits between LhtIndex and RoutedNetDht in the traced run.
//    It opens a span per Dht call, counts calls, rounds and bytes per call
//    kind, and times the Mutator callbacks that apply()/multiApply() run.
//  * Tracer keeps one client's span stack. Closing a span charges its
//    duration minus its children's to its layer (self time), and the first
//    spans of a run are kept for a Chrome trace.
// A probe belongs to one client thread; nothing in it is synchronized.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/dht.h"
#include "rpc/transport.h"

namespace perfbench {

using u64 = std::uint64_t;

inline u64 nowNs() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Span layers, innermost last. Op = one LhtIndex call (layer lht),
/// Dht = one call into dht::Dht, Mutator = an lht bucket mutator run
/// inside a Dht call, Send/Receive = one Transport call (layer rpc).
enum class Layer : std::uint8_t { Op, Dht, Mutator, Send, Receive };
inline constexpr size_t kLayers = 5;

class Tracer {
 public:
  /// Keeps at most `keepSpans` closed spans for the Chrome trace.
  explicit Tracer(size_t keepSpans) : keepLimit_(keepSpans) {}

  void open(Layer layer, const char* name);
  void close();
  /// Forgets totals and kept spans (between warm-up and the timed phase).
  void reset() {
    totals_ = Totals{};
    kept_.clear();
  }

  struct Totals {
    std::array<u64, kLayers> ns{};      ///< summed span durations
    std::array<u64, kLayers> selfNs{};  ///< durations minus children
  };
  [[nodiscard]] const Totals& totals() const { return totals_; }

  struct Kept {
    const char* name;
    Layer layer;
    u64 startNs;
    u64 durNs;
  };
  [[nodiscard]] const std::vector<Kept>& kept() const { return kept_; }

 private:
  struct Frame {
    Layer layer;
    const char* name;
    u64 startNs;
    u64 childNs;
  };
  std::vector<Frame> stack_;
  Totals totals_;
  size_t keepLimit_;
  std::vector<Kept> kept_;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, Layer layer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(layer, name);
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->close();
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
};

/// What one client put on and took off the wire.
struct WireCounters {
  u64 datagramsSent = 0;
  u64 datagramsReceived = 0;
  u64 bytesSent = 0;
  u64 bytesReceived = 0;
  /// Critical-path request rounds: a send that follows a receive which
  /// delivered data (or the first send on a connection) starts a round.
  /// Retransmits follow empty receives and so stay in their round.
  u64 rounds = 0;
  u64 receiveCalls = 0;

  [[nodiscard]] u64 datagrams() const {
    return datagramsSent + datagramsReceived;
  }
  [[nodiscard]] u64 bytes() const { return bytesSent + bytesReceived; }
};

class CountingTransport final : public lht::rpc::Transport {
 public:
  CountingTransport(std::unique_ptr<lht::rpc::Transport> inner,
                    WireCounters& counters, Tracer* tracer)
      : inner_(std::move(inner)), counters_(counters), tracer_(tracer) {}

  bool send(const lht::rpc::NetAddr& to, std::string_view payload) override;
  size_t receive(std::vector<lht::rpc::Datagram>& out,
                 u64 timeoutMs) override;
  u64 nowMs() override { return inner_->nowMs(); }
  [[nodiscard]] lht::rpc::NetAddr localAddr() const override {
    return inner_->localAddr();
  }

 private:
  std::unique_ptr<lht::rpc::Transport> inner_;
  WireCounters& counters_;
  Tracer* tracer_;
  bool roundOpen_ = false;
};

/// Dht call kinds the per-layer split reports.
enum class CallKind : std::uint8_t { Get, Apply, Put, Remove, MultiGet, MultiApply };
inline constexpr size_t kCallKinds = 6;
inline constexpr std::array<const char*, kCallKinds> kCallKindNames = {
    "get", "apply", "put", "remove", "multi_get", "multi_apply"};

struct CallStats {
  u64 calls = 0;
  u64 rounds = 0;
  u64 bytes = 0;
};

class TimingDht final : public lht::dht::Dht {
 public:
  TimingDht(lht::dht::Dht& inner, Tracer& tracer, const WireCounters& wire)
      : inner_(inner), tracer_(tracer), wire_(wire) {}

  void put(const lht::dht::Key& key, lht::dht::Value value) override;
  std::optional<lht::dht::Value> get(const lht::dht::Key& key) override;
  bool remove(const lht::dht::Key& key) override;
  bool apply(const lht::dht::Key& key,
             const lht::dht::Mutator& fn) override;
  std::vector<lht::dht::GetOutcome> multiGet(
      const std::vector<lht::dht::Key>& keys) override;
  std::vector<lht::dht::ApplyOutcome> multiApply(
      const std::vector<lht::dht::ApplyRequest>& reqs) override;
  void storeDirect(const lht::dht::Key& key, lht::dht::Value value) override {
    inner_.storeDirect(key, std::move(value));
  }
  [[nodiscard]] size_t replicaFanout() const override {
    return inner_.replicaFanout();
  }
  std::optional<lht::dht::Value> getReplica(const lht::dht::Key& key,
                                            size_t replicaIndex) override;
  void syncStorage() override { inner_.syncStorage(); }
  void compactStorage() override { inner_.compactStorage(); }
  [[nodiscard]] size_t size() const override { return inner_.size(); }

  [[nodiscard]] const std::array<CallStats, kCallKinds>& calls() const {
    return calls_;
  }

 private:
  class CallScope;
  /// Wraps `fn` in a Mutator span; the wrapper borrows `fn`.
  lht::dht::Mutator timed(const lht::dht::Mutator& fn);

  lht::dht::Dht& inner_;
  Tracer& tracer_;
  const WireCounters& wire_;
  std::array<CallStats, kCallKinds> calls_{};
};

/// Writes the kept spans of every client as Chrome trace-event JSON
/// (one thread row per client; nesting shows as stacked slices).
bool writeChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& clients);

}  // namespace perfbench
