// Causal op-tracing: spans, instant events, and flow links.
//
// A span covers one operation at one layer (an LhtIndex op, a DHT round, a
// routed substrate op); parentage mirrors the call stack, and flow links
// connect the entries of a batched multiGet/multiApply round back to the
// round span even though they execute as one parallel step. Instant events
// mark point occurrences (a retry, a failover rescue, an injected fault).
//
// Exporters:
//   writeChromeTrace  Chrome trace-event JSON ({"traceEvents": [...]}) that
//                     loads directly in chrome://tracing and Perfetto; spans
//                     become "X" events, instants "i", flows "s"/"f" pairs.
//   writeCsv          one row per span via common::Table, for scripting.
//
// The tracer is append-only and not thread-safe; install one per measured
// scope with obs::ScopedObservability.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace lht::obs {

using common::u64;

/// One key/value pair attached to a span or instant event. `quoted` selects
/// JSON string vs bare literal rendering of `value`.
struct TraceArg {
  std::string key;
  std::string value;
  bool quoted = true;
};

TraceArg arg(std::string key, std::string value);
TraceArg arg(std::string key, const char* value);
TraceArg arg(std::string key, u64 value);
TraceArg arg(std::string key, double value);

class Tracer {
 public:
  struct Span {
    u64 id = 0;
    u64 parent = 0;  ///< 0 = root
    std::string name;
    const char* cat = "";
    u64 startNs = 0;
    u64 endNs = 0;  ///< 0 while the span is open
    std::vector<TraceArg> args;
  };
  struct Instant {
    std::string name;
    const char* cat = "";
    u64 parent = 0;
    u64 tsNs = 0;
    std::vector<TraceArg> args;
  };
  struct Flow {
    u64 fromSpan = 0;
    u64 toSpan = 0;
  };

  Tracer();

  /// Opens a span; returns its id (never 0).
  u64 beginSpan(std::string name, const char* cat, u64 parent);
  void endSpan(u64 id);
  void addSpanArg(u64 id, TraceArg a);

  void instant(std::string name, const char* cat, u64 parent,
               std::vector<TraceArg> args = {});

  /// Declares a causal edge from one span to another (e.g. batch round ->
  /// entry). Both ids must come from beginSpan.
  void flow(u64 fromSpan, u64 toSpan);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Instant>& instants() const {
    return instants_;
  }
  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }
  [[nodiscard]] const Span* findSpan(u64 id) const;
  [[nodiscard]] size_t openSpanCount() const { return openSpans_; }

  void writeChromeTrace(std::ostream& os) const;
  void writeCsv(std::ostream& os) const;

  /// Appends another tracer's spans/instants/flows into this one. Span ids
  /// are remapped into this tracer's id space (parent/flow edges follow),
  /// and timestamps are realigned from the other tracer's epoch to this
  /// one's, so a merged Chrome trace shows per-thread activity on a common
  /// timeline. `other` is left untouched.
  void mergeFrom(const Tracer& other);

  void clear();

 private:
  [[nodiscard]] u64 nowNs() const;

  std::chrono::steady_clock::time_point epoch_;
  u64 nextId_ = 1;
  size_t openSpans_ = 0;
  std::vector<Span> spans_;
  std::unordered_map<u64, size_t> spanIndex_;
  std::vector<Instant> instants_;
  std::vector<Flow> flows_;
};

/// Escapes a string for embedding in a JSON string literal.
std::string jsonEscape(const std::string& s);

}  // namespace lht::obs
