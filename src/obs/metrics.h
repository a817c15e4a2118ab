// Process-local metrics: named counters, gauges, and fixed-bucket
// histograms with quantile export.
//
// The registry is the single sink for cost attribution across the stack:
// LhtIndex ops, decorator retries and failovers, substrate routing,
// and SimNetwork RTT charges all report here through the ambient helpers in
// obs/obs.h. Series are created lazily on first touch and live for the
// registry's lifetime, so exporters see a stable snapshot of everything the
// workload exercised.
//
// Exporters: common::Table (pretty/CSV) and a flat JSON object, both keyed
// by the dotted series name (naming scheme documented in DESIGN.md §9).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/csv.h"
#include "common/types.h"

namespace lht::obs {

using common::u64;

/// Monotone event count.
struct Counter {
  u64 value = 0;
  void add(u64 delta = 1) { value += delta; }
};

/// Last-write-wins instantaneous value.
struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
};

/// Fixed-bucket histogram. Buckets are defined by inclusive upper bounds
/// (ascending); one implicit overflow bucket catches everything above the
/// last bound. Quantiles are estimated as the upper bound of the bucket
/// where the cumulative count crosses q — exact for integer-valued series
/// whose bounds enumerate the small values, conservative otherwise.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double v);

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const;  ///< 0 when empty
  [[nodiscard]] double max() const;  ///< 0 when empty
  [[nodiscard]] double mean() const;
  /// q in [0, 1]; returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<u64>& bucketCounts() const { return buckets_; }

  /// Bucket-wise accumulation of another histogram with identical bounds
  /// (invariant-checked). count/sum/min/max merge exactly; quantiles stay
  /// as accurate as a single histogram's.
  void mergeFrom(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<u64> buckets_;
  u64 count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Default bounds for small-integer series (DHT lookups per op, rounds,
/// hops): exact up to 32, geometric to 4096.
std::vector<double> defaultCountBounds();

/// Default bounds for millisecond-valued series (RTTs, round latencies).
std::vector<double> defaultLatencyBoundsMs();

/// Owns every metric series for one measurement scope (a benchmark side, a
/// test, an experiment run). Not thread-safe; each thread installs its own
/// registry via obs::ScopedObservability.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// First call fixes the bucket layout; later calls ignore `bounds`.
  Histogram& histogram(std::string_view name);
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Value of a counter, 0 when the series was never touched.
  [[nodiscard]] u64 counterValue(std::string_view name) const;
  [[nodiscard]] const Histogram* findHistogram(std::string_view name) const;

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges()
      const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const {
    return histograms_;
  }

  /// One row per series: name, kind, count, sum/value, p50, p95, p99.
  [[nodiscard]] common::Table toTable() const;
  void writeCsv(std::ostream& os) const;
  /// Flat JSON object: counters/gauges as numbers, histograms as
  /// {count, sum, mean, p50, p95, p99, max}. `indent` prefixes every line.
  void writeJson(std::ostream& os, const std::string& indent = "") const;

  /// Folds another registry into this one: counters add, gauges take the
  /// other's value (last-write-wins), histograms merge bucket-wise (series
  /// created here on demand with the other's bounds). Used by the exec
  /// fleet to combine per-thread registries at join; `other` is left
  /// untouched.
  void mergeFrom(const MetricsRegistry& other);

  void reset();

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace lht::obs
