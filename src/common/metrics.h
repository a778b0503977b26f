/**
 * @file metrics.h
 * Named-metric registry with bounded-memory streaming histograms.
 *
 * The exact-sample recorder (common/histogram.h) keeps every sample so
 * percentiles are bit-exact — the right trade for runs of thousands of
 * requests, and the wrong one for million-request soaks. This header
 * adds the bounded counterpart: a fixed-bin log-scale histogram whose
 * memory is a constant of its one binning, never of the sample count,
 * plus counters/gauges and a registry that surfaces all of them
 * under stable names with deterministic (name-sorted) JSON emission.
 *
 * Everything here is deterministic given the same sample sequence and
 * thread-compatible-but-not-thread-safe: the serving runtime mutates
 * metrics only inside its serial event loop, matching the repo's
 * fixed-seed => bit-identical telemetry contract.
 */
#ifndef RAGO_COMMON_METRICS_H
#define RAGO_COMMON_METRICS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/json_writer.h"

namespace rago {

/**
 * Fixed-bin log-scale histogram: O(bins) memory for any sample count.
 * Every histogram shares one binning, so any two merge exactly.
 * Quantiles use the same nearest-rank convention as the exact recorder
 * and answer the geometric midpoint of the rank's bin, clamped to the
 * exactly-tracked [min_seen, max_seen] range, so the reported value is
 * within one bin ratio of the exact-sample quantile.
 */
class StreamingHistogram {
 public:
  /// Lower edge of the first regular bin. Samples below it (including
  /// zero and negatives) land in the underflow bin.
  static constexpr double kMinValue = 1e-6;
  /// Upper edge of the last regular bin. Samples at or above it land
  /// in the overflow bin.
  static constexpr double kMaxValue = 1e4;
  /// Log-scale resolution: bins per factor-of-10. Quantile error is
  /// bounded by one bin ratio, 10^(1/kBinsPerDecade).
  static constexpr int kBinsPerDecade = 32;

  StreamingHistogram();

  void Add(double value);

  /// Folds `other` into this histogram. Counts add exactly, so merging
  /// is associative and commutative bin-for-bin.
  void Merge(const StreamingHistogram& other);

  int64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double Sum() const { return sum_; }
  /// Arithmetic mean (exact); 0 when no samples were recorded.
  double Mean() const;
  /// Exact smallest/largest sample seen; 0 when empty.
  double Min() const { return count_ > 0 ? min_seen_ : 0.0; }
  double Max() const { return count_ > 0 ? max_seen_ : 0.0; }
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }

  /**
   * Nearest-rank quantile over the bin counts: the bin holding sorted
   * sample floor(p * (n - 1)) answers its geometric midpoint, clamped
   * to the exact extremes. `p` must be in [0, 1]; 0 when empty.
   */
  double Quantile(double p) const;

  size_t num_bins() const { return bins_.size(); }
  int64_t bin_count(size_t bin) const;
  /// Lower/upper value edges of a regular bin.
  double BinLower(size_t bin) const;
  double BinUpper(size_t bin) const;

 private:
  size_t BinIndex(double value) const;

  double log_min_ = 0.0;         ///< log10(kMinValue), precomputed.
  std::vector<int64_t> bins_;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

/// Monotonically increasing integer metric.
class MetricCounter {
 public:
  void Inc(int64_t delta = 1) {
    RAGO_REQUIRE(delta >= 0, "counter increments must be non-negative");
    value_ += delta;
  }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

/// Last-written double metric.
class MetricGauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/**
 * Owns named counters, gauges, and streaming histograms. Get-or-create
 * lookup; iteration and JSON emission are name-sorted so two runs that
 * recorded the same values emit byte-identical documents.
 */
class MetricsRegistry {
 public:
  /// Get-or-create. Names must be non-empty and are namespaced by
  /// metric kind (a counter and a gauge may share a name).
  MetricCounter& GetCounter(const std::string& name);
  MetricGauge& GetGauge(const std::string& name);
  StreamingHistogram& GetHistogram(const std::string& name);

  /// Null when the metric was never created (const lookup, no insert).
  const MetricCounter* FindCounter(const std::string& name) const;
  const MetricGauge* FindGauge(const std::string& name) const;
  const StreamingHistogram* FindHistogram(const std::string& name) const;

  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }
  void Clear();

  /**
   * Emits {"counters": {...}, "gauges": {...}, "histograms": {name:
   * {count, mean, min, max, p50, p95, p99, underflow, overflow}}} as
   * one object value into `json` (caller supplies the surrounding
   * key/document structure).
   */
  void WriteJson(JsonWriter& json) const;

 private:
  std::map<std::string, MetricCounter> counters_;
  std::map<std::string, MetricGauge> gauges_;
  std::map<std::string, StreamingHistogram> histograms_;
};

}  // namespace rago

#endif  // RAGO_COMMON_METRICS_H
