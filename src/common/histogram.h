/**
 * @file histogram.h
 * Exact latency recorder.
 *
 * The serving engine reports latency percentiles (TTFT, TPOT, queue
 * wait) for the online runtime and the DES alike, bound by the repo's
 * determinism contract — fixed seed => bit-identical statistics for
 * any thread count — so the recorder keeps every sample: percentiles
 * are pure functions of the recorded multiset, never of a binning,
 * and two runs that produced the same samples report the same
 * doubles to the last bit. Its memory is one double per sample, the
 * same order as the per-request outcomes a run already keeps; bounded
 * histograms with one fixed log-scale binning live in common/metrics.h
 * (StreamingHistogram).
 */
#ifndef RAGO_COMMON_HISTOGRAM_H
#define RAGO_COMMON_HISTOGRAM_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace rago {

/// Accumulates double samples; answers mean and percentiles.
class Histogram {
 public:
  void Add(double value) {
    samples_.push_back(value);
    sum_ += value;
    sorted_ = false;
  }

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  /// Arithmetic mean; 0 when no samples were recorded.
  double Mean() const {
    return samples_.empty() ? 0.0
                            : sum_ / static_cast<double>(samples_.size());
  }

  /**
   * Nearest-rank percentile: the sorted sample at index
   * floor(p * (n - 1)), the convention the serving DES has always used
   * for p99 TTFT. `p` must be in [0, 1]; 0 when no samples were
   * recorded.
   */
  double Percentile(double p) const {
    RAGO_REQUIRE(p >= 0.0 && p <= 1.0, "percentile must be in [0, 1]");
    if (samples_.empty()) {
      return 0.0;
    }
    EnsureSorted();
    const auto index = static_cast<size_t>(
        p * static_cast<double>(samples_.size() - 1));
    return samples_[index];
  }

 private:
  void EnsureSorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

}  // namespace rago

#endif  // RAGO_COMMON_HISTOGRAM_H
