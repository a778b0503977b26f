#include "common/metrics.h"

#include <algorithm>
#include <cmath>

namespace rago {

StreamingHistogram::StreamingHistogram() {
  log_min_ = std::log10(kMinValue);
  const double decades = std::log10(kMaxValue) - log_min_;
  const auto bins = static_cast<size_t>(
      std::ceil(decades * kBinsPerDecade - 1e-12));
  bins_.assign(std::max<size_t>(bins, 1), 0);
}

size_t
StreamingHistogram::BinIndex(double value) const {
  // Callers guarantee kMinValue <= value < kMaxValue here.
  const double offset = (std::log10(value) - log_min_) * kBinsPerDecade;
  auto bin = static_cast<size_t>(std::max(offset, 0.0));
  return std::min(bin, bins_.size() - 1);
}

void
StreamingHistogram::Add(double value) {
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_seen_ = max_seen_ = value;
  } else {
    min_seen_ = std::min(min_seen_, value);
    max_seen_ = std::max(max_seen_, value);
  }
  if (!(value >= kMinValue)) {  // Includes <= 0 and NaN.
    ++underflow_;
  } else if (value >= kMaxValue) {
    ++overflow_;
  } else {
    ++bins_[BinIndex(value)];
  }
}

void
StreamingHistogram::Merge(const StreamingHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_seen_ = other.min_seen_;
    max_seen_ = other.max_seen_;
  } else {
    min_seen_ = std::min(min_seen_, other.min_seen_);
    max_seen_ = std::max(max_seen_, other.max_seen_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  for (size_t i = 0; i < bins_.size(); ++i) {
    bins_[i] += other.bins_[i];
  }
}

double
StreamingHistogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

int64_t
StreamingHistogram::bin_count(size_t bin) const {
  RAGO_REQUIRE(bin < bins_.size(), "bin index out of range");
  return bins_[bin];
}

double
StreamingHistogram::BinLower(size_t bin) const {
  RAGO_REQUIRE(bin < bins_.size(), "bin index out of range");
  return std::pow(10.0,
                  log_min_ + static_cast<double>(bin) / kBinsPerDecade);
}

double
StreamingHistogram::BinUpper(size_t bin) const {
  RAGO_REQUIRE(bin < bins_.size(), "bin index out of range");
  return std::pow(10.0,
                  log_min_ + static_cast<double>(bin + 1) / kBinsPerDecade);
}

double
StreamingHistogram::Quantile(double p) const {
  RAGO_REQUIRE(p >= 0.0 && p <= 1.0, "quantile must be in [0, 1]");
  if (count_ == 0) {
    return 0.0;
  }
  const auto rank = static_cast<int64_t>(
      p * static_cast<double>(count_ - 1));
  int64_t seen = underflow_;
  if (rank < seen) {
    return min_seen_;  // Underflow region: exact minimum.
  }
  for (size_t bin = 0; bin < bins_.size(); ++bin) {
    seen += bins_[bin];
    if (rank < seen) {
      const double mid = std::sqrt(BinLower(bin) * BinUpper(bin));
      return std::clamp(mid, min_seen_, max_seen_);
    }
  }
  return max_seen_;  // Overflow region: exact maximum.
}

MetricCounter&
MetricsRegistry::GetCounter(const std::string& name) {
  RAGO_REQUIRE(!name.empty(), "metric names must be non-empty");
  return counters_[name];
}

MetricGauge&
MetricsRegistry::GetGauge(const std::string& name) {
  RAGO_REQUIRE(!name.empty(), "metric names must be non-empty");
  return gauges_[name];
}

StreamingHistogram&
MetricsRegistry::GetHistogram(const std::string& name) {
  RAGO_REQUIRE(!name.empty(), "metric names must be non-empty");
  return histograms_[name];
}

const MetricCounter*
MetricsRegistry::FindCounter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const MetricGauge*
MetricsRegistry::FindGauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const StreamingHistogram*
MetricsRegistry::FindHistogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void
MetricsRegistry::Clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void
MetricsRegistry::WriteJson(JsonWriter& json) const {
  json.BeginObject();
  json.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Int(counter.value());
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).Number(gauge.value());
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    json.Key(name).BeginObject();
    json.Key("count").Int(histogram.count());
    json.Key("mean").Number(histogram.Mean());
    json.Key("min").Number(histogram.Min());
    json.Key("max").Number(histogram.Max());
    json.Key("p50").Number(histogram.Quantile(0.5));
    json.Key("p95").Number(histogram.Quantile(0.95));
    json.Key("p99").Number(histogram.Quantile(0.99));
    json.Key("underflow").Int(histogram.underflow());
    json.Key("overflow").Int(histogram.overflow());
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
}

}  // namespace rago
