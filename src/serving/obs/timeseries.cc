#include "serving/obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace rago::obs {

void
TimeSeriesOptions::Validate() const {
  RAGO_REQUIRE(window_seconds > 0.0 && std::isfinite(window_seconds),
               "window_seconds must be positive and finite");
  RAGO_REQUIRE(fold_factor >= 2, "fold_factor must be at least 2");
  RAGO_REQUIRE(windows_per_level >= fold_factor,
               "windows_per_level must be at least fold_factor");
  RAGO_REQUIRE(levels >= 1, "levels must be at least 1");
}

double
WindowStats::Attainment() const {
  const int64_t terminal = completed + rejected;
  if (terminal == 0) {
    return 1.0;
  }
  return static_cast<double>(slo_ok) / static_cast<double>(terminal);
}

void
WindowStats::MergeFrom(const WindowStats& other) {
  RAGO_CHECK(other.start >= start, "fold must merge forward in time");
  span = (other.start + other.span) - start;
  offered += other.offered;
  admitted += other.admitted;
  rejected += other.rejected;
  completed += other.completed;
  slo_ok += other.slo_ok;
  ttft.Merge(other.ttft);
  tpot.Merge(other.tpot);
  queue_wait.Merge(other.queue_wait);
  if (other.stage_max_queue_depth.size() > stage_max_queue_depth.size()) {
    stage_max_queue_depth.resize(other.stage_max_queue_depth.size(), 0);
  }
  for (size_t s = 0; s < other.stage_max_queue_depth.size(); ++s) {
    stage_max_queue_depth[s] =
        std::max(stage_max_queue_depth[s], other.stage_max_queue_depth[s]);
  }
  if (other.stage_busy_seconds.size() > stage_busy_seconds.size()) {
    stage_busy_seconds.resize(other.stage_busy_seconds.size(), 0.0);
  }
  for (size_t s = 0; s < other.stage_busy_seconds.size(); ++s) {
    stage_busy_seconds[s] += other.stage_busy_seconds[s];
  }
}

TelemetryTimeSeries::TelemetryTimeSeries(TimeSeriesOptions options)
    : options_(options) {
  options_.Validate();
  levels_.resize(static_cast<size_t>(options_.levels));
}

WindowStats
TelemetryTimeSeries::MakeWindow(int64_t index, int64_t fine_count) const {
  WindowStats window;
  window.start = static_cast<double>(index) * options_.window_seconds;
  window.span = static_cast<double>(fine_count) * options_.window_seconds;
  return window;
}

WindowStats&
TelemetryTimeSeries::WindowFor(double time) {
  RAGO_REQUIRE(!finished_, "time-series already finished");
  RAGO_REQUIRE(time >= 0.0 && std::isfinite(time),
               "telemetry timestamps must be non-negative and finite");
  AdvanceTo(time);
  if (current_.empty()) {
    current_.push_back(MakeWindow(current_index_, 1));
  }
  return current_.front();
}

void
TelemetryTimeSeries::CloseCurrent() {
  RAGO_CHECK(!current_.empty(), "no in-progress window to close");
  WindowStats window = std::move(current_.front());
  current_.clear();

  WindowSummary summary;
  summary.start = window.start;
  summary.span = window.span;
  summary.offered = window.offered;
  summary.admitted = window.admitted;
  summary.rejected = window.rejected;
  summary.completed = window.completed;
  summary.slo_ok = window.slo_ok;
  summary.attainment = window.Attainment();
  for (int64_t depth : window.stage_max_queue_depth) {
    summary.max_queue_depth = std::max(summary.max_queue_depth, depth);
  }
  pending_drain_.push_back(summary);
  ++windows_closed_;

  PushClosed(std::move(window));
}

void
TelemetryTimeSeries::PushClosed(WindowStats window) {
  levels_[0].push_back(std::move(window));
  const size_t capacity = static_cast<size_t>(options_.windows_per_level);
  for (size_t level = 0; level < levels_.size(); ++level) {
    if (levels_[level].size() <= capacity) {
      break;
    }
    if (level + 1 == levels_.size()) {
      // Bottom of the ladder: shed the oldest window, counted so the
      // export never silently under-reports coverage.
      levels_[level].pop_front();
      ++windows_dropped_;
      break;
    }
    // Fold the oldest fold_factor windows into one coarser window on
    // the next level. Counts add and histograms merge exactly, so the
    // fold loses time resolution only, never events.
    WindowStats folded = std::move(levels_[level].front());
    levels_[level].pop_front();
    for (int i = 1; i < options_.fold_factor; ++i) {
      folded.MergeFrom(levels_[level].front());
      levels_[level].pop_front();
    }
    windows_folded_ += options_.fold_factor;
    levels_[level + 1].push_back(std::move(folded));
  }
}

void
TelemetryTimeSeries::AdvanceTo(double time) {
  RAGO_REQUIRE(time >= 0.0 && std::isfinite(time),
               "telemetry timestamps must be non-negative and finite");
  const int64_t target =
      static_cast<int64_t>(std::floor(time / options_.window_seconds));
  while (current_index_ < target) {
    if (current_.empty()) {
      // Idle gap: materialize the empty window so the exported series
      // stays fixed-interval (and alerting sees "no traffic").
      current_.push_back(MakeWindow(current_index_, 1));
    }
    CloseCurrent();
    ++current_index_;
  }
}

void
TelemetryTimeSeries::Finish(double time) {
  AdvanceTo(time);
  if (!current_.empty()) {
    CloseCurrent();
    ++current_index_;
  }
  finished_ = true;
}

void
TelemetryTimeSeries::RecordOffered(double time, bool admitted) {
  WindowStats& window = WindowFor(time);
  ++window.offered;
  if (admitted) {
    ++window.admitted;
  } else {
    ++window.rejected;
  }
}

void
TelemetryTimeSeries::RecordCompletion(double time, double ttft, double tpot,
                                      double queue_wait, bool slo_ok) {
  WindowStats& window = WindowFor(time);
  ++window.completed;
  if (slo_ok) {
    ++window.slo_ok;
  }
  window.ttft.Add(ttft);
  window.tpot.Add(tpot);
  window.queue_wait.Add(queue_wait);
}

void
TelemetryTimeSeries::RecordQueueDepth(double time, int stage, int64_t depth) {
  RAGO_REQUIRE(stage >= 0, "stage index must be non-negative");
  WindowStats& window = WindowFor(time);
  if (static_cast<size_t>(stage) >= window.stage_max_queue_depth.size()) {
    window.stage_max_queue_depth.resize(static_cast<size_t>(stage) + 1, 0);
  }
  window.stage_max_queue_depth[static_cast<size_t>(stage)] = std::max(
      window.stage_max_queue_depth[static_cast<size_t>(stage)], depth);
  num_stages_ = std::max(num_stages_, stage + 1);
}

void
TelemetryTimeSeries::RecordBusy(double time, int stage, double seconds) {
  RAGO_REQUIRE(stage >= 0, "stage index must be non-negative");
  RAGO_REQUIRE(seconds >= 0.0, "busy time must be non-negative");
  WindowStats& window = WindowFor(time);
  if (static_cast<size_t>(stage) >= window.stage_busy_seconds.size()) {
    window.stage_busy_seconds.resize(static_cast<size_t>(stage) + 1, 0.0);
  }
  window.stage_busy_seconds[static_cast<size_t>(stage)] += seconds;
  num_stages_ = std::max(num_stages_, stage + 1);
}

std::vector<WindowSummary>
TelemetryTimeSeries::DrainClosed() {
  std::vector<WindowSummary> drained;
  drained.swap(pending_drain_);
  return drained;
}

const std::deque<WindowStats>&
TelemetryTimeSeries::Level(int level) const {
  RAGO_REQUIRE(level >= 0 && static_cast<size_t>(level) < levels_.size(),
               "ladder level out of range");
  return levels_[static_cast<size_t>(level)];
}

size_t
TelemetryTimeSeries::WindowsHeld() const {
  size_t held = current_.size();
  for (const std::deque<WindowStats>& level : levels_) {
    held += level.size();
  }
  return held;
}

void
TelemetryTimeSeries::WriteJson(JsonWriter& json) const {
  json.BeginObject();
  json.Key("levels").BeginArray();
  for (size_t level = 0; level < levels_.size(); ++level) {
    json.BeginObject();
    json.Key("level").Int(static_cast<int64_t>(level));
    json.Key("windows").BeginArray();
    for (const WindowStats& window : levels_[level]) {
      json.BeginObject();
      json.Key("admitted").Int(window.admitted);
      json.Key("attainment").Number(window.Attainment());
      json.Key("completed").Int(window.completed);
      json.Key("offered").Int(window.offered);
      json.Key("queue_wait_p95").Number(window.queue_wait.Quantile(0.95));
      json.Key("rejected").Int(window.rejected);
      json.Key("slo_ok").Int(window.slo_ok);
      json.Key("span").Number(window.span);
      json.Key("stage_busy_seconds").BeginArray();
      for (double busy : window.stage_busy_seconds) {
        json.Number(busy);
      }
      json.EndArray();
      json.Key("stage_max_queue_depth").BeginArray();
      for (int64_t depth : window.stage_max_queue_depth) {
        json.Int(depth);
      }
      json.EndArray();
      json.Key("start").Number(window.start);
      json.Key("tpot_p95").Number(window.tpot.Quantile(0.95));
      json.Key("ttft_p50").Number(window.ttft.Quantile(0.50));
      json.Key("ttft_p95").Number(window.ttft.Quantile(0.95));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("num_stages").Int(num_stages_);
  json.Key("window_seconds").Number(options_.window_seconds);
  json.Key("windows_closed").Int(windows_closed_);
  json.Key("windows_dropped").Int(windows_dropped_);
  json.Key("windows_folded").Int(windows_folded_);
  json.Key("windows_held").Int(static_cast<int64_t>(WindowsHeld()));
  json.EndObject();
}

std::string
TelemetryTimeSeries::Json() const {
  JsonWriter json;
  WriteJson(json);
  return json.str();
}

}  // namespace rago::obs
