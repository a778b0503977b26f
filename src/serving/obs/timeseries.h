/**
 * @file timeseries.h
 * Windowed telemetry rollups with an RRD-style retention ladder.
 *
 * The whole-run aggregates in RuntimeResult answer "what were the
 * percentiles over the run"; the adaptive controller and the soak
 * scenarios need the *time axis* back — offered/admitted/rejected/
 * completed counts, attainment, latency quantiles, queue depth and
 * busy time per fixed virtual-clock window — without ever holding
 * memory proportional to run length. This header provides that:
 *
 *  - `TelemetryTimeSeries` rolls every recorded event into the
 *    fixed-interval window containing its virtual timestamp. Latency
 *    distributions use `StreamingHistogram` (O(bins) per window), so a
 *    window's memory is a constant of its one fixed binning.
 *  - Closed windows enter a **multi-resolution retention ladder**:
 *    level 0 holds the most recent `windows_per_level` fine windows;
 *    when it overflows, the oldest `fold_factor` windows merge into a
 *    single coarser window pushed onto level 1, and so on. The last
 *    level drops its oldest window (counted, never silent). Counts add
 *    exactly and histograms (all binned alike) merge exactly, so
 *    a folded window is the *exact* rollup of its constituents — only
 *    time resolution is lost, never events. Total memory is bounded by
 *    `levels * windows_per_level` windows regardless of run length.
 *
 * Windows are materialized for idle gaps too (an empty window is
 * evidence of "no traffic", which burn-rate alerting must see), and
 * the ladder bounds those the same way. All mutation happens on the
 * serial engine loops with non-decreasing virtual timestamps; given
 * the same event sequence the JSON export is byte-identical, which is
 * what makes the thread-count invariance tests meaningful.
 * Observation-only: nothing here feeds back into scheduling.
 */
#ifndef RAGO_SERVING_OBS_TIMESERIES_H
#define RAGO_SERVING_OBS_TIMESERIES_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"

namespace rago::obs {

/// Window geometry and retention policy of a telemetry time-series.
struct TimeSeriesOptions {
  /// Fine-window length in virtual seconds.
  double window_seconds = 1.0;
  /// Closed windows retained per ladder level before folding/dropping.
  int windows_per_level = 64;
  /// Fine windows merged into one coarser window on overflow.
  int fold_factor = 4;
  /// Ladder depth; level k windows span fold_factor^k fine windows.
  int levels = 3;

  /// Throws ConfigError on a non-positive window, windows_per_level <
  /// fold_factor, fold_factor < 2, or levels < 1.
  void Validate() const;
};

/// One closed (or in-progress) telemetry window. Fine windows span
/// `window_seconds`; folded windows span the sum of their parts.
struct WindowStats {
  double start = 0.0;  ///< Inclusive lower edge, virtual seconds.
  double span = 0.0;   ///< Window length, virtual seconds.

  int64_t offered = 0;    ///< Arrivals in-window.
  int64_t admitted = 0;   ///< Arrivals accepted past admission.
  int64_t rejected = 0;   ///< Arrivals shed at admission.
  int64_t completed = 0;  ///< Requests finishing in-window.
  int64_t slo_ok = 0;     ///< Completions meeting their SLO.

  StreamingHistogram ttft;        ///< Per-completion TTFT seconds.
  StreamingHistogram tpot;        ///< Per-completion TPOT seconds.
  StreamingHistogram queue_wait;  ///< Per-completion queue wait.

  /// Largest observed queue depth per stage (grown on demand).
  std::vector<int64_t> stage_max_queue_depth;
  /// Busy seconds attributed per stage (batch service intervals).
  std::vector<double> stage_busy_seconds;

  /// SLO attainment over the window's terminal events: slo_ok /
  /// (completed + rejected); 1.0 when the window saw none (no
  /// evidence of violation).
  double Attainment() const;

  /// Exact rollup: counts add, histograms merge bin-for-bin, per-stage
  /// depth takes the max and busy time adds. `other` must be the
  /// window immediately following this one in time.
  void MergeFrom(const WindowStats& other);
};

/// Lightweight view of a closed window handed to the alerting layer —
/// no histogram copies, just the counts burn rates are made of.
struct WindowSummary {
  double start = 0.0;
  double span = 0.0;
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t slo_ok = 0;
  double attainment = 1.0;
  int64_t max_queue_depth = 0;  ///< Max across stages in the window.
};

/**
 * Fixed-interval rollup collector. Engines call the Record* methods
 * from their serial event loops with non-decreasing timestamps;
 * AdvanceTo()/Finish() close windows as virtual time passes their
 * upper edge. Closed windows are queued for DrainClosed() (alerting)
 * and pushed onto the retention ladder (export).
 */
class TelemetryTimeSeries {
 public:
  explicit TelemetryTimeSeries(TimeSeriesOptions options = {});

  /// An arrival at `time`; `admitted` false counts it as rejected.
  void RecordOffered(double time, bool admitted);
  /// A completion at `time` with its latency breakdown and SLO verdict.
  void RecordCompletion(double time, double ttft, double tpot,
                        double queue_wait, bool slo_ok);
  /// Queue-depth observation for `stage` (taken max per window).
  void RecordQueueDepth(double time, int stage, int64_t depth);
  /// Attributes `seconds` of busy time to `stage` in `time`'s window.
  void RecordBusy(double time, int stage, double seconds);

  /// Closes every window whose upper edge is at or before `time`.
  void AdvanceTo(double time);
  /// Closes everything including the in-progress window (end of run).
  void Finish(double time);

  /// Returns summaries of windows closed since the last drain, oldest
  /// first, and clears the pending queue.
  std::vector<WindowSummary> DrainClosed();

  const TimeSeriesOptions& options() const { return options_; }
  /// Retained windows at ladder level `level`, oldest first. Level 0
  /// is the fine resolution; higher levels are coarser folds.
  const std::deque<WindowStats>& Level(int level) const;
  /// Number of stages seen so far (grown on demand).
  int num_stages() const { return num_stages_; }

  int64_t windows_closed() const { return windows_closed_; }
  int64_t windows_folded() const { return windows_folded_; }
  int64_t windows_dropped() const { return windows_dropped_; }
  /// Windows currently held across all levels (+ the in-progress one);
  /// bounded by levels * windows_per_level + 1 by construction.
  size_t WindowsHeld() const;

  /**
   * Emits the whole ladder as one deterministic object value:
   * {"window_seconds", "levels": [{"level", "windows": [{"start",
   * "span", counts..., "attainment", "ttft_p50", ...}...]}...],
   * "windows_closed", "windows_folded", "windows_dropped"}. All
   * containers are index-ordered; byte-identical for identical event
   * sequences.
   */
  void WriteJson(JsonWriter& json) const;
  std::string Json() const;

 private:
  WindowStats MakeWindow(int64_t index, int64_t fine_count) const;
  /// The window containing `time`, closing/creating as needed.
  WindowStats& WindowFor(double time);
  void CloseCurrent();
  void PushClosed(WindowStats window);

  TimeSeriesOptions options_;
  std::vector<std::deque<WindowStats>> levels_;
  std::deque<WindowStats> current_;  ///< 0 or 1 in-progress window.
  int64_t current_index_ = 0;        ///< Fine index of current_.
  bool finished_ = false;
  int num_stages_ = 0;
  std::vector<WindowSummary> pending_drain_;
  int64_t windows_closed_ = 0;
  int64_t windows_folded_ = 0;
  int64_t windows_dropped_ = 0;
};

}  // namespace rago::obs

#endif  // RAGO_SERVING_OBS_TIMESERIES_H
