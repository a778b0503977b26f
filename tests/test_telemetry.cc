/**
 * @file test_telemetry.cc
 * Windowed telemetry, retention ladder, burn-rate alerting, and the
 * flight recorder: rollup math, bounded memory, hysteresis, and the
 * deterministic JSON surfaces.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "common/json_reader.h"

namespace rago {
namespace {

using obs::AlertTransition;
using obs::BurnRateRule;
using obs::FlightRecorder;
using obs::SloAlertEngine;
using obs::SloAlertOptions;
using obs::TelemetryTimeSeries;
using obs::TimeSeriesOptions;
using obs::WindowStats;
using obs::WindowSummary;

TEST(TimeSeriesOptionsTest, ValidateRejectsBadGeometry) {
  TimeSeriesOptions options;
  options.window_seconds = 0.0;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = {};
  options.fold_factor = 1;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = {};
  options.windows_per_level = 2;
  options.fold_factor = 4;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = {};
  options.levels = 0;
  EXPECT_THROW(options.Validate(), ConfigError);
  EXPECT_NO_THROW(TimeSeriesOptions{}.Validate());
}

TEST(TelemetryTimeSeriesTest, RollsEventsIntoTheirWindows) {
  TimeSeriesOptions options;
  options.window_seconds = 1.0;
  TelemetryTimeSeries series(options);

  series.RecordOffered(0.1, true);
  series.RecordOffered(0.2, false);
  series.RecordQueueDepth(0.3, 0, 4);
  series.RecordQueueDepth(0.4, 0, 2);
  series.RecordBusy(0.5, 1, 0.25);
  series.RecordCompletion(0.9, 0.05, 0.01, 0.02, true);
  series.RecordCompletion(1.5, 0.40, 0.09, 0.30, false);
  series.Finish(1.5);

  const auto& fine = series.Level(0);
  ASSERT_EQ(fine.size(), 2u);
  const WindowStats& w0 = fine[0];
  EXPECT_DOUBLE_EQ(w0.start, 0.0);
  EXPECT_DOUBLE_EQ(w0.span, 1.0);
  EXPECT_EQ(w0.offered, 2);
  EXPECT_EQ(w0.admitted, 1);
  EXPECT_EQ(w0.rejected, 1);
  EXPECT_EQ(w0.completed, 1);
  EXPECT_EQ(w0.slo_ok, 1);
  // Terminal events: 1 completion (ok) + 1 rejection -> 1/2.
  EXPECT_DOUBLE_EQ(w0.Attainment(), 0.5);
  ASSERT_EQ(w0.stage_max_queue_depth.size(), 1u);
  EXPECT_EQ(w0.stage_max_queue_depth[0], 4);
  ASSERT_EQ(w0.stage_busy_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(w0.stage_busy_seconds[1], 0.25);
  EXPECT_EQ(w0.ttft.count(), 1);

  const WindowStats& w1 = fine[1];
  EXPECT_DOUBLE_EQ(w1.start, 1.0);
  EXPECT_EQ(w1.completed, 1);
  EXPECT_EQ(w1.slo_ok, 0);
  EXPECT_DOUBLE_EQ(w1.Attainment(), 0.0);
  EXPECT_EQ(series.windows_closed(), 2);
}

TEST(TelemetryTimeSeriesTest, MaterializesEmptyWindowsAcrossIdleGaps) {
  TimeSeriesOptions options;
  options.window_seconds = 1.0;
  TelemetryTimeSeries series(options);
  series.RecordOffered(0.5, true);
  series.RecordOffered(5.5, true);
  series.Finish(5.5);

  const auto& fine = series.Level(0);
  ASSERT_EQ(fine.size(), 6u);
  for (int w = 1; w <= 4; ++w) {
    EXPECT_EQ(fine[static_cast<size_t>(w)].offered, 0) << "window " << w;
    EXPECT_DOUBLE_EQ(fine[static_cast<size_t>(w)].Attainment(), 1.0);
  }
  EXPECT_EQ(fine[0].offered, 1);
  EXPECT_EQ(fine[5].offered, 1);
}

TEST(TelemetryTimeSeriesTest, LadderFoldsExactlyAndStaysBounded) {
  TimeSeriesOptions options;
  options.window_seconds = 1.0;
  options.windows_per_level = 4;
  options.fold_factor = 2;
  options.levels = 3;
  TelemetryTimeSeries series(options);

  // 40 windows, one admitted arrival + one good completion each.
  const int kWindows = 40;
  for (int w = 0; w < kWindows; ++w) {
    const double t = w + 0.5;
    series.RecordOffered(t, true);
    series.RecordCompletion(t, 0.1, 0.01, 0.0, true);
  }
  series.Finish(static_cast<double>(kWindows));

  EXPECT_EQ(series.windows_closed(), kWindows);
  size_t held = 0;
  int64_t offered_retained = 0;
  for (int level = 0; level < options.levels; ++level) {
    const auto& windows = series.Level(level);
    EXPECT_LE(windows.size(),
              static_cast<size_t>(options.windows_per_level))
        << "level " << level;
    held += windows.size();
    double expected_span = options.window_seconds;
    for (int k = 0; k < level; ++k) {
      expected_span *= options.fold_factor;
    }
    for (const WindowStats& window : windows) {
      EXPECT_DOUBLE_EQ(window.span, expected_span) << "level " << level;
      offered_retained += window.offered;
      // Folds merge histograms exactly: one sample per fine window.
      EXPECT_EQ(window.ttft.count(), window.completed);
    }
  }
  EXPECT_EQ(held, series.WindowsHeld());
  EXPECT_LE(series.WindowsHeld(),
            static_cast<size_t>(options.levels * options.windows_per_level) +
                1);
  // Nothing vanished silently: every dropped window left the bottom
  // level, where each coarse window carries fold^(levels-1) fine
  // windows' events (one offered each here).
  int64_t fine_per_dropped = 1;
  for (int k = 1; k < options.levels; ++k) {
    fine_per_dropped *= options.fold_factor;
  }
  EXPECT_EQ(offered_retained + series.windows_dropped() * fine_per_dropped,
            kWindows);
  EXPECT_GT(series.windows_folded(), 0);
  EXPECT_GT(series.windows_dropped(), 0);
}

TEST(TelemetryTimeSeriesTest, MemoryBoundHoldsForLongRuns) {
  TimeSeriesOptions options;
  options.window_seconds = 1.0;
  options.windows_per_level = 8;
  options.fold_factor = 4;
  options.levels = 2;
  TelemetryTimeSeries series(options);
  for (int w = 0; w < 5000; ++w) {
    series.RecordOffered(w + 0.25, true);
  }
  series.Finish(5000.0);
  EXPECT_EQ(series.windows_closed(), 5000);
  EXPECT_LE(series.WindowsHeld(), 8u * 2u + 1u);
  EXPECT_GT(series.windows_dropped(), 0);
}

TEST(TelemetryTimeSeriesTest, DrainClosedHandsWindowsToAlertingOnce) {
  TimeSeriesOptions options;
  options.window_seconds = 1.0;
  TelemetryTimeSeries series(options);
  series.RecordOffered(0.5, true);
  series.RecordCompletion(0.7, 0.1, 0.01, 0.0, false);
  series.AdvanceTo(2.2);  // Closes windows 0 and 1.
  std::vector<WindowSummary> drained = series.DrainClosed();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_DOUBLE_EQ(drained[0].start, 0.0);
  EXPECT_EQ(drained[0].offered, 1);
  EXPECT_EQ(drained[0].completed, 1);
  EXPECT_DOUBLE_EQ(drained[0].attainment, 0.0);
  EXPECT_EQ(drained[1].offered, 0);
  EXPECT_TRUE(series.DrainClosed().empty());
  // Finish closes the in-progress window holding the last event; a
  // never-touched trailing window does not materialize.
  series.RecordOffered(2.3, true);
  series.Finish(2.3);
  EXPECT_EQ(series.DrainClosed().size(), 1u);
}

TEST(TelemetryTimeSeriesTest, JsonExportIsDeterministicAndShaped) {
  TimeSeriesOptions options;
  options.window_seconds = 0.5;
  TelemetryTimeSeries series(options);
  series.RecordOffered(0.1, true);
  series.RecordQueueDepth(0.2, 1, 3);
  series.RecordCompletion(0.4, 0.2, 0.02, 0.1, true);
  series.Finish(0.4);

  const std::string body = series.Json();
  EXPECT_EQ(body, series.Json());  // Byte-stable re-export.

  const JsonValue doc = JsonValue::Parse(body);
  EXPECT_DOUBLE_EQ(doc.At("window_seconds").AsNumber(), 0.5);
  EXPECT_EQ(doc.At("windows_closed").AsNumber(), 1.0);
  EXPECT_EQ(doc.At("num_stages").AsNumber(), 2.0);
  const auto& levels = doc.At("levels").Items();
  ASSERT_EQ(levels.size(), 3u);  // Default ladder depth.
  const auto& windows = levels[0].At("windows").Items();
  ASSERT_EQ(windows.size(), 1u);
  const auto& window = windows[0];
  EXPECT_EQ(window.At("offered").AsNumber(), 1.0);
  EXPECT_EQ(window.At("completed").AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(window.At("attainment").AsNumber(), 1.0);
  EXPECT_EQ(window.At("stage_max_queue_depth").Items().size(), 2u);
  EXPECT_GT(window.At("ttft_p50").AsNumber(), 0.0);
}

TEST(TelemetryTimeSeriesTest, RejectsRegressingConfigurationAndTime) {
  TelemetryTimeSeries series;
  series.RecordOffered(1.0, true);
  EXPECT_THROW(series.RecordOffered(-1.0, true), ConfigError);
  series.Finish(1.0);
  EXPECT_THROW(series.RecordOffered(2.0, true), ConfigError);
}

TEST(BurnRateRuleTest, ValidateRejectsDegenerateRules) {
  BurnRateRule rule;
  rule.name = "";
  EXPECT_THROW(rule.Validate(), ConfigError);
  rule = {};
  rule.long_window_seconds = rule.short_window_seconds;
  EXPECT_THROW(rule.Validate(), ConfigError);
  rule = {};
  rule.burn_threshold = 0.0;
  EXPECT_THROW(rule.Validate(), ConfigError);
  rule = {};
  rule.fire_after = 0;
  EXPECT_THROW(rule.Validate(), ConfigError);
  SloAlertOptions options;
  options.attainment_goal = 1.0;
  EXPECT_THROW(options.Validate(), ConfigError);
}

WindowSummary
MakeWindow(double start, int64_t completed, int64_t slo_ok,
           int64_t rejected = 0) {
  WindowSummary window;
  window.start = start;
  window.span = 1.0;
  window.offered = completed + rejected;
  window.admitted = completed;
  window.rejected = rejected;
  window.completed = completed;
  window.slo_ok = slo_ok;
  const int64_t terminal = completed + rejected;
  window.attainment =
      terminal == 0
          ? 1.0
          : static_cast<double>(slo_ok) / static_cast<double>(terminal);
  return window;
}

TEST(SloAlertEngineTest, FiresOnSustainedBurnAndClearsOnRecovery) {
  SloAlertOptions options;
  options.attainment_goal = 0.9;  // Budget: 10% errors.
  BurnRateRule rule;
  rule.name = "page";
  rule.short_window_seconds = 2.0;
  rule.long_window_seconds = 4.0;
  rule.burn_threshold = 1.0;
  rule.fire_after = 2;
  rule.clear_after = 2;
  options.rules = {rule};
  SloAlertEngine engine(options);

  // Four fully-failing windows: burn = 1.0 / 0.1 = 10x budget.
  std::vector<AlertTransition> fired;
  for (int w = 0; w < 4; ++w) {
    auto fresh = engine.Observe(MakeWindow(w, 10, 0));
    fired.insert(fired.end(), fresh.begin(), fresh.end());
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_TRUE(fired[0].firing);
  // fire_after = 2: the second breaching evaluation fires, at the end
  // of window 1.
  EXPECT_DOUBLE_EQ(fired[0].time, 2.0);
  EXPECT_DOUBLE_EQ(fired[0].short_burn, 10.0);
  EXPECT_TRUE(engine.Firing(0));

  // Recovery: perfect windows. The short window (2 fine windows) is
  // clean of errors after two good windows; clear_after = 2 more.
  std::vector<AlertTransition> cleared;
  for (int w = 4; w < 10; ++w) {
    auto fresh = engine.Observe(MakeWindow(w, 10, 10));
    cleared.insert(cleared.end(), fresh.begin(), fresh.end());
  }
  ASSERT_EQ(cleared.size(), 1u);
  EXPECT_FALSE(cleared[0].firing);
  EXPECT_FALSE(engine.Firing(0));
  EXPECT_EQ(engine.transitions().size(), 2u);
}

TEST(SloAlertEngineTest, HysteresisSuppressesFlappingSignals) {
  SloAlertOptions options;
  options.attainment_goal = 0.9;
  BurnRateRule rule;
  rule.short_window_seconds = 1.0;  // Covers one fine window.
  rule.long_window_seconds = 3.0;
  rule.burn_threshold = 5.0;
  rule.fire_after = 2;
  options.rules = {rule};
  SloAlertEngine engine(options);

  // Alternating disaster/perfect windows: the short burn flaps above
  // and below threshold, so a 2-consecutive requirement never fires.
  for (int w = 0; w < 12; ++w) {
    const bool bad = (w % 2) == 0;
    engine.Observe(MakeWindow(w, 10, bad ? 0 : 10));
  }
  EXPECT_TRUE(engine.transitions().empty());
  EXPECT_FALSE(engine.Firing(0));
}

TEST(SloAlertEngineTest, EmptyWindowsConsumeNoBudget) {
  SloAlertOptions options;
  options.attainment_goal = 0.5;
  BurnRateRule rule;
  rule.short_window_seconds = 1.5;
  rule.long_window_seconds = 3.0;
  rule.burn_threshold = 1.0;
  options.rules = {rule};
  SloAlertEngine engine(options);
  for (int w = 0; w < 8; ++w) {
    engine.Observe(MakeWindow(w, 0, 0));
  }
  EXPECT_TRUE(engine.transitions().empty());
  EXPECT_DOUBLE_EQ(engine.BurnRate(3.0, 8.0), 0.0);
}

TEST(SloAlertEngineTest, RejectionsBurnBudgetLikeViolations) {
  SloAlertOptions options;
  options.attainment_goal = 0.9;
  BurnRateRule rule;
  rule.short_window_seconds = 1.5;
  rule.long_window_seconds = 3.0;
  rule.burn_threshold = 1.0;
  options.rules = {rule};
  SloAlertEngine engine(options);
  engine.Observe(MakeWindow(0, 0, 0, /*rejected=*/10));
  engine.Observe(MakeWindow(1, 0, 0, /*rejected=*/10));
  engine.Observe(MakeWindow(2, 0, 0, /*rejected=*/10));
  ASSERT_EQ(engine.transitions().size(), 1u);
  EXPECT_TRUE(engine.transitions()[0].firing);
}

TEST(SloAlertEngineTest, JsonListsRulesAndTransitions) {
  SloAlertOptions options;
  options.attainment_goal = 0.9;
  BurnRateRule rule;
  rule.short_window_seconds = 1.0;  // Clears on the first good window.
  rule.long_window_seconds = 3.0;
  rule.burn_threshold = 1.0;
  options.rules = {rule};
  SloAlertEngine engine(options);
  engine.Observe(MakeWindow(0, 10, 0));
  engine.Observe(MakeWindow(1, 10, 10));

  const JsonValue doc = JsonValue::Parse(engine.Json());
  EXPECT_DOUBLE_EQ(doc.At("attainment_goal").AsNumber(), 0.9);
  const auto& rules = doc.At("rules").Items();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].At("name").AsString(), "page");
  const auto& transitions = doc.At("transitions").Items();
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_TRUE(transitions[0].At("firing").AsBool());
  EXPECT_FALSE(transitions[1].At("firing").AsBool());
}

TEST(FlightRecorderTest, RingKeepsTheMostRecentAndCountsDrops) {
  FlightRecorder flight(4);
  for (int i = 0; i < 10; ++i) {
    flight.Append(static_cast<double>(i), "note",
                  "entry " + std::to_string(i), i);
  }
  EXPECT_EQ(flight.size(), 4u);
  EXPECT_EQ(flight.appended(), 10);
  EXPECT_EQ(flight.dropped(), 6);
  EXPECT_EQ(flight.records().front().message, "entry 6");
  EXPECT_EQ(flight.records().back().message, "entry 9");
  EXPECT_THROW(FlightRecorder(0), ConfigError);
}

TEST(FlightRecorderTest, JsonAndFileDumpsAreLoadable) {
  FlightRecorder flight(8);
  flight.Append(1.5, "alert", "page FIRING", 12.5);
  const JsonValue doc = JsonValue::Parse(flight.Json());
  EXPECT_EQ(doc.At("appended").AsNumber(), 1.0);
  EXPECT_EQ(doc.At("dropped").AsNumber(), 0.0);
  const auto& records = doc.At("records").Items();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].At("kind").AsString(), "alert");
  EXPECT_DOUBLE_EQ(records[0].At("value").AsNumber(), 12.5);

  const std::string path = "test_flight_recorder_dump.json";
  flight.DumpToFile(path);
  const JsonValue from_file = ParseJsonFile(path);
  EXPECT_EQ(from_file.At("records").Items().size(), 1u);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DumpReportsAFailedWrite) {
  // /dev/full opens fine and fails every write with ENOSPC; buffered
  // output surfaces that at the flush in fclose.
  FlightRecorder flight(8);
  flight.Append(0.5, "note", "begin");
  EXPECT_THROW(flight.DumpToFile("/dev/full"), ConfigError);
  EXPECT_THROW(flight.DumpToFile("no_such_directory/flight.json"),
               ConfigError);
}

}  // namespace
}  // namespace rago
