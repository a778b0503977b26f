/**
 * @file test_obs.cc
 * Tests for the span-trace recorder (serving/obs/trace.h): recorded
 * event fields, per-request filtering, and the exact shape of the
 * Chrome trace-event export — pinned by parsing the emitted JSON with
 * the in-tree reader rather than string matching. Also covers sinks
 * attached to a DES run (the engine under sim::DesEngineOptions).
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "common/json_reader.h"
#include "common/metrics.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/engine.h"
#include "serving/runtime/workload.h"
#include "sim/serving_sim.h"
#include "tests/testing/test_support.h"

namespace rago::obs {
namespace {

TEST(TraceRecorder, RecordsCompleteAndInstantEvents) {
  TraceRecorder recorder;
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.size(), 0u);

  TraceEvent& span =
      recorder.AddComplete("exec", "stage", /*pid=*/0, /*tid=*/3,
                           /*start=*/1.5, /*duration=*/0.25,
                           /*request_id=*/7);
  span.args.emplace_back("batch", 4.0);

  recorder.AddInstant("first-token", "request", /*pid=*/1, /*tid=*/7,
                      /*time=*/1.75, /*request_id=*/7);

  ASSERT_EQ(recorder.size(), 2u);
  const TraceEvent& e0 = recorder.events()[0];
  EXPECT_EQ(e0.phase, TraceEvent::Phase::kComplete);
  EXPECT_EQ(e0.name, "exec");
  EXPECT_EQ(e0.category, "stage");
  EXPECT_EQ(e0.pid, 0);
  EXPECT_EQ(e0.tid, 3);
  EXPECT_DOUBLE_EQ(e0.start, 1.5);
  EXPECT_DOUBLE_EQ(e0.duration, 0.25);
  EXPECT_EQ(e0.request_id, 7);
  ASSERT_EQ(e0.args.size(), 1u);
  EXPECT_EQ(e0.args[0].first, "batch");
  EXPECT_DOUBLE_EQ(e0.args[0].second, 4.0);

  const TraceEvent& e1 = recorder.events()[1];
  EXPECT_EQ(e1.phase, TraceEvent::Phase::kInstant);
  EXPECT_DOUBLE_EQ(e1.start, 1.75);
  EXPECT_DOUBLE_EQ(e1.duration, 0.0);

  recorder.Clear();
  EXPECT_TRUE(recorder.empty());
}

TEST(TraceRecorder, EventsForRequestFiltersInRecordedOrder) {
  TraceRecorder recorder;
  recorder.AddComplete("a", "c", 0, 0, 0.0, 1.0, /*request_id=*/1);
  recorder.AddComplete("b", "c", 0, 0, 1.0, 1.0, /*request_id=*/2);
  recorder.AddInstant("c", "c", 1, 1, 2.0, /*request_id=*/1);
  recorder.AddComplete("d", "c", 0, 0, 3.0, 1.0);  // no request

  const std::vector<const TraceEvent*> events =
      recorder.EventsForRequest(1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0]->name, "a");
  EXPECT_EQ(events[1]->name, "c");
  EXPECT_TRUE(recorder.EventsForRequest(99).empty());
}

TEST(TraceRecorder, ChromeExportShapeIsPinned) {
  TraceRecorder recorder;
  recorder.SetProcessName(0, "servers");
  recorder.SetThreadName(0, 2, "server 2 (xpu)");
  TraceEvent& span = recorder.AddComplete("exec", "stage", 0, 2,
                                          /*start=*/0.5,
                                          /*duration=*/0.125,
                                          /*request_id=*/11);
  span.args.emplace_back("batch", 8.0);
  recorder.AddInstant("first-token", "request", 1, 11, /*time=*/0.625,
                      /*request_id=*/11);

  const JsonValue doc = JsonValue::Parse(recorder.ChromeTraceJson());
  EXPECT_EQ(doc.At("displayTimeUnit").AsString(), "ms");
  const JsonValue& events = doc.At("traceEvents");
  // Metadata first (process_name, the explicit thread_name, then the
  // request row named at export), then the two events.
  ASSERT_EQ(events.size(), 5u);

  const JsonValue& process_meta = events.Items()[0];
  EXPECT_EQ(process_meta.At("ph").AsString(), "M");
  EXPECT_EQ(process_meta.At("name").AsString(), "process_name");
  EXPECT_EQ(process_meta.At("pid").AsInt(), 0);
  EXPECT_EQ(process_meta.At("args").At("name").AsString(), "servers");

  const JsonValue& thread_meta = events.Items()[1];
  EXPECT_EQ(thread_meta.At("ph").AsString(), "M");
  EXPECT_EQ(thread_meta.At("name").AsString(), "thread_name");
  EXPECT_EQ(thread_meta.At("tid").AsInt(), 2);
  EXPECT_EQ(thread_meta.At("args").At("name").AsString(),
            "server 2 (xpu)");

  const JsonValue& request_meta = events.Items()[2];
  EXPECT_EQ(request_meta.At("name").AsString(), "thread_name");
  EXPECT_EQ(request_meta.At("pid").AsInt(), 1);
  EXPECT_EQ(request_meta.At("tid").AsInt(), 11);
  EXPECT_EQ(request_meta.At("args").At("name").AsString(), "req 11");

  // Virtual seconds scale to the microseconds chrome://tracing
  // expects; args carry the request id plus attached payload.
  const JsonValue& complete = events.Items()[3];
  EXPECT_EQ(complete.At("ph").AsString(), "X");
  EXPECT_EQ(complete.At("name").AsString(), "exec");
  EXPECT_EQ(complete.At("cat").AsString(), "stage");
  EXPECT_DOUBLE_EQ(complete.At("ts").AsNumber(), 0.5 * 1e6);
  EXPECT_DOUBLE_EQ(complete.At("dur").AsNumber(), 0.125 * 1e6);
  EXPECT_EQ(complete.At("args").At("request").AsInt(), 11);
  EXPECT_DOUBLE_EQ(complete.At("args").At("batch").AsNumber(), 8.0);

  const JsonValue& instant = events.Items()[4];
  EXPECT_EQ(instant.At("ph").AsString(), "i");
  EXPECT_EQ(instant.At("s").AsString(), "t");
  EXPECT_DOUBLE_EQ(instant.At("ts").AsNumber(), 0.625 * 1e6);
}

TEST(TraceRecorder, RequestSummaryGroupsByRequestId) {
  TraceRecorder recorder;
  recorder.AddComplete("exec", "stage", 0, 0, 0.0, 1.0, /*request_id=*/5);
  recorder.AddInstant("first-token", "request", 1, 2, 1.0,
                      /*request_id=*/2);
  recorder.AddComplete("decode", "request", 1, 5, 1.0, 2.0,
                       /*request_id=*/5);
  recorder.AddComplete("idle", "server", 0, 0, 2.0, 1.0);  // no request

  const JsonValue doc = JsonValue::Parse(recorder.RequestSummaryJson());
  const JsonValue& requests = doc.At("requests");
  ASSERT_EQ(requests.size(), 2u);  // ids 2 and 5; anonymous omitted

  const JsonValue& req2 = requests.Items()[0];
  EXPECT_EQ(req2.At("request").AsInt(), 2);
  ASSERT_EQ(req2.At("events").size(), 1u);
  EXPECT_EQ(req2.At("events").Items()[0].At("name").AsString(),
            "first-token");

  const JsonValue& req5 = requests.Items()[1];
  EXPECT_EQ(req5.At("request").AsInt(), 5);
  ASSERT_EQ(req5.At("events").size(), 2u);
  EXPECT_EQ(req5.At("events").Items()[0].At("name").AsString(), "exec");
  EXPECT_EQ(req5.At("events").Items()[1].At("name").AsString(),
            "decode");
  EXPECT_DOUBLE_EQ(
      req5.At("events").Items()[1].At("duration").AsNumber(), 2.0);
}

// --- DES integration -------------------------------------------------

core::Schedule SimpleSchedule(const core::PipelineModel& model,
                              int group_chips, int decode_chips,
                              int64_t batch, int64_t decode_batch) {
  core::Schedule schedule;
  schedule.chain_group.assign(model.chain().size(), 0);
  schedule.group_chips = {group_chips};
  schedule.chain_batch.assign(model.chain().size(), batch);
  schedule.decode_chips = decode_chips;
  schedule.decode_batch = decode_batch;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = batch;
  return schedule;
}

TEST(TraceRecorder, DesSimulationEmitsLoadableTrace) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const runtime::ArrivalTrace trace = runtime::PoissonTrace(50, 100.0, 3);

  const runtime::RuntimeResult plain = runtime::RunServingEngine(
      model, schedule, sim::DesEngineOptions({}), trace, "sim");

  TraceRecorder recorder;
  runtime::RuntimeOptions options = sim::DesEngineOptions({});
  options.trace = &recorder;
  const runtime::RuntimeResult traced =
      runtime::RunServingEngine(model, schedule, options, trace, "sim");

  // Observation-only: identical outcomes with the recorder attached.
  EXPECT_EQ(traced.outcome_digest, plain.outcome_digest);

  EXPECT_GT(recorder.size(), 0u);
  bool saw_stage_span = false;
  bool saw_queue_span = false;
  bool saw_request_event = false;
  for (const TraceEvent& event : recorder.events()) {
    if (event.phase == TraceEvent::Phase::kComplete &&
        event.pid == 0) {
      saw_stage_span = true;
    }
    if (event.name.rfind("queue:", 0) == 0) saw_queue_span = true;
    if (event.request_id >= 0) saw_request_event = true;
  }
  EXPECT_TRUE(saw_stage_span);
  EXPECT_TRUE(saw_queue_span);
  EXPECT_TRUE(saw_request_event);

  // Every request that completed has recorded events, and the full
  // export parses as a Chrome trace-event document.
  EXPECT_FALSE(recorder.EventsForRequest(0).empty());
  const JsonValue doc = JsonValue::Parse(recorder.ChromeTraceJson());
  EXPECT_GE(doc.At("traceEvents").size(), recorder.size());
}

// --- Deterministic sampling ------------------------------------------

TEST(TraceSampling, DefaultPolicyIsANoOp) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.sampling_active());
  recorder.AddInstant("arrival", "admission", 1, 3, 0.5, /*request_id=*/3);
  // Commits immediately: nothing buffers without an active policy.
  EXPECT_EQ(recorder.size(), 1u);
  recorder.FinalizeRequest(3, 1.0, false);
  recorder.FlushTailKeep();
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.finalized_requests(), 0);
}

TEST(TraceSampling, RejectsBadPolicyAndLateConfiguration) {
  TraceRecorder recorder;
  TraceSamplingOptions bad;
  bad.head_rate = 1.5;
  EXPECT_THROW(recorder.SetSampling(bad), ConfigError);
  bad.head_rate = 0.5;
  bad.tail_keep = -1;
  EXPECT_THROW(recorder.SetSampling(bad), ConfigError);

  recorder.AddInstant("arrival", "admission", 1, 0, 0.0, 0);
  TraceSamplingOptions late;
  late.head_rate = 0.5;
  EXPECT_THROW(recorder.SetSampling(late), ConfigError);
}

TEST(TraceSampling, HeadSamplingCommitsExactlyTheHashSelectedSubset) {
  TraceSamplingOptions sampling;
  sampling.head_rate = 0.5;
  sampling.seed = 42;

  TraceRecorder recorder;
  recorder.SetSampling(sampling);
  EXPECT_TRUE(recorder.sampling_active());
  for (int64_t id = 0; id < 100; ++id) {
    recorder.AddInstant("arrival", "admission", 1, static_cast<int>(id),
                        0.01 * static_cast<double>(id), id);
    recorder.FinalizeRequest(id, 1.0, false);
  }

  int64_t expected = 0;
  for (int64_t id = 0; id < 100; ++id) {
    const bool kept = recorder.HeadSampled(id);
    expected += kept ? 1 : 0;
    // The committed set is exactly the pure-function verdict per id.
    EXPECT_EQ(!recorder.EventsForRequest(id).empty(), kept) << id;
  }
  EXPECT_GT(expected, 0);
  EXPECT_LT(expected, 100);
  EXPECT_EQ(recorder.finalized_requests(), 100);
  EXPECT_EQ(recorder.sampled_requests(), expected);
  EXPECT_EQ(recorder.discarded_requests(), 100 - expected);
  EXPECT_EQ(recorder.pending_requests(), 0u);

  // Unsampled requests leave no metadata behind either: the export
  // names only the pid-1 rows of sampled ids.
  const JsonValue doc = JsonValue::Parse(recorder.ChromeTraceJson());
  int64_t thread_rows = 0;
  for (const JsonValue& event : doc.At("traceEvents").Items()) {
    if (event.At("ph").AsString() == "M" &&
        event.At("name").AsString() == "thread_name") {
      ++thread_rows;
    }
  }
  EXPECT_EQ(thread_rows, expected);
}

TEST(TraceSampling, TailKeepRetainsWorstAndViolatorsOutrankSlow) {
  TraceSamplingOptions sampling;
  sampling.head_rate = 0.0;  // Tail ring decides everything.
  sampling.tail_keep = 3;

  TraceRecorder recorder;
  recorder.SetSampling(sampling);
  struct Fin {
    int64_t id;
    double score;
    bool violation;
  };
  // Two SLO violators (scores 1.0, 0.5) and three merely-slow
  // requests (9.0, 7.0, 5.0): the violators must both survive even
  // though every non-violator scored higher.
  const std::vector<Fin> finals = {{1, 5.0, false},
                                   {2, 1.0, true},
                                   {3, 9.0, false},
                                   {4, 0.5, true},
                                   {5, 7.0, false}};
  for (const Fin& fin : finals) {
    recorder.AddInstant("arrival", "admission", 1,
                        static_cast<int>(fin.id), 0.0, fin.id);
    recorder.FinalizeRequest(fin.id, fin.score, fin.violation);
  }
  EXPECT_EQ(recorder.tail_kept(), 3u);
  EXPECT_EQ(recorder.size(), 0u);  // Nothing committed yet.

  recorder.FlushTailKeep();
  EXPECT_EQ(recorder.tail_kept(), 0u);
  EXPECT_FALSE(recorder.EventsForRequest(2).empty());
  EXPECT_FALSE(recorder.EventsForRequest(4).empty());
  EXPECT_FALSE(recorder.EventsForRequest(3).empty());  // Worst score.
  EXPECT_TRUE(recorder.EventsForRequest(1).empty());
  EXPECT_TRUE(recorder.EventsForRequest(5).empty());
  EXPECT_EQ(recorder.sampled_requests(), 3);
  EXPECT_EQ(recorder.discarded_requests(), 2);

  // Flushed in ascending id order for a deterministic export.
  std::vector<int64_t> committed_order;
  for (const TraceEvent& event : recorder.events()) {
    committed_order.push_back(event.request_id);
  }
  EXPECT_EQ(committed_order, (std::vector<int64_t>{2, 3, 4}));
}

TEST(TraceSampling, DesSampledTraceIsASubsetOfTheFullTrace) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const runtime::ArrivalTrace trace = runtime::PoissonTrace(80, 120.0, 3);

  TraceRecorder full;
  runtime::RuntimeOptions full_options = sim::DesEngineOptions({});
  full_options.trace = &full;
  const runtime::RuntimeResult full_result =
      runtime::RunServingEngine(model, schedule, full_options, trace, "sim");

  TraceRecorder sampled;
  TraceSamplingOptions sampling;
  sampling.head_rate = 0.3;
  sampling.tail_keep = 4;
  sampling.seed = 5;
  sampled.SetSampling(sampling);
  runtime::RuntimeOptions sampled_options = sim::DesEngineOptions({});
  sampled_options.trace = &sampled;
  const runtime::RuntimeResult sampled_result = runtime::RunServingEngine(
      model, schedule, sampled_options, trace, "sim");

  // Sampling is observation-side only: identical simulation results.
  EXPECT_EQ(sampled_result.outcome_digest, full_result.outcome_digest);

  EXPECT_EQ(sampled.finalized_requests(), 80);
  EXPECT_EQ(sampled.pending_requests(), 0u);
  EXPECT_GT(sampled.sampled_requests(), 0);
  EXPECT_LT(sampled.sampled_requests(), 80);
  EXPECT_LT(sampled.size(), full.size());

  // Every committed request's event sequence is byte-equal to what
  // the unsampled run recorded for that id; everything else is gone.
  for (int64_t id = 0; id < 80; ++id) {
    const std::vector<const TraceEvent*> kept =
        sampled.EventsForRequest(id);
    if (kept.empty()) {
      continue;
    }
    const std::vector<const TraceEvent*> reference =
        full.EventsForRequest(id);
    ASSERT_EQ(kept.size(), reference.size()) << id;
    for (size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i]->name, reference[i]->name);
      EXPECT_EQ(kept[i]->start, reference[i]->start);
      EXPECT_EQ(kept[i]->duration, reference[i]->duration);
    }
  }
}

TEST(TraceSampling, DesTelemetryLadderAndFlightRideAlong) {
  // The full observation stack on the DES: windowed telemetry, alerts
  // against an impossible SLO (everything violates), and the flight
  // recorder — none of it may move a single result field.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const runtime::ArrivalTrace trace = runtime::PoissonTrace(80, 120.0, 3);

  const runtime::RuntimeResult plain = runtime::RunServingEngine(
      model, schedule, sim::DesEngineOptions({}), trace, "sim");

  TelemetryTimeSeries series;
  SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  alert_options.rules.back().short_window_seconds = 1.0;
  alert_options.rules.back().long_window_seconds = 2.0;
  SloAlertEngine alerts(alert_options);
  FlightRecorder flight(32);
  runtime::RuntimeOptions options = sim::DesEngineOptions({});
  options.timeseries = &series;
  options.alerts = &alerts;
  options.flight = &flight;
  options.slo.ttft_seconds = 1e-9;  // Nothing can meet this.
  const runtime::RuntimeResult observed =
      runtime::RunServingEngine(model, schedule, options, trace, "sim");

  EXPECT_EQ(observed.outcome_digest, plain.outcome_digest);
  EXPECT_EQ(observed.decode_utilization, plain.decode_utilization);

  // The ladder saw every arrival and completion.
  int64_t offered = 0;
  int64_t completed = 0;
  for (int level = 0; level < 3; ++level) {
    for (const WindowStats& window : series.Level(level)) {
      offered += window.offered;
      completed += window.completed;
    }
  }
  EXPECT_EQ(offered, 80);
  EXPECT_EQ(completed, 80);
  // Attainment 0 under the impossible SLO fires the page rule.
  EXPECT_FALSE(alerts.transitions().empty());
  EXPECT_TRUE(alerts.transitions().front().firing);
  // The flight ring stayed bounded and captured begin/end notes.
  EXPECT_GT(flight.appended(), 0);
  EXPECT_LE(flight.size(), 32u);
  const std::string dump = flight.Json();
  EXPECT_NE(dump.find("sim begin"), std::string::npos);
  EXPECT_NE(dump.find("sim end"), std::string::npos);
}

TEST(TraceSampling, DesResultsAreUnchangedWithEverySinkAttached) {
  // Trace, metrics, windowed telemetry, alerts and flight recorder on
  // the DES at once, with SLO bounds set: the outcome digest and the
  // server occupancy stay bit-identical.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const runtime::ArrivalTrace trace = runtime::PoissonTrace(80, 120.0, 3);

  const runtime::RuntimeResult plain = runtime::RunServingEngine(
      model, schedule, sim::DesEngineOptions({}), trace, "sim");

  TraceRecorder recorder;
  MetricsRegistry metrics;
  TelemetryTimeSeries series;
  SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  SloAlertEngine alerts(alert_options);
  FlightRecorder flight(32);
  runtime::RuntimeOptions options = sim::DesEngineOptions({});
  options.trace = &recorder;
  options.metrics = &metrics;
  options.timeseries = &series;
  options.alerts = &alerts;
  options.flight = &flight;
  options.slo.ttft_seconds = 0.05;
  options.slo.tpot_seconds = 0.001;
  const runtime::RuntimeResult observed =
      runtime::RunServingEngine(model, schedule, options, trace, "sim");

  EXPECT_EQ(observed.outcome_digest, plain.outcome_digest);
  EXPECT_EQ(observed.server_busy_seconds, plain.server_busy_seconds);
  EXPECT_EQ(observed.decode_utilization, plain.decode_utilization);
  EXPECT_GT(recorder.size(), 0u);
  EXPECT_GT(metrics.size(), 0u);
  EXPECT_GT(flight.appended(), 0);
}

}  // namespace
}  // namespace rago::obs
