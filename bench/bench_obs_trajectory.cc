/**
 * @file bench_obs_trajectory.cc
 * Perf-trajectory harness: one end-to-end observed serving run plus a
 * kernel roofline profile, written as BENCH_runtime.json and compared
 * run-over-run against a committed baseline.
 *
 * This is the perf counterpart of test_fig15_regression: where that
 * test freezes *accuracy* (speedup bands over the cost model), this
 * bench freezes the serving stack's *behavior and performance
 * envelope*. One document, three comparison classes:
 *
 *  - `pinned` — exact-match fields (outcome digest, request counts,
 *    trace span counts, metric counters, kernel variant). The bench
 *    forces scalar kernels so these are machine-invariant; any drift
 *    is a real behavior change.
 *  - `virtual` — virtual-clock doubles (throughput, percentiles,
 *    roofline accounting). Deterministic given the build; compared at
 *    rel 1e-6 (above the %.9g emission precision, below any real
 *    change).
 *  - `measured` — wall-clock numbers (machine peaks, achieved GB/s,
 *    serve-wall req/s). Compared as positive and within a
 *    x16 band: wide enough for CI jitter and machine-class spread,
 *    tight enough to catch order-of-magnitude regressions.
 *  - `info` — machine-dependent classification (memory- vs
 *    compute-bound, ridge intensity, measured-provider schedule
 *    choice); reported, never compared.
 *
 * Usage:
 *   bench_obs_trajectory [--quick] [--json BENCH_runtime.json]
 *                        [--baseline bench/baselines/BENCH_runtime.json]
 *
 * With `--json`, also writes `<path>.trace.json` — the Chrome
 * trace-event export of the observed run (chrome://tracing-loadable),
 * uploaded as a CI artifact next to the metrics document. With
 * `--baseline`, exits non-zero listing every band violation.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/json_reader.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "hardware/cpu_server.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/perf/roofline.h"
#include "retrieval/serving/calibration.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/runtime.h"
#include "serving/runtime/workload.h"

namespace {

using namespace rago;

/// Formats a schedule's decision key as one compact string.
std::string ScheduleKeyString(const core::Schedule& s) {
  std::string out = "g[";
  for (size_t i = 0; i < s.chain_group.size(); ++i) {
    out += (i ? "," : "") + std::to_string(s.chain_group[i]);
  }
  out += "]x[";
  for (size_t i = 0; i < s.group_chips.size(); ++i) {
    out += (i ? "," : "") + std::to_string(s.group_chips[i]);
  }
  out += "]b[";
  for (size_t i = 0; i < s.chain_batch.size(); ++i) {
    out += (i ? "," : "") + std::to_string(s.chain_batch[i]);
  }
  out += "]d" + std::to_string(s.decode_chips) + "/" +
         std::to_string(s.decode_batch) + "r" +
         std::to_string(s.retrieval_servers) + "/" +
         std::to_string(s.retrieval_batch);
  return out;
}

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

void WriteKernelAccounting(JsonWriter& json,
                           const retrieval::KernelRooflinePoint& point) {
  json.Key(point.kernel).BeginObject();
  json.Key("bytes").Number(point.work.bytes);
  json.Key("flops").Number(point.work.flops);
  json.Key("intensity").Number(point.intensity);
  json.EndObject();
}

void WriteKernelMeasurement(JsonWriter& json,
                            const retrieval::KernelRooflinePoint& point) {
  json.Key(point.kernel).BeginObject();
  json.Key("achieved_gbps").Number(point.achieved_bytes_per_sec / 1e9);
  json.Key("achieved_gflops").Number(point.achieved_flops_per_sec / 1e9);
  json.Key("seconds").Number(point.seconds);
  json.Key("roofline_efficiency").Number(point.roofline_efficiency);
  json.EndObject();
}

/// One comparator finding, e.g. "pinned.digest: 'a' != 'b'".
using Failures = std::vector<std::string>;

std::string TypeName(JsonValue::Type type) {
  switch (type) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return "bool";
    case JsonValue::Type::kNumber: return "number";
    case JsonValue::Type::kString: return "string";
    case JsonValue::Type::kArray: return "array";
    case JsonValue::Type::kObject: return "object";
  }
  return "?";
}

/// How a section's numbers are judged.
enum class NumberPolicy {
  kExact,      ///< Bit-for-bit after %.9g emission ("pinned").
  kRelative,   ///< Rel 1e-6 ("virtual": deterministic doubles).
  kBand,       ///< Positive and within x16 either way ("measured").
};

bool NumbersMatch(double fresh, double baseline, NumberPolicy policy) {
  switch (policy) {
    case NumberPolicy::kExact:
      return fresh == baseline;
    case NumberPolicy::kRelative: {
      const double scale = std::max(std::fabs(fresh), std::fabs(baseline));
      return std::fabs(fresh - baseline) <= 1e-6 * scale + 1e-12;
    }
    case NumberPolicy::kBand:
      return fresh > 0.0 && baseline > 0.0 && fresh <= baseline * 16.0 &&
             baseline <= fresh * 16.0;
  }
  return false;
}

/// Recursively compares two nodes under one policy; key sets must
/// match exactly in every section so silently added or dropped fields
/// fail loudly instead of escaping the bands.
void CompareNode(const JsonValue& fresh, const JsonValue& baseline,
                 NumberPolicy policy, const std::string& path,
                 Failures& failures) {
  if (fresh.type() != baseline.type()) {
    failures.push_back(path + ": type " + TypeName(fresh.type()) +
                       " != baseline " + TypeName(baseline.type()));
    return;
  }
  switch (fresh.type()) {
    case JsonValue::Type::kNull:
      return;
    case JsonValue::Type::kBool:
      if (fresh.AsBool() != baseline.AsBool()) {
        failures.push_back(path + ": " +
                           std::string(fresh.AsBool() ? "true" : "false") +
                           " != baseline " +
                           (baseline.AsBool() ? "true" : "false"));
      }
      return;
    case JsonValue::Type::kNumber:
      if (!NumbersMatch(fresh.AsNumber(), baseline.AsNumber(), policy)) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s: %.9g vs baseline %.9g",
                      path.c_str(), fresh.AsNumber(), baseline.AsNumber());
        failures.push_back(buf);
      }
      return;
    case JsonValue::Type::kString:
      if (fresh.AsString() != baseline.AsString()) {
        failures.push_back(path + ": \"" + fresh.AsString() +
                           "\" != baseline \"" + baseline.AsString() + "\"");
      }
      return;
    case JsonValue::Type::kArray: {
      if (fresh.size() != baseline.size()) {
        failures.push_back(path + ": " + std::to_string(fresh.size()) +
                           " elements != baseline " +
                           std::to_string(baseline.size()));
        return;
      }
      for (size_t i = 0; i < fresh.size(); ++i) {
        CompareNode(fresh.Items()[i], baseline.Items()[i], policy,
                    path + "[" + std::to_string(i) + "]", failures);
      }
      return;
    }
    case JsonValue::Type::kObject: {
      for (const auto& [key, value] : fresh.Members()) {
        const JsonValue* other = baseline.Find(key);
        if (other == nullptr) {
          failures.push_back(path + "." + key + ": missing from baseline");
          continue;
        }
        CompareNode(value, *other, policy, path + "." + key, failures);
      }
      for (const auto& [key, value] : baseline.Members()) {
        (void)value;
        if (fresh.Find(key) == nullptr) {
          failures.push_back(path + "." + key +
                             ": in baseline but not produced");
        }
      }
      return;
    }
  }
}

/// Compares a freshly produced document against the committed
/// baseline. Returns the number of violations (0 = pass).
size_t CompareAgainstBaseline(const JsonValue& fresh,
                              const JsonValue& baseline) {
  Failures failures;
  if (fresh.At("schema_version").AsInt() !=
      baseline.At("schema_version").AsInt()) {
    failures.push_back("schema_version mismatch: refusing to compare");
  } else {
    CompareNode(fresh.At("bench"), baseline.At("bench"),
                NumberPolicy::kExact, "bench", failures);
    CompareNode(fresh.At("pinned"), baseline.At("pinned"),
                NumberPolicy::kExact, "pinned", failures);
    CompareNode(fresh.At("virtual"), baseline.At("virtual"),
                NumberPolicy::kRelative, "virtual", failures);
    CompareNode(fresh.At("measured"), baseline.At("measured"),
                NumberPolicy::kBand, "measured", failures);
    // "info" is machine-dependent by design: never compared.
  }
  for (const std::string& failure : failures) {
    std::printf("REGRESSION %s\n", failure.c_str());
  }
  return failures.size();
}

std::string FlagValue(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) {
      RAGO_REQUIRE(i + 1 < argc, flag + " requires a value");
      return argv[i + 1];
    }
  }
  return "";
}

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rago;
  using namespace rago::bench;
  using namespace rago::runtime;

  const bool quick = HasFlag(argc, argv, "--quick");
  const std::string json_path = JsonOutputPath(argc, argv);
  const std::string baseline_path = FlagValue(argc, argv, "--baseline");

  // Machine-invariant pinned fields require the scalar kernel table:
  // forced here (and restored on exit) so the digest and the profiled
  // variant never depend on the host's SIMD support.
  const bool was_forced = ann::kernels::ForceScalarActive();
  ann::kernels::SetForceScalar(true);

  // --- Observed serving run: one operating point, fully instrumented.
  Rng rng(51);
  ann::Matrix corpus =
      ann::GenClustered(quick ? 4'000 : 20'000, 32, 24, 0.3f, rng);
  const ann::Matrix query_pool =
      ann::GenQueriesNear(corpus, 128, 0.1f, rng);
  serving::ShardedIndexOptions tier_options;
  tier_options.num_shards = 4;
  tier_options.backend = serving::ShardBackend::kIvf;
  tier_options.ivf.nlist = 32;
  tier_options.nprobe = 8;
  tier_options.num_threads = 1;
  const serving::ShardedIndex tier(std::move(corpus), tier_options);

  const core::PipelineModel model(core::MakeHyperscaleSchema(8, 1),
                                  DefaultCluster());
  opt::SearchOptions grid;
  grid.batch_sizes = {1, 4, 16, 64};
  grid.decode_batch_sizes = {16, 64, 256};
  const opt::Optimizer optimizer(model, grid);
  const opt::OptimizerResult analytic = optimizer.Search();
  const opt::ScheduledPoint chosen = analytic.MaxQpsPerChip();

  obs::TraceRecorder trace;
  // Deterministic sampling: a quarter of requests by id hash plus the
  // eight worst survivors — the pinned trace counts below freeze the
  // sampled shape, so a sampling regression fails the baseline check.
  obs::TraceSamplingOptions sampling;
  sampling.head_rate = 0.25;
  sampling.tail_keep = 8;
  sampling.seed = 17;
  trace.SetSampling(sampling);

  // Windowed telemetry + burn-rate alerting + flight recorder, all fed
  // by the runtime on the virtual clock.
  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.05;
  ts_options.windows_per_level = 16;
  obs::TelemetryTimeSeries series(ts_options);
  obs::SloAlertOptions alert_options;
  alert_options.attainment_goal = 0.95;
  alert_options.rules.push_back({});  // Default page rule.
  alert_options.rules.back().short_window_seconds = 0.15;
  alert_options.rules.back().long_window_seconds = 0.6;
  obs::SloAlertEngine alert_engine(alert_options);
  obs::FlightRecorder flight(96);

  MetricsRegistry metrics;
  RuntimeOptions options;
  options.admission_queue_limit = 512;
  options.slo.ttft_seconds = chosen.perf.ttft * 3.0 + 0.1;
  options.slo.tpot_seconds = chosen.perf.tpot * 3.0;
  options.trace = &trace;
  options.metrics = &metrics;
  options.timeseries = &series;
  options.alerts = &alert_engine;
  options.flight = &flight;
  const ServingRuntime server(model, chosen.schedule, tier, options);

  const int requests = quick ? 240 : 1'000;
  const ArrivalTrace arrivals =
      PoissonTrace(requests, chosen.perf.qps * 0.9, 71);

  const auto serve_start = std::chrono::steady_clock::now();
  const RuntimeResult result = server.Serve(arrivals, query_pool);
  const double serve_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    serve_start)
          .count();
  // Completed requests per host wall second of the whole Serve call:
  // real scans, the event loop and every attached sink together (the
  // event loop alone is not isolated here).
  const double serve_wall_rps =
      static_cast<double>(result.completed) / serve_wall_seconds;

  int64_t trace_spans = 0;
  int64_t trace_instants = 0;
  int64_t trace_counters = 0;
  for (const obs::TraceEvent& event : trace.events()) {
    switch (event.phase) {
      case obs::TraceEvent::Phase::kComplete: ++trace_spans; break;
      case obs::TraceEvent::Phase::kInstant: ++trace_instants; break;
      case obs::TraceEvent::Phase::kCounter: ++trace_counters; break;
    }
  }

  // Worst windowed attainment across every retained ladder window that
  // saw terminal events — the windowed view of the SLO story that the
  // run-level attainment scalar averages away.
  double min_window_attainment = 1.0;
  for (int level = 0; level < ts_options.levels; ++level) {
    for (const obs::WindowStats& window : series.Level(level)) {
      if (window.completed + window.rejected > 0) {
        min_window_attainment =
            std::min(min_window_attainment, window.Attainment());
      }
    }
  }

  // --- Roofline: machine peaks + the four kernel slots' scan shapes
  // (L2 batch, L2 micro-tile, PQ table build on the column-major
  // slot, packed ADC). ---
  retrieval::ProbeOptions probe;
  retrieval::KernelProfileOptions kprof;
  if (quick) {
    probe.triad_elements = size_t{1} << 20;
    probe.flop_iterations = size_t{4} << 20;
    probe.repetitions = 2;
    kprof.num_rows = size_t{1} << 14;
    kprof.repetitions = 2;
  }
  const retrieval::MachinePeaks peaks =
      retrieval::CalibrateMachinePeaks(probe);
  const retrieval::KernelProfiler profiler(peaks, kprof);
  const std::vector<retrieval::KernelRooflinePoint> points = {
      profiler.ProfileL2Batch(), profiler.ProfileL2Tile(),
      profiler.ProfilePqTableBuild(), profiler.ProfileAdcPacked()};

  // --- Measured-cost optimizer pass (informational: wall-clock
  // calibration makes the chosen schedule machine-dependent). ---
  const retrieval::MeasuredRetrievalModel measured =
      serving::CalibrateRetrievalModel(tier, query_pool, 10,
                                       DefaultCpuServer());
  const opt::OptimizerResult remeasured =
      optimizer.Search(model.ProviderWithRetrievalModel(measured));
  const opt::ScheduledPoint rechosen = remeasured.MaxQpsPerChip();

  // --- Report. ---
  Banner("observability trajectory (scalar kernels, traced run)");
  std::printf("run: %d requests, digest %s, %zu trace events "
              "(%lld spans, %lld instants, %lld counters)\n",
              requests, DigestHex(result.outcome_digest).c_str(),
              trace.size(), static_cast<long long>(trace_spans),
              static_cast<long long>(trace_instants),
              static_cast<long long>(trace_counters));
  std::printf("telemetry: %lld windows closed (%lld folded, %lld "
              "dropped, %zu held), min window attainment %.3f, "
              "%lld/%lld requests trace-sampled, %zu alert transitions, "
              "flight ring %zu/%lld\n",
              static_cast<long long>(series.windows_closed()),
              static_cast<long long>(series.windows_folded()),
              static_cast<long long>(series.windows_dropped()),
              series.WindowsHeld(), min_window_attainment,
              static_cast<long long>(trace.sampled_requests()),
              static_cast<long long>(trace.finalized_requests()),
              alert_engine.transitions().size(), flight.size(),
              static_cast<long long>(flight.appended()));
  std::printf("serving: %.1f QPS virtual, p50/p95 TTFT %.1f/%.1f ms, "
              "attainment %.3f; %.0f req/s per serve wall second\n",
              result.throughput, result.ttft.Percentile(0.5) * 1e3,
              result.ttft.Percentile(0.95) * 1e3, result.slo_attainment,
              serve_wall_rps);
  std::printf("machine: %.2f GB/s triad, %.2f GFLOP/s fma, ridge %.2f "
              "flops/byte\n",
              peaks.bandwidth_bytes_per_sec / 1e9, peaks.flops_per_sec / 1e9,
              peaks.RidgeIntensity());
  TextTable table("kernel roofline");
  table.SetHeader({"kernel", "intensity", "GB/s", "GFLOP/s", "bound",
                   "efficiency"});
  for (const auto& point : points) {
    table.AddRow({point.kernel, TextTable::Num(point.intensity, 3),
                  TextTable::Num(point.achieved_bytes_per_sec / 1e9, 3),
                  TextTable::Num(point.achieved_flops_per_sec / 1e9, 3),
                  point.memory_bound ? "memory" : "compute",
                  TextTable::Num(point.roofline_efficiency, 3)});
  }
  table.Print();
  std::printf("optimizer: analytic %s (TTFT %.1f ms) vs measured-cost "
              "%s (TTFT %.1f ms)%s\n",
              ScheduleKeyString(chosen.schedule).c_str(),
              ToMillis(chosen.perf.ttft),
              ScheduleKeyString(rechosen.schedule).c_str(),
              ToMillis(rechosen.perf.ttft),
              chosen.schedule == rechosen.schedule
                  ? ""
                  : "  <- measured costs changed the choice");

  // --- The trajectory document. ---
  JsonWriter json = StartBenchJson("obs_trajectory");

  json.Key("pinned").BeginObject();
  json.Key("quick").Bool(quick);
  json.Key("kernel_variant").String(ann::kernels::Active().name);
  json.Key("digest").String(DigestHex(result.outcome_digest));
  json.Key("submitted").Int(result.submitted);
  json.Key("admitted").Int(result.admitted);
  json.Key("rejected").Int(result.rejected);
  json.Key("completed").Int(result.completed);
  json.Key("trace_spans").Int(trace_spans);
  json.Key("trace_instants").Int(trace_instants);
  json.Key("trace_counters").Int(trace_counters);
  json.Key("trace_finalized").Int(trace.finalized_requests());
  json.Key("trace_sampled").Int(trace.sampled_requests());
  json.Key("trace_discarded").Int(trace.discarded_requests());
  json.Key("windows_closed").Int(series.windows_closed());
  json.Key("windows_folded").Int(series.windows_folded());
  json.Key("windows_dropped").Int(series.windows_dropped());
  json.Key("windows_held").Int(static_cast<int64_t>(series.WindowsHeld()));
  json.Key("alert_transitions")
      .Int(static_cast<int64_t>(alert_engine.transitions().size()));
  json.Key("flight_appended").Int(flight.appended());
  json.Key("flight_dropped").Int(flight.dropped());
  json.Key("batches_flushed")
      .Int(metrics.FindCounter("runtime.batches_flushed")->value());
  json.Key("full_batches")
      .Int(metrics.FindCounter("runtime.full_batches")->value());
  json.EndObject();

  json.Key("virtual").BeginObject();
  json.Key("throughput_qps").Number(result.throughput);
  json.Key("makespan_seconds").Number(result.makespan);
  json.Key("p50_ttft_seconds").Number(result.ttft.Percentile(0.5));
  json.Key("p95_ttft_seconds").Number(result.ttft.Percentile(0.95));
  json.Key("p95_tpot_seconds").Number(result.tpot.Percentile(0.95));
  json.Key("p95_queue_wait_seconds")
      .Number(result.queue_wait.Percentile(0.95));
  json.Key("slo_attainment").Number(result.slo_attainment);
  json.Key("min_window_attainment").Number(min_window_attainment);
  json.Key("decode_utilization").Number(result.decode_utilization);
  json.Key("kernels").BeginObject();
  for (const auto& point : points) {
    WriteKernelAccounting(json, point);
  }
  json.EndObject();
  json.EndObject();

  json.Key("measured").BeginObject();
  json.Key("peak_bandwidth_gbps")
      .Number(peaks.bandwidth_bytes_per_sec / 1e9);
  json.Key("peak_gflops").Number(peaks.flops_per_sec / 1e9);
  json.Key("serve_wall_seconds").Number(serve_wall_seconds);
  json.Key("serve_wall_rps").Number(serve_wall_rps);
  json.Key("kernels").BeginObject();
  for (const auto& point : points) {
    WriteKernelMeasurement(json, point);
  }
  json.EndObject();
  json.EndObject();

  json.Key("info").BeginObject();
  json.Key("ridge_intensity").Number(peaks.RidgeIntensity());
  json.Key("memory_bound").BeginObject();
  for (const auto& point : points) {
    json.Key(point.kernel).Bool(point.memory_bound);
  }
  json.EndObject();
  json.Key("analytic_schedule").String(ScheduleKeyString(chosen.schedule));
  json.Key("measured_schedule")
      .String(ScheduleKeyString(rechosen.schedule));
  json.Key("provider_changed_schedule")
      .Bool(!(chosen.schedule == rechosen.schedule));
  json.Key("analytic_ttft_seconds").Number(chosen.perf.ttft);
  json.Key("measured_ttft_seconds").Number(rechosen.perf.ttft);
  json.EndObject();

  json.EndObject();
  MaybeWriteJson(json_path, json);
  if (!json_path.empty()) {
    JsonWriter chrome;
    trace.WriteChromeTrace(chrome);
    MaybeWriteJson(json_path + ".trace.json", chrome);
  }

  ann::kernels::SetForceScalar(was_forced);

  if (!baseline_path.empty()) {
    const JsonValue fresh = JsonValue::Parse(json.str());
    const JsonValue baseline = ParseJsonFile(baseline_path);
    const size_t violations = CompareAgainstBaseline(fresh, baseline);
    if (violations != 0) {
      std::printf("FAIL: %zu regression(s) vs %s\n", violations,
                  baseline_path.c_str());
      return 1;
    }
    std::printf("regression check passed vs %s\n", baseline_path.c_str());
  }
  return 0;
}
