/**
 * @file bench_soak_telemetry.cc
 * Telemetry soak harness: one long composite-traffic serving run
 * (MMPP bursts superimposed on a diurnal tide, ~1.3x capacity on
 * average) with the full observation layer attached — windowed
 * time-series ladder, burn-rate alerting, deterministic trace
 * sampling, flight recorder — repeated across worker-pool sizes.
 *
 * The harness enforces (RAGO_CHECK, so violations abort non-zero):
 *  - **bit identity across threads {1, 2, 8}**: the outcome digest,
 *    the full telemetry time-series JSON, the alert-transition log,
 *    and the sampled per-request trace summary are byte-for-byte
 *    identical for every pool size;
 *  - **digest neutrality**: a run with the whole layer detached
 *    produces the same outcome digest — observation only;
 *  - **bounded memory**: the retention ladder never holds more than
 *    its configured cap of windows, the flight ring never exceeds its
 *    capacity, and sampling commits a strict subset of finalized
 *    requests with nothing left pending.
 *
 * Usage:
 *   bench_soak_telemetry [--quick] [--json out.json]
 *                        [--flight flight_dump.json]
 *
 * `--quick` serves 5k requests instead of 100k (the CI smoke mode);
 * `--json` writes the machine-readable soak document (caps, counts,
 * and per-thread wall time); `--flight` dumps the flight ring of the
 * final run — the same JSON the engines emit on a crash.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/runtime.h"
#include "serving/runtime/workload.h"

namespace {

bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
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

std::string DigestHex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Everything one observed serve produced, captured for comparison.
struct SoakRun {
  uint64_t digest = 0;
  std::string timeseries_json;
  std::string alerts_json;
  std::string sampled_summary_json;
  double wall_seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rago;
  using namespace rago::bench;
  using namespace rago::runtime;

  const bool quick = HasFlag(argc, argv, "--quick");
  const std::string json_path = JsonOutputPath(argc, argv);
  const std::string flight_path = FlagValue(argc, argv, "--flight");

  // Live tier + optimizer-chosen schedule, same shape as the SLO
  // sweep harness.
  Rng rng(51);
  ann::Matrix corpus =
      ann::GenClustered(quick ? 4'000 : 10'000, 32, 24, 0.3f, rng);
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
  const opt::ScheduledPoint chosen =
      opt::Optimizer(model, grid).Search().MaxQpsPerChip();
  const double capacity = chosen.perf.qps;

  // Composite soak traffic: MMPP bursts (mean ~0.8x capacity, bursts
  // to 2.4x) superimposed on a diurnal tide (mean 0.5x, deep swing).
  // The sum averages ~1.3x capacity but dips below it every trough,
  // so burn-rate alerts both fire and clear over the run.
  const int requests = quick ? 5'000 : 100'000;
  MmppOptions mmpp;
  mmpp.quiet_qps = capacity * 0.3;
  mmpp.burst_qps = capacity * 1.8;
  mmpp.mean_quiet_seconds = 2.0;
  mmpp.mean_burst_seconds = 0.5;
  DiurnalOptions diurnal;
  diurnal.mean_qps = capacity * 0.35;
  diurnal.period_seconds = 10.0;
  diurnal.amplitude = 0.9;
  const ArrivalTrace trace = MergeTraces(
      MmppTrace(requests / 2, mmpp, 71),
      DiurnalTrace(requests - requests / 2, diurnal, 72));

  // The observation policy under soak load: a ladder that must fold
  // and drop, head sampling that keeps ~2% plus the 32 worst, a flight
  // ring far smaller than the event count.
  // Windows sized so the run overflows the ladder: the quick run still
  // folds and drops, the full soak does so hundreds of times over.
  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = quick ? 0.025 : 0.1;
  ts_options.windows_per_level = quick ? 8 : 16;
  ts_options.fold_factor = 4;
  ts_options.levels = 3;
  const size_t held_cap =
      static_cast<size_t>(ts_options.windows_per_level) *
          static_cast<size_t>(ts_options.levels) +
      1;  // +1 for the in-progress window.
  obs::SloAlertOptions alert_options;
  alert_options.attainment_goal = 0.95;
  obs::BurnRateRule page;
  page.name = "page";
  page.short_window_seconds = quick ? 0.1 : 0.4;
  page.long_window_seconds = quick ? 1.0 : 4.0;
  page.burn_threshold = 2.0;
  page.fire_after = 2;
  page.clear_after = 2;
  obs::BurnRateRule ticket;
  ticket.name = "ticket";
  ticket.short_window_seconds = quick ? 0.25 : 1.0;
  ticket.long_window_seconds = quick ? 2.5 : 10.0;
  ticket.burn_threshold = 1.0;
  alert_options.rules = {page, ticket};
  obs::TraceSamplingOptions sampling;
  sampling.head_rate = 0.02;
  sampling.tail_keep = 32;
  sampling.seed = 9;
  constexpr int kFlightCapacity = 512;

  RuntimeOptions base_options;
  base_options.admission_queue_limit = 256;
  base_options.slo.ttft_seconds = chosen.perf.ttft * 3.0 + 0.1;
  base_options.slo.tpot_seconds = chosen.perf.tpot * 3.0;

  Banner("telemetry soak (composite MMPP + diurnal, full obs layer)");
  std::printf("traffic: %d requests, offered %.1f QPS vs capacity %.1f "
              "(%.2fx)\n",
              requests, OfferedQps(trace), capacity,
              OfferedQps(trace) / capacity);

  // --- Reference run with the entire layer detached: the digest all
  // observed runs must reproduce bit for bit. ---
  uint64_t plain_digest = 0;
  {
    RuntimeOptions options = base_options;
    const ServingRuntime server(model, chosen.schedule, tier, options);
    plain_digest = server.Serve(trace, query_pool).outcome_digest;
  }

  // --- Observed runs across worker-pool sizes. ---
  const std::vector<int> thread_counts = {1, 2, 8};
  std::vector<SoakRun> runs;
  int64_t rejected = 0;
  int64_t alerts_fired = 0;
  int64_t alert_transitions = 0;
  double slo_attainment = 0.0;
  double min_window_attainment = 1.0;
  int64_t windows_closed = 0, windows_folded = 0, windows_dropped = 0;
  size_t windows_held = 0;
  int64_t finalized = 0, sampled = 0, discarded = 0;
  size_t trace_events = 0;
  int64_t flight_appended = 0, flight_dropped = 0;
  size_t flight_size = 0;

  for (int threads : thread_counts) {
    obs::TelemetryTimeSeries series(ts_options);
    obs::SloAlertEngine alert_engine(alert_options);
    obs::FlightRecorder flight(kFlightCapacity);
    obs::TraceRecorder recorder;
    recorder.SetSampling(sampling);

    RuntimeOptions options = base_options;
    options.num_threads = threads;
    options.timeseries = &series;
    options.alerts = &alert_engine;
    options.flight = &flight;
    options.trace = &recorder;
    const ServingRuntime server(model, chosen.schedule, tier, options);

    const auto start = std::chrono::steady_clock::now();
    const RuntimeResult result = server.Serve(trace, query_pool);
    SoakRun run;
    run.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    run.digest = result.outcome_digest;
    run.timeseries_json = series.Json();
    run.alerts_json = alert_engine.Json();
    run.sampled_summary_json = recorder.RequestSummaryJson();

    // Bounded memory, enforced: the ladder, the ring, the sampler.
    RAGO_CHECK(series.WindowsHeld() <= held_cap,
               "retention ladder exceeded its window cap");
    RAGO_CHECK(flight.size() <=
                   static_cast<size_t>(flight.capacity()),
               "flight ring exceeded its capacity");
    RAGO_CHECK(recorder.sampled_requests() <=
                   recorder.finalized_requests(),
               "sampler committed more requests than finalized");
    RAGO_CHECK(recorder.pending_requests() == 0 &&
                   recorder.tail_kept() == 0,
               "sampler left requests buffered after the run");

    std::printf("threads %d: digest %s, %.2fs wall, %lld windows "
                "(%zu held), %lld/%lld sampled, %zu alert "
                "transitions, flight %zu/%lld\n",
                threads, DigestHex(run.digest).c_str(),
                run.wall_seconds,
                static_cast<long long>(series.windows_closed()),
                series.WindowsHeld(),
                static_cast<long long>(recorder.sampled_requests()),
                static_cast<long long>(recorder.finalized_requests()),
                alert_engine.transitions().size(), flight.size(),
                static_cast<long long>(flight.appended()));

    if (threads == thread_counts.back()) {
      // Stats are identical across pool sizes (checked below via the
      // serialized forms); report the last run's and dump its ring.
      // min_window_attainment scans *retained* ladder windows only —
      // RRD semantics: dropped history is gone by design.
      rejected = result.rejected;
      slo_attainment = result.slo_attainment;
      windows_closed = series.windows_closed();
      windows_folded = series.windows_folded();
      windows_dropped = series.windows_dropped();
      windows_held = series.WindowsHeld();
      finalized = recorder.finalized_requests();
      sampled = recorder.sampled_requests();
      discarded = recorder.discarded_requests();
      trace_events = recorder.size();
      flight_appended = flight.appended();
      flight_dropped = flight.dropped();
      flight_size = flight.size();
      alert_transitions =
          static_cast<int64_t>(alert_engine.transitions().size());
      for (const obs::AlertTransition& transition :
           alert_engine.transitions()) {
        alerts_fired += transition.firing ? 1 : 0;
      }
      for (int level = 0; level < ts_options.levels; ++level) {
        for (const obs::WindowStats& window : series.Level(level)) {
          if (window.completed + window.rejected > 0 &&
              window.Attainment() < min_window_attainment) {
            min_window_attainment = window.Attainment();
          }
        }
      }
      if (!flight_path.empty()) {
        flight.DumpToFile(flight_path);
        std::printf("wrote %s\n", flight_path.c_str());
      }
    }
    runs.push_back(std::move(run));
  }

  // --- The determinism contract, enforced byte for byte. ---
  for (size_t i = 0; i < runs.size(); ++i) {
    RAGO_CHECK(runs[i].digest == plain_digest,
               "observed digest diverged from the unobserved run");
    if (i == 0) {
      continue;
    }
    RAGO_CHECK(runs[i].timeseries_json == runs[0].timeseries_json,
               "telemetry time-series diverged across thread counts");
    RAGO_CHECK(runs[i].alerts_json == runs[0].alerts_json,
               "alert transitions diverged across thread counts");
    RAGO_CHECK(
        runs[i].sampled_summary_json == runs[0].sampled_summary_json,
        "sampled trace diverged across thread counts");
  }
  std::printf("determinism: digest + time-series + alerts + sampled "
              "trace bit-identical for threads {1, 2, 8}, equal to the "
              "unobserved digest\n");
  std::printf("soak: attainment %.3f (worst retained window %.3f), %lld "
              "rejected, %lld/%lld alert transitions fired, ladder "
              "%lld closed -> %lld folded + %lld dropped (%zu held, "
              "cap %zu), %lld/%lld requests sampled (%zu events)\n",
              slo_attainment, min_window_attainment,
              static_cast<long long>(rejected),
              static_cast<long long>(alerts_fired),
              static_cast<long long>(alert_transitions),
              static_cast<long long>(windows_closed),
              static_cast<long long>(windows_folded),
              static_cast<long long>(windows_dropped), windows_held,
              held_cap, static_cast<long long>(sampled),
              static_cast<long long>(finalized), trace_events);

  // --- Machine-readable soak document. ---
  JsonWriter json = StartBenchJson("soak_telemetry");
  json.Key("quick").Bool(quick);
  json.Key("requests").Int(requests);
  json.Key("offered_qps").Number(OfferedQps(trace));
  json.Key("capacity_qps").Number(capacity);
  json.Key("digest").String(DigestHex(plain_digest));
  json.Key("rejected").Int(rejected);
  json.Key("slo_attainment").Number(slo_attainment);
  json.Key("min_window_attainment").Number(min_window_attainment);
  json.Key("thread_counts").BeginArray();
  for (int threads : thread_counts) {
    json.Int(threads);
  }
  json.EndArray();
  json.Key("bit_identical_across_threads").Bool(true);
  json.Key("digest_neutral").Bool(true);
  json.Key("ladder").BeginObject();
  json.Key("window_seconds").Number(ts_options.window_seconds);
  json.Key("windows_closed").Int(windows_closed);
  json.Key("windows_folded").Int(windows_folded);
  json.Key("windows_dropped").Int(windows_dropped);
  json.Key("windows_held").Int(static_cast<int64_t>(windows_held));
  json.Key("held_cap").Int(static_cast<int64_t>(held_cap));
  json.EndObject();
  json.Key("sampling").BeginObject();
  json.Key("head_rate").Number(sampling.head_rate);
  json.Key("tail_keep").Int(sampling.tail_keep);
  json.Key("finalized").Int(finalized);
  json.Key("sampled").Int(sampled);
  json.Key("discarded").Int(discarded);
  json.Key("trace_events").Int(static_cast<int64_t>(trace_events));
  json.EndObject();
  json.Key("alerts").BeginObject();
  json.Key("transitions").Int(alert_transitions);
  json.Key("fired").Int(alerts_fired);
  json.EndObject();
  json.Key("flight").BeginObject();
  json.Key("capacity").Int(kFlightCapacity);
  json.Key("size").Int(static_cast<int64_t>(flight_size));
  json.Key("appended").Int(flight_appended);
  json.Key("dropped").Int(flight_dropped);
  json.EndObject();
  json.Key("wall_seconds").BeginArray();
  for (const SoakRun& run : runs) {
    json.Number(run.wall_seconds);
  }
  json.EndArray();
  FinishBenchJson(json, json_path);
  return 0;
}
