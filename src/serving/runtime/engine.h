/**
 * @file engine.h
 * The serving event loop shared by the online runtime and the DES.
 *
 * One engine executes a RAGO schedule against an arrival trace on a
 * virtual clock: bounded admission, per-stage continuous batching with
 * size/timeout flush, collocation groups time-multiplexing their
 * member stages (paper Fig. 14), the retrieval-result and document-KV
 * cache tier, and a continuous-batching decode pool. Every service
 * time is model-priced (PipelineModel cost models, or
 * RuntimeOptions::retrieval_model for retrieval), so virtual time
 * never depends on the host.
 *
 * Its two callers differ in one hook. ServingRuntime
 * (serving/runtime/runtime.h) passes a RetrievalHook that runs each
 * retrieval batch as a real ShardedIndex scan, whose neighbours feed
 * the outcome digest, the caches and RequestOutcome::first_neighbor.
 * The DES (sim/serving_sim.h) passes none and runs under
 * sim::DesEngineOptions (caches off, unbounded admission). Under the
 * same options both therefore produce bit-identical virtual outcomes.
 * The sinks below are the only way to observe either: a caller that
 * wants to watch a DES run attaches them to DesEngineOptions() and
 * calls RunServingEngine without a hook.
 *
 * Determinism contract: the loop is serial on virtual time, events pop
 * in a total (time, kind, payload) order, and every observation sink
 * is write-only, so a fixed input yields bit-identical outcomes,
 * telemetry and outcome digest for every scan thread count and with
 * any sink attached.
 */
#ifndef RAGO_SERVING_RUNTIME_ENGINE_H
#define RAGO_SERVING_RUNTIME_ENGINE_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "core/pipeline_model.h"
#include "core/schedule.h"
#include "retrieval/ann/topk.h"
#include "retrieval/perf/retrieval_model.h"
#include "serving/cache/rago_cache.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/workload.h"

namespace rago::runtime {

/// Latency service-level objective for one deployment.
struct SloTarget {
  double ttft_seconds = 0.5;   ///< Max acceptable time to first token.
  double tpot_seconds = 0.05;  ///< Max acceptable time per output token.
};

/// Serving configuration knobs.
struct RuntimeOptions {
  /**
   * Bounded admission queue: arrivals finding this many requests
   * already waiting at the first stage are rejected (counted, never
   * served). Must be positive.
   */
  int admission_queue_limit = 4096;
  /// Maximum virtual seconds a stage waits to fill its batch before
  /// flushing a partial one. Must be non-negative.
  double batch_timeout = 0.050;
  /**
   * Worker threads for the real retrieval scans (ServingRuntime only):
   * 0 = hardware concurrency, 1 = a single worker. Results and
   * telemetry are bit-identical for every value (the ShardedIndex
   * contract).
   */
  int num_threads = 0;
  /// Neighbors fetched per query vector by the real scans.
  int top_k = 10;
  /// Seeds the query-vector assignment stream (request -> pool row).
  uint64_t seed = 0x5eed;
  /// SLO the attainment metric is scored against.
  SloTarget slo;
  /**
   * Optional deterministic pricing of the retrieval stage's virtual
   * service time (e.g. a MeasuredRetrievalModel calibrated from the
   * served index). Defaults to the pipeline model's EvalRetrieval.
   * Not owned; must outlive the call.
   */
  const retrieval::RetrievalModel* retrieval_model = nullptr;
  /**
   * Multi-level cache tier (serving/cache/rago_cache.h). With
   * retrieval_capacity > 0, requests whose query fingerprint is cached
   * skip the real scan *and* the retrieval batch entirely: the cached
   * results are delivered after cache::kLookupSeconds and the next
   * stage is enqueued immediately (retrieval/prefill overlap). With
   * doc_capacity > 0, each request's retrieved doc ids are measured
   * against a document KV cache and prefix batches are priced with the
   * measured per-batch hit fraction instead of the schema's assumed
   * prefix_cache_hit_rate. Zero capacities (the default) disable each
   * level and reproduce cacheless serving bit-identically.
   */
  cache::CacheOptions cache;

  /**
   * Optional span-trace recorder (serving/obs/trace.h): admission,
   * queue, batch, stage, cache and decode spans on the virtual clock,
   * plus per-stage queue-depth and utilization counter tracks (one
   * sample per enqueue and per batch start, the first 4096 of each
   * stage).
   * Observation-only by contract: every RuntimeResult field, including
   * the outcome digest, is bit-identical with tracing on or off. Not
   * owned; must outlive the call. Appends happen on the serial loop.
   */
  obs::TraceRecorder* trace = nullptr;
  /**
   * Optional metrics registry (common/metrics.h): counters, gauges and
   * TTFT/TPOT/queue-wait histograms under "runtime.*" names, exported
   * from the finished result. Observation-only. Not owned.
   */
  MetricsRegistry* metrics = nullptr;
  /**
   * Optional windowed telemetry (serving/obs/timeseries.h): arrivals,
   * rejections, completions, queue depth and busy time rolled into
   * fixed virtual-clock windows, closed as the loop passes their upper
   * edge. Observation-only; thread-count invariant. Not owned; must
   * arrive unfinished (the engine calls Finish at the end of the run).
   */
  obs::TelemetryTimeSeries* timeseries = nullptr;
  /**
   * Optional burn-rate alerting (serving/obs/slo_alerts.h). Requires
   * `timeseries`; each closed fine window is fed to the engine and the
   * resulting transitions are emitted as trace instants and flight
   * records. Observation-only. Not owned.
   */
  obs::SloAlertEngine* alerts = nullptr;
  /**
   * Optional flight recorder (serving/obs/flight_recorder.h): a
   * bounded ring of recent window/alert/rejection/milestone records,
   * dumped to `flight_dump_path` (when non-empty) at the end of the
   * run and when an exception (RAGO_CHECK failure included) unwinds
   * the loop. Not owned.
   */
  obs::FlightRecorder* flight = nullptr;
  /// Dump target for the flight recorder; empty = no dump. A dump
  /// that fails while an exception unwinds the loop is dropped so the
  /// original exception propagates.
  std::string flight_dump_path;

  /// Throws ConfigError on invalid knobs.
  void Validate() const;
};

/// Per-stage telemetry of one run.
struct StageTelemetry {
  core::StageType type = core::StageType::kPrefix;
  int server = 0;           ///< Collocation group id, or the dedicated
                            ///< retrieval server index.
  int64_t batches = 0;      ///< Batches flushed (full or timed out).
  int64_t full_batches = 0; ///< Batches flushed at the configured size.
  int64_t requests = 0;     ///< Requests processed.
  double busy_seconds = 0.0;  ///< Virtual server occupancy.
  double utilization = 0.0;   ///< busy_seconds / makespan.
  int max_queue_depth = 0;
  Histogram queue_wait;       ///< Virtual wait from enqueue to flush.
};

/// Outcome of one request (virtual seconds unless noted).
struct RequestOutcome {
  double arrival = 0.0;
  bool admitted = false;
  double ttft = -1.0;        ///< Arrival to first token; -1 if rejected.
  double decode_start = -1.0;  ///< Admission into the decode pool.
  double tpot = -1.0;        ///< Decode seconds per output token (from
                             ///< decode_start).
  double completion = -1.0;  ///< Absolute completion time.
  double queue_wait = 0.0;   ///< Summed pre-decode queue waits.
  int64_t first_neighbor = -1;  ///< Top-1 global id of the request's
                                ///< first query (a real scan result
                                ///< or its cached equivalent; -1
                                ///< without a retrieval hook).
  bool slo_ok = false;       ///< Completed within both SLO targets.
  /// Served from the retrieval-result cache (no real scan ran).
  bool retrieval_cache_hit = false;
  /// Measured fraction of this request's retrieved documents resident
  /// in the KV cache when its results landed (0 when that level is
  /// disabled) — the measured prefix_cache_hit_rate.
  double prefix_hit_fraction = 0.0;
};

/// Aggregate result of one run.
struct RuntimeResult {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  double makespan = 0.0;     ///< Last completion (virtual seconds).
  double throughput = 0.0;   ///< completed / makespan.

  Histogram ttft;            ///< Completed requests only.
  Histogram tpot;
  Histogram queue_wait;      ///< Summed pre-decode waits per request.

  /**
   * Fraction of *submitted* requests that completed within both SLO
   * targets — rejected requests score as violations, so shedding load
   * cannot inflate attainment.
   */
  double slo_attainment = 0.0;

  std::vector<StageTelemetry> stages;  ///< Pre-decode stages, in order.
  /// Virtual occupancy per server: collocation groups by id, then the
  /// retrieval tier at index NumGroups().
  std::vector<double> server_busy_seconds;
  double decode_utilization = 0.0;
  int max_decode_queue_depth = 0;

  /**
   * Cache-tier telemetry: hit/miss/eviction/insertion counters of the
   * retrieval-result cache and the document KV cache, and the mean
   * measured prefix hit fraction over admitted requests. All folded
   * into the outcome digest.
   */
  cache::CacheCounters retrieval_cache;
  cache::CacheCounters doc_cache;
  double measured_prefix_hit_rate = 0.0;

  /// Events the loop popped (arrivals, batch completions, flush
  /// deadlines, decode steps, cache-hit deliveries). Read-only
  /// accounting: not folded into the outcome digest.
  int64_t events_processed = 0;

  /// Real-scan accounting (host wall clock; *not* covered by the
  /// determinism contract, unlike everything above). Zero without a
  /// retrieval hook.
  double real_scan_seconds = 0.0;
  double real_scan_bytes = 0.0;
  int64_t real_queries_scanned = 0;

  std::vector<RequestOutcome> requests;  ///< Indexed by request id.

  /**
   * FNV-1a digest over every request outcome in id order: admission,
   * retrieved (id, distance-bit) pairs, and TTFT/TPOT/completion bit
   * patterns. Two runs serve identically iff digests match — the
   * determinism tests sweep num_threads against this.
   */
  uint64_t outcome_digest = 0;
};

/// One request's retrieved neighbour lists, one per query vector.
using Retrieved = std::vector<std::vector<ann::Neighbor>>;

/**
 * Executes one retrieval batch for real: returns, for each member
 * request id in order, its Retrieved lists, and adds its scan
 * accounting (real_scan_*) to `result`. Called on the serial loop,
 * once per retrieval batch, when the batch starts.
 */
using RetrievalHook = std::function<std::vector<Retrieved>(
    const std::vector<int>& members, RuntimeResult& result)>;

/**
 * Serves `trace` under `schedule` on `model` and returns the run's
 * outcomes and telemetry. `label` names the run in flight-recorder
 * notes ("<label> begin", "<label> end"). Without `retrieve`,
 * retrieval is priced only and nothing is retrieved.
 * `fingerprints[i]` keys request i in the retrieval-result cache; it
 * is read only when options.cache.retrieval_capacity > 0, and must
 * then cover every request.
 */
RuntimeResult RunServingEngine(const core::PipelineModel& model,
                               const core::Schedule& schedule,
                               const RuntimeOptions& options,
                               const ArrivalTrace& trace,
                               const std::string& label,
                               const RetrievalHook& retrieve = {},
                               const std::vector<uint64_t>& fingerprints =
                                   {});

}  // namespace rago::runtime

#endif  // RAGO_SERVING_RUNTIME_ENGINE_H
