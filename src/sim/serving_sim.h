/**
 * @file serving_sim.h
 * Trace-driven discrete-event simulation of a RAG serving schedule.
 *
 * The analytical pipeline model (core/pipeline_model.h) predicts
 * steady-state throughput and batch-flow latency in closed form. This
 * simulator executes the same schedule event by event against an
 * arrival trace: requests queue per stage, collocation groups
 * time-multiplex their member stages (paper Fig. 14), the retrieval
 * tier serves fixed-size query batches, and decode runs continuous
 * batching. It is the serving engine (serving/runtime/engine.h) that
 * the online runtime runs, with retrieval priced only (no real scans),
 * caches off and unbounded admission, so under those options the
 * runtime's virtual outcomes equal the DES's bit for bit. A DES run
 * is observed by attaching sinks to DesEngineOptions() and calling
 * the engine directly; its outcome digest is the same with any sink
 * attached. The simulator serves two purposes:
 *  - validation: at saturation the measured throughput must approach
 *    the analytical QPS; at low load the TTFT must approach the sum
 *    of stage latencies (tested in tests/test_serving_sim.cc);
 *  - queueing behavior the closed form cannot express (burst backlogs,
 *    partially filled batches under light load).
 */
#ifndef RAGO_SIM_SERVING_SIM_H
#define RAGO_SIM_SERVING_SIM_H

#include <cstdint>
#include <vector>

#include "core/pipeline_model.h"
#include "core/schedule.h"
#include "retrieval/perf/retrieval_model.h"
#include "serving/runtime/engine.h"
#include "serving/runtime/workload.h"

namespace rago::sim {

/// Simulation knobs.
struct ServingSimOptions {
  /// Maximum time a stage waits to fill its batch before flushing a
  /// partial one (prevents starvation under light load). Must be
  /// non-negative (validated by SimulateServing).
  double batch_timeout = 0.050;
  /**
   * Pluggable retrieval tier: when set, retrieval service times come
   * from this model (e.g. a MeasuredRetrievalModel calibrated from a
   * functional sharded scan) instead of the pipeline model's
   * analytical EvalRetrieval. Not owned; must outlive the call.
   */
  const retrieval::RetrievalModel* retrieval_model = nullptr;
};

/// Aggregate results of one simulation run. Percentiles use the
/// shared nearest-rank convention of common/histogram.h (the same
/// implementation the online runtime reports through).
struct ServingSimResult {
  int64_t completed = 0;
  double makespan = 0.0;        ///< Last completion time (s).
  double throughput = 0.0;      ///< Completed / makespan.
  double avg_ttft = 0.0;        ///< Mean time to first token (s).
  double p50_ttft = 0.0;        ///< Median TTFT (s).
  double p95_ttft = 0.0;        ///< 95th-percentile TTFT (s).
  double p99_ttft = 0.0;        ///< 99th-percentile TTFT (s).
  double avg_tpot = 0.0;        ///< Mean time per output token (s).
  double p50_tpot = 0.0;        ///< Median TPOT (s).
  double p95_tpot = 0.0;        ///< 95th-percentile TPOT (s).
  double p99_tpot = 0.0;        ///< 99th-percentile TPOT (s).
  /// Busy-time fraction of each collocation group, indexed by group.
  std::vector<double> group_utilization;
  double retrieval_utilization = 0.0;
  double decode_utilization = 0.0;
};

/**
 * The serving-engine options the DES runs under: `options`' batch
 * timeout and retrieval model, unbounded admission, caches off, no
 * SLO bound and no sink. A caller that wants to observe a DES run
 * attaches sinks to the returned options and calls
 * runtime::RunServingEngine without a retrieval hook.
 */
runtime::RuntimeOptions DesEngineOptions(const ServingSimOptions& options);

/**
 * Executes `schedule` on `model` against the arrival trace: the
 * serving engine under DesEngineOptions(options), summarized.
 * Deterministic; all stage service times come from the same cost
 * models the optimizer uses.
 */
ServingSimResult SimulateServing(const core::PipelineModel& model,
                                 const core::Schedule& schedule,
                                 const runtime::ArrivalTrace& trace,
                                 const ServingSimOptions& options = {});

}  // namespace rago::sim

#endif  // RAGO_SIM_SERVING_SIM_H
