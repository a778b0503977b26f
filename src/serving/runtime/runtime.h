/**
 * @file runtime.h
 * Online RAG serving runtime: executes a RAGO schedule against live
 * traffic with real retrieval.
 *
 * Requests from a workload scenario (serving/runtime/workload.h) run
 * through the serving engine (serving/runtime/engine.h): bounded
 * admission, per-stage continuous batching with size/timeout flush,
 * the cache tier and the decode pool, all on a virtual clock priced
 * by the same PipelineModel cost models the optimizer uses. The
 * runtime adds one thing: every retrieval batch runs as a **real**
 * ShardedIndex::SearchBatch scan — any backend/partitioner, SIMD
 * kernels and all — fanned out on the runtime's own thread pool. Its
 * neighbours feed the caches and the outcome digest, while the
 * batch's virtual service time stays model-priced, so host wall time
 * is dominated by the scans and virtual time stays reproducible. The
 * DES (sim/serving_sim.h) is the same engine without the scans.
 *
 * Determinism contract: a fixed RuntimeOptions::seed yields
 * bit-identical request outcomes (retrieved ids, TTFT/TPOT), telemetry
 * histograms, and the outcome digest for every num_threads, because
 * the engine is serial on virtual time and ShardedIndex guarantees
 * thread-count-invariant merged top-k.
 */
#ifndef RAGO_SERVING_RUNTIME_RUNTIME_H
#define RAGO_SERVING_RUNTIME_RUNTIME_H

#include <cstddef>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/pipeline_model.h"
#include "core/schedule.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/runtime/engine.h"
#include "serving/runtime/workload.h"

namespace rago::runtime {

/**
 * The live serving runtime for one (model, schedule, index) deployment.
 * Construction validates the schedule against the model and the
 * options; Serve may be called repeatedly (each call is independent).
 */
class ServingRuntime {
 public:
  /**
   * `model`, `index`, and (when set) `options.retrieval_model` are
   * borrowed and must outlive the runtime. The schema must not use
   * iterative retrieval (runtime counterpart of the DES restriction).
   */
  ServingRuntime(const core::PipelineModel& model, core::Schedule schedule,
                 const serving::ShardedIndex& index,
                 RuntimeOptions options = {});

  /**
   * Serves `workload` end to end. Each admitted request draws
   * queries_per_retrieval consecutive rows (wrapping) from
   * `query_pool`, starting at a seed-derived row, and retrieves
   * top_k neighbors through the live sharded index.
   */
  RuntimeResult Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool) const;

  /**
   * Serves with an explicit per-request query assignment (workload.h
   * query streams — Zipfian, repeat-neighbor, ...): request i starts
   * drawing pool rows at stream.rows[i] instead of a seed-derived
   * row. stream.rows.size() must equal the arrival count; rows must
   * be in [0, query_pool.rows()). This is the path that exercises
   * realistic cache hit rates.
   */
  RuntimeResult Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool,
                      const QueryStream& stream) const;

  const core::Schedule& schedule() const { return schedule_; }
  const RuntimeOptions& options() const { return options_; }

 private:
  RuntimeResult ServeImpl(const ArrivalTrace& workload,
                          const ann::Matrix& query_pool,
                          const std::vector<size_t>& row_start) const;

  const core::PipelineModel& model_;
  core::Schedule schedule_;
  const serving::ShardedIndex& index_;
  RuntimeOptions options_;
  /// Owned pool of ResolveNumThreads(options_.num_threads) workers
  /// (always allocated, even for a single worker, so scan parallelism
  /// follows this runtime's knob rather than the index's own default).
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace rago::runtime

#endif  // RAGO_SERVING_RUNTIME_RUNTIME_H
