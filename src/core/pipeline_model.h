/**
 * @file pipeline_model.h
 * End-to-end RAG serving performance model.
 *
 * Combines the inference roofline model (src/models) and the retrieval
 * cost models (src/retrieval/perf) into per-stage costs and assembles
 * them into end-to-end metrics (paper §3.3): TTFT is the sum of stage
 * latencies up to and including the main-LLM prefix; pipeline QPS is
 * the minimum stage throughput; QPS/Chip normalizes by the allocated
 * XPUs plus the XPU-equivalents of the dedicated retrieval hosts.
 */
#ifndef RAGO_CORE_PIPELINE_MODEL_H
#define RAGO_CORE_PIPELINE_MODEL_H

#include <functional>
#include <memory>
#include <vector>

#include "core/schedule.h"
#include "core/schema.h"
#include "core/stage_perf.h"
#include "hardware/cluster.h"
#include "retrieval/perf/retrieval_model.h"

namespace rago::core {

/// End-to-end metrics of one schedule.
struct EndToEndPerf {
  double ttft = 0.0;          ///< Seconds to first token (batch flow).
  double tpot = 0.0;          ///< Worst-case seconds per output token.
  double qps = 0.0;           ///< Max sustained requests per second.
  double qps_per_chip = 0.0;  ///< QPS / chip-equivalents.
  int chip_equivalents = 0;   ///< Allocated XPUs + retrieval equivalent.
  bool feasible = false;
};

/**
 * Pluggable source of per-stage costs for schedule evaluation. The
 * optimizer supplies memoized lookups here (Algorithm 1 step 1) so
 * millions of schedules can be assembled without re-running the
 * roofline models; the default provider calls the live evaluators.
 */
struct StagePerfProvider {
  std::function<StagePerf(StageType, int chips, int64_t batch)> chain;
  std::function<StagePerf(int chips, int64_t batch)> decode;
  std::function<StagePerf(int request_batch, int servers)> retrieval;
  /// Prefix ingestion of newly retrieved content (iterative rounds).
  std::function<StagePerf(int chips, int64_t batch)> ingest;
};

/// Decode-stage cost of iterative retrieval (paper §5.3).
struct IterativeStall {
  double stall_total = 0.0;  ///< Seconds a sequence stalls, all rounds.
  double decode_request_rate = 0.0;  ///< Requests/s decode sustains.
};

/**
 * The stall model of iterative retrieval, shared by
 * PipelineModel::EvaluateWith and the optimizer's enumeration. Each
 * of `rounds` mid-decode rounds waits for an iterative batch to fill,
 * then retrieves and ingests: retrieval requests arrive at
 * lambda = decode_batch * rounds / decode duration, and a round
 * departs once `iterative_batch` of them accumulate.
 */
inline IterativeStall IterativeDecodeStall(int64_t decode_batch, int rounds,
                                           int decode_tokens,
                                           double step_latency,
                                           int64_t iterative_batch,
                                           double retrieval_latency,
                                           double ingest_latency) {
  const double lambda = static_cast<double>(decode_batch) * rounds /
                        (static_cast<double>(decode_tokens) * step_latency);
  const double wait =
      (static_cast<double>(iterative_batch) - 1.0) / (2.0 * lambda);
  IterativeStall stall;
  stall.stall_total = rounds * (retrieval_latency + ingest_latency + wait);
  stall.decode_request_rate =
      static_cast<double>(decode_batch) /
      (static_cast<double>(decode_tokens) * step_latency + stall.stall_total);
  return stall;
}

/// Resource-normalized time share of one stage (for breakdown plots).
struct StageShare {
  StageType stage;
  /// Chip-equivalent-seconds consumed per request at peak efficiency.
  double chip_seconds = 0.0;
  double fraction = 0.0;  ///< Share of the pipeline total.
};

/**
 * Performance model for one RAGSchema on one cluster.
 *
 * Thread-compatible: all evaluation methods are const and instances
 * hold only immutable configuration.
 */
class PipelineModel {
 public:
  PipelineModel(RAGSchema schema, ClusterConfig cluster);

  const RAGSchema& schema() const { return schema_; }
  const ClusterConfig& cluster() const { return cluster_; }

  /// Prefix-chain stages (collocation candidates), in pipeline order.
  const std::vector<StageType>& chain() const { return chain_; }

  /**
   * Cost of one XPU prefix-chain stage at (chips, batch). Latency is
   * one batch's processing time; throughput is requests/second.
   */
  StagePerf EvalChainStage(StageType stage, int chips, int64_t batch) const;

  /**
   * Prefix-stage cost with an explicit document-level KV cache hit
   * rate in [0, 1] overriding the schema's assumed
   * `prefix_cache_hit_rate` knob. The serving runtime prices each
   * prefix batch with the *measured* per-batch hit fraction from its
   * cache tier through this entry point; EvalChainStage(kPrefix, ...)
   * is equivalent to calling this with the schema knob. The
   * hit_rate = 1.0 limit prices the question-only prompt (clamped to
   * at least one token), never a zero/NaN prefix time.
   */
  StagePerf EvalPrefixCached(int chips, int64_t batch,
                             double hit_rate) const;

  /// Cost of the main-LLM decode stage (continuous batching).
  StagePerf EvalDecode(int chips, int64_t batch) const;

  /**
   * Retrieval cost for a batch of `request_batch` requests on
   * `servers` hosts (each request issues queries_per_retrieval query
   * vectors). Latency covers the batch; throughput is requests/s.
   */
  StagePerf EvalRetrieval(int request_batch, int servers) const;

  /// Prefix cost of ingesting newly retrieved passages mid-decode
  /// (iterative retrieval rounds, Case III).
  StagePerf EvalIngestPrefix(int chips, int64_t batch) const;

  /// Full evaluation of a scheduling policy.
  EndToEndPerf Evaluate(const Schedule& schedule) const;

  /// Evaluation with externally supplied (e.g. memoized) stage costs.
  EndToEndPerf EvaluateWith(const Schedule& schedule,
                            const StagePerfProvider& provider) const;

  /// Provider backed by the live evaluators of this model.
  StagePerfProvider LiveProvider() const;

  /**
   * LiveProvider with the retrieval lookup replaced by `model` — e.g.
   * a MeasuredRetrievalModel calibrated from real sharded scans on the
   * serving index, or costs derived from the roofline profiler
   * (retrieval/perf/roofline.h). A batch of `request_batch` requests
   * issues queries_per_retrieval queries each, matching EvalRetrieval;
   * the server count still gates database-capacity feasibility, but
   * pricing comes entirely from `model` (measured costs describe the
   * deployment they were calibrated on). Borrowed: `model` must
   * outlive the provider and be thread-compatible (Optimizer::Search
   * profiles concurrently).
   */
  StagePerfProvider ProviderWithRetrievalModel(
      const retrieval::RetrievalModel& model) const;

  /**
   * Average TTFT when a burst of `burst` requests arrives at once and
   * pre-decode stages process it in micro-batches per the schedule's
   * batching policy (paper Fig. 14/19). Requests stream through
   * disaggregated groups; collocated stages time-multiplex.
   */
  double BurstAverageTtft(const Schedule& schedule, int64_t burst) const;

  /**
   * Resource-normalized time breakdown across all pipeline stages
   * (paper Fig. 6c/d, 8b, 11): each stage's chip-equivalent-seconds
   * per request when running at its own peak QPS/Chip.
   */
  std::vector<StageShare> TimeBreakdown() const;

  /// Chip-equivalents reserved by the retrieval tier (0 if brute-force
  /// in-host or retrieval disabled).
  int RetrievalChipEquivalents(int servers) const;

  /// Minimum servers that can hold the (quantized) database.
  int MinRetrievalServers() const;

  /**
   * Index into chain() of the first stage executed after retrieval
   * (rerank if present, else prefix). If the stage before retrieval is
   * collocated with it, the shared group pauses for retrieval (paper
   * §6.1), which Evaluate charges against that group's utilization.
   */
  size_t PostRetrievalChainIndex() const;

  /// Average decode context length (prompt + half the generation).
  int64_t AvgDecodeContext() const;
  /// Maximum decode context length (prompt + full generation).
  int64_t MaxDecodeContext() const;

 private:
  const models::InferenceModel& ModelFor(StageType stage) const;

  /// Whether `servers` hosts can serve the database (the capacity
  /// check every retrieval price passes first).
  bool RetrievalFits(int request_batch, int servers) const;
  /// `model`'s cost for `request_batch` requests, each issuing
  /// queries_per_retrieval queries; throughput is requests/s.
  StagePerf PriceRetrieval(const retrieval::RetrievalModel& model,
                           int request_batch) const;

  RAGSchema schema_;
  ClusterConfig cluster_;
  std::vector<StageType> chain_;
  std::unique_ptr<models::InferenceModel> llm_;
  std::unique_ptr<models::InferenceModel> encoder_;
  std::unique_ptr<models::InferenceModel> rewriter_;
  std::unique_ptr<models::InferenceModel> reranker_;
};

}  // namespace rago::core

#endif  // RAGO_CORE_PIPELINE_MODEL_H
