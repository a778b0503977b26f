/**
 * @file inference.h
 * Roofline inference performance model for XPU accelerators.
 *
 * Implements the paper's inference simulator (§4a): a phase's latency
 * is the sum over its operators of max(compute time, memory time),
 * plus inter-chip communication for the sharding plan. Tensor
 * parallelism divides per-operator work across chips and adds two
 * all-reduces per layer; pipeline parallelism divides layers across
 * stages, multiplying throughput while leaving single-request latency
 * roughly unchanged. Hybrid plans combine both.
 */
#ifndef RAGO_MODELS_INFERENCE_H
#define RAGO_MODELS_INFERENCE_H

#include <cstdint>
#include <vector>

#include "hardware/xpu.h"
#include "models/ops.h"
#include "models/transformer.h"

namespace rago::models {

/// A (data × tensor × pipeline) parallel partitioning over chips.
/// `replicas` independent copies of the model each shard over
/// (tensor x pipeline) chips and serve a slice of the batch.
struct ShardingPlan {
  int tensor = 1;
  int pipeline = 1;
  int replicas = 1;

  int Chips() const { return tensor * pipeline * replicas; }
};

/// Cost of running one phase under a specific sharding plan.
struct PhaseCost {
  ShardingPlan plan;
  double latency = 0.0;        ///< Seconds for one batch / one step.
  double throughput = 0.0;     ///< Batches(prefix)/steps(decode) per sec
                               ///  times batch: items per second.
  double mem_per_chip = 0.0;   ///< Bytes of HBM required per chip.
  bool feasible = false;       ///< Fits in HBM.
};

/**
 * Inference cost model for one model on one XPU generation.
 *
 * All query methods are pure; the model owns no mutable state, so one
 * instance can be shared across threads.
 */
class InferenceModel {
 public:
  InferenceModel(TransformerConfig config, XpuSpec xpu);

  const TransformerConfig& config() const { return config_; }
  const XpuSpec& xpu() const { return xpu_; }

  /**
   * All feasible sharding plans for the prefix phase on `chips` chips
   * (power-of-two tensor/pipeline splits), batch `batch`, prompt
   * length `seq_len`. Latency is time to first token for the batch;
   * throughput is sequences/second in steady state.
   */
  std::vector<PhaseCost> PrefixOptions(
      int chips, int64_t batch, int64_t seq_len,
      const AttentionMode& mode = FullAttention()) const;

  /// Minimum-latency feasible prefix plan; feasible=false if none fits.
  PhaseCost BestPrefix(int chips, int64_t batch, int64_t seq_len,
                       const AttentionMode& mode = FullAttention()) const;

  /**
   * All feasible plans for one decode step with `batch` concurrent
   * sequences whose average live context is `context_len` tokens and
   * whose worst-case context is `max_context` (memory sizing).
   * Latency is the per-step (TPOT) latency; throughput is tokens/s.
   */
  std::vector<PhaseCost> DecodeOptions(int chips, int64_t batch,
                                       int64_t context_len,
                                       int64_t max_context) const;

  /**
   * Best feasible decode plan by throughput (ties broken on latency).
   * Decode serves a continuous stream, so sustained tokens/s is the
   * objective; the chosen plan's step latency is the reported TPOT.
   */
  PhaseCost BestDecode(int chips, int64_t batch, int64_t context_len,
                       int64_t max_context) const;

  /**
   * Encoder throughput/latency for encoding `batch` chunks of
   * `chunk_len` tokens (document encoder / reranker). Only valid for
   * encoder models.
   */
  std::vector<PhaseCost> EncodeOptions(int chips, int64_t batch,
                                       int64_t chunk_len) const;

  /// Minimum-latency feasible encode plan.
  PhaseCost BestEncode(int chips, int64_t batch, int64_t chunk_len) const;

  /**
   * Largest power-of-two continuous-batching batch size whose weights +
   * KV cache fit on `chips` chips with per-sequence context
   * `max_context`. Returns 0 if even batch 1 does not fit.
   */
  int64_t MaxDecodeBatch(int chips, int64_t max_context) const;

  /// Weight bytes per chip under a plan (for capacity reporting).
  double WeightBytesPerChip(const ShardingPlan& plan) const;

 private:
  /// One replica's share of a phase: its operators, the activation
  /// bytes each layer communicates, and the KV cache it must hold.
  struct ReplicaWork {
    std::vector<Op> ops;
    double per_layer_comm_bytes = 0.0;
    double kv_cache_bytes = 0.0;
  };

  /**
   * The sweep every phase shares: for each power-of-two replica count
   * r <= min(chips, batch), each replica takes ceil(batch / r) items
   * on chips / r chips and is priced under every sharding plan of that
   * sub-slice. `work(replica_batch)` returns a ReplicaWork; fleet
   * throughput is the full batch times one replica's completion rate.
   */
  template <typename WorkFn>
  std::vector<PhaseCost> ReplicaSweep(int chips, int64_t batch,
                                      WorkFn work) const;

  PhaseCost EvalPlan(const std::vector<Op>& ops, const ShardingPlan& plan,
                     double per_layer_comm_bytes,
                     double kv_cache_bytes) const;

  std::vector<ShardingPlan> PlansFor(int chips) const;

  TransformerConfig config_;
  XpuSpec xpu_;
};

}  // namespace rago::models

#endif  // RAGO_MODELS_INFERENCE_H
