#include "models/inference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"

namespace rago::models {

InferenceModel::InferenceModel(TransformerConfig config, XpuSpec xpu)
    : config_(std::move(config)), xpu_(std::move(xpu)) {
  config_.Validate();
  RAGO_REQUIRE(xpu_.peak_flops > 0 && xpu_.hbm_bw > 0 && xpu_.ici_bw > 0,
               "XPU spec must have positive compute/memory/link rates");
}

std::vector<ShardingPlan>
InferenceModel::PlansFor(int chips) const {
  RAGO_REQUIRE(chips > 0, "need at least one chip");
  RAGO_REQUIRE(IsPowerOfTwo(chips),
               "chip counts are allocated in powers of two");
  std::vector<ShardingPlan> plans;
  for (int tensor = 1; tensor <= chips; tensor *= 2) {
    const int pipeline = chips / tensor;
    // Pipeline depth cannot exceed layer count; tensor parallelism is
    // capped at the attention head count (finer splits are not
    // profitable on systolic arrays).
    if (pipeline > config_.num_layers || tensor > config_.num_heads) {
      continue;
    }
    plans.push_back(ShardingPlan{tensor, pipeline});
  }
  // May be empty when the chip count exceeds what the model can use
  // (pipeline depth > layers and tensor split > heads); callers treat
  // an empty option set as infeasible.
  return plans;
}

double
InferenceModel::WeightBytesPerChip(const ShardingPlan& plan) const {
  return config_.WeightBytes() / plan.Chips();
}

PhaseCost
InferenceModel::EvalPlan(const std::vector<Op>& ops, const ShardingPlan& plan,
                         double per_layer_comm_bytes,
                         double kv_cache_bytes) const {
  const double eff_flops = xpu_.EffectiveFlops();
  const double eff_mem = xpu_.EffectiveMemBw();
  const double eff_net = xpu_.EffectiveNetBw();
  const double tensor = plan.tensor;
  const double pipeline = plan.pipeline;

  // Per-operator roofline with tensor-parallel division of both the
  // compute and the resident weights / activations.
  double compute_time = 0.0;
  for (const Op& op : ops) {
    const double flops = op.flops / tensor;
    const double bytes = (op.weight_bytes + op.act_bytes) / tensor;
    const double t = std::max(flops / eff_flops, bytes / eff_mem);
    compute_time += op.count * t;
  }

  // Tensor parallelism: two all-reduces per layer (post-attention and
  // post-FFN), ring cost 2*(t-1)/t of the activation size per chip.
  double comm_time = 0.0;
  if (plan.tensor > 1) {
    const double ring = 2.0 * (tensor - 1.0) / tensor;
    comm_time += config_.num_layers * 2.0 * ring * per_layer_comm_bytes /
                 eff_net;
  }

  // Pipeline parallelism: activations hop between consecutive stages.
  double pp_comm = 0.0;
  if (plan.pipeline > 1) {
    pp_comm = (pipeline - 1.0) * per_layer_comm_bytes / eff_net;
  }

  const double total = compute_time + comm_time + pp_comm;

  PhaseCost cost;
  cost.plan = plan;
  // A single request traverses every stage: latency is the full sum.
  // For decode this is also TPOT: a sequence's next step cannot start
  // until its current step leaves the last stage, while interleaved
  // batches keep the stages busy for throughput.
  cost.latency = total;
  // In steady state each pipeline stage works on a different
  // (micro)batch, so completions are paced by the slowest stage.
  const double stage_time = (compute_time + comm_time) / pipeline + pp_comm;
  cost.throughput = 1.0 / stage_time;  // Batches (or steps) per second.

  cost.mem_per_chip = config_.WeightBytes() / plan.Chips() +
                      kv_cache_bytes / plan.Chips();
  cost.feasible = cost.mem_per_chip <= xpu_.hbm_bytes;
  return cost;
}

template <typename WorkFn>
std::vector<PhaseCost>
InferenceModel::ReplicaSweep(int chips, int64_t batch, WorkFn work) const {
  std::vector<PhaseCost> options;
  for (int replicas = 1; replicas <= chips && replicas <= batch;
       replicas *= 2) {
    const ReplicaWork w = work(CeilDiv(batch, replicas));
    for (const ShardingPlan& plan : PlansFor(chips / replicas)) {
      PhaseCost cost =
          EvalPlan(w.ops, plan, w.per_layer_comm_bytes, w.kv_cache_bytes);
      // Each replica completes replica-batches (decode: steps) at the
      // stage rate; fleet items/s = full batch times that rate.
      cost.throughput *= static_cast<double>(batch);
      cost.plan.replicas = replicas;
      options.push_back(cost);
    }
  }
  return options;
}

std::vector<PhaseCost>
InferenceModel::PrefixOptions(int chips, int64_t batch, int64_t seq_len,
                              const AttentionMode& mode) const {
  return ReplicaSweep(chips, batch, [&](int64_t replica_batch) {
    ReplicaWork w;
    w.ops = BuildPrefixOps(config_, replica_batch, seq_len, mode);
    w.per_layer_comm_bytes = static_cast<double>(replica_batch) * seq_len *
                             config_.d_model * config_.bytes_per_activation;
    // Prefix must hold the KV cache it produces.
    w.kv_cache_bytes = static_cast<double>(replica_batch) * seq_len *
                       config_.KvBytesPerToken();
    return w;
  });
}

std::vector<PhaseCost>
InferenceModel::DecodeOptions(int chips, int64_t batch, int64_t context_len,
                              int64_t max_context) const {
  RAGO_REQUIRE(max_context >= context_len,
               "max_context must be at least the average context");
  return ReplicaSweep(chips, batch, [&](int64_t replica_batch) {
    ReplicaWork w;
    w.ops = BuildDecodeStepOps(config_, replica_batch, context_len);
    w.per_layer_comm_bytes = static_cast<double>(replica_batch) *
                             config_.d_model * config_.bytes_per_activation;
    w.kv_cache_bytes = static_cast<double>(replica_batch) * max_context *
                       config_.KvBytesPerToken();
    return w;
  });
}

std::vector<PhaseCost>
InferenceModel::EncodeOptions(int chips, int64_t batch,
                              int64_t chunk_len) const {
  return ReplicaSweep(chips, batch, [&](int64_t replica_batch) {
    ReplicaWork w;
    w.ops = BuildEncodeOps(config_, replica_batch, chunk_len);
    w.per_layer_comm_bytes = static_cast<double>(replica_batch) *
                             chunk_len * config_.d_model *
                             config_.bytes_per_activation;
    // Encoders emit embeddings; no KV cache is retained.
    return w;
  });
}

namespace {

PhaseCost
BestOf(const std::vector<PhaseCost>& options) {
  PhaseCost best;
  best.feasible = false;
  best.latency = std::numeric_limits<double>::infinity();
  for (const PhaseCost& cost : options) {
    if (cost.feasible && cost.latency < best.latency) {
      best = cost;
    }
  }
  return best;
}

PhaseCost
BestThroughputOf(const std::vector<PhaseCost>& options) {
  PhaseCost best;
  best.feasible = false;
  best.throughput = 0.0;
  best.latency = std::numeric_limits<double>::infinity();
  for (const PhaseCost& cost : options) {
    if (!cost.feasible) {
      continue;
    }
    if (cost.throughput > best.throughput ||
        (cost.throughput == best.throughput &&
         cost.latency < best.latency)) {
      best = cost;
    }
  }
  return best;
}

}  // namespace

PhaseCost
InferenceModel::BestPrefix(int chips, int64_t batch, int64_t seq_len,
                           const AttentionMode& mode) const {
  return BestOf(PrefixOptions(chips, batch, seq_len, mode));
}

PhaseCost
InferenceModel::BestDecode(int chips, int64_t batch, int64_t context_len,
                           int64_t max_context) const {
  return BestThroughputOf(DecodeOptions(chips, batch, context_len, max_context));
}

PhaseCost
InferenceModel::BestEncode(int chips, int64_t batch, int64_t chunk_len) const {
  return BestOf(EncodeOptions(chips, batch, chunk_len));
}

int64_t
InferenceModel::MaxDecodeBatch(int chips, int64_t max_context) const {
  const double hbm_total = static_cast<double>(chips) * xpu_.hbm_bytes;
  const double weights = config_.WeightBytes();
  if (weights > hbm_total) {
    return 0;
  }
  const double kv_per_seq =
      static_cast<double>(max_context) * config_.KvBytesPerToken();
  const double max_seqs = (hbm_total - weights) / kv_per_seq;
  if (max_seqs < 1.0) {
    return 0;
  }
  // Round down to a power of two, consistent with the search grid.
  int64_t batch = 1;
  while (batch * 2 <= static_cast<int64_t>(max_seqs)) {
    batch *= 2;
  }
  return batch;
}

}  // namespace rago::models
