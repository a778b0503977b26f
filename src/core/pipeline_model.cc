#include "core/pipeline_model.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/math_util.h"
#include "retrieval/perf/bruteforce_model.h"
#include "retrieval/perf/scann_model.h"

namespace rago::core {
namespace {

/// Builds the analytical database spec from a schema's retrieval config.
retrieval::DatabaseSpec ToDatabaseSpec(const RetrievalConfig& config) {
  retrieval::DatabaseSpec spec;
  spec.num_vectors = config.num_db_vectors;
  spec.dim = config.vector_dim;
  spec.pq_bytes_per_vector = config.pq_bytes_per_vector;
  spec.scan_fraction = config.scan_fraction;
  return spec;
}

/// A phase's best plan as a pipeline stage cost. Stages that price a
/// request as several phase items (chunks, steps, passages) scale the
/// latency or throughput afterwards.
StagePerf ToStagePerf(const models::PhaseCost& best) {
  StagePerf perf;
  perf.latency = best.latency;
  perf.throughput = best.throughput;
  perf.mem_per_chip = best.mem_per_chip;
  perf.plan = best.plan;
  perf.feasible = best.feasible;
  return perf;
}

}  // namespace

PipelineModel::PipelineModel(RAGSchema schema, ClusterConfig cluster)
    : schema_(std::move(schema)), cluster_(std::move(cluster)) {
  schema_.Validate();
  cluster_.Validate();
  chain_ = schema_.PrefixChainStages();

  llm_ = std::make_unique<models::InferenceModel>(schema_.generative_llm,
                                                  cluster_.xpu);
  if (schema_.document_encoder.has_value()) {
    encoder_ = std::make_unique<models::InferenceModel>(
        *schema_.document_encoder, cluster_.xpu);
  }
  if (schema_.query_rewriter.has_value()) {
    rewriter_ = std::make_unique<models::InferenceModel>(
        *schema_.query_rewriter, cluster_.xpu);
  }
  if (schema_.reranker.has_value()) {
    reranker_ = std::make_unique<models::InferenceModel>(*schema_.reranker,
                                                         cluster_.xpu);
  }
}

const models::InferenceModel&
PipelineModel::ModelFor(StageType stage) const {
  switch (stage) {
    case StageType::kDatabaseEncode:
      RAGO_CHECK(encoder_ != nullptr, "schema has no document encoder");
      return *encoder_;
    case StageType::kRewritePrefix:
    case StageType::kRewriteDecode:
      RAGO_CHECK(rewriter_ != nullptr, "schema has no query rewriter");
      return *rewriter_;
    case StageType::kRerank:
      RAGO_CHECK(reranker_ != nullptr, "schema has no reranker");
      return *reranker_;
    case StageType::kPrefix:
    case StageType::kDecode:
      return *llm_;
    case StageType::kRetrieval:
      break;
  }
  RAGO_CHECK(false, "retrieval stage has no inference model");
}

int64_t
PipelineModel::AvgDecodeContext() const {
  return schema_.workload.prefix_tokens + schema_.workload.decode_tokens / 2;
}

int64_t
PipelineModel::MaxDecodeContext() const {
  return schema_.workload.prefix_tokens + schema_.workload.decode_tokens;
}

StagePerf
PipelineModel::EvalChainStage(StageType stage, int chips,
                              int64_t batch) const {
  RAGO_REQUIRE(chips > 0 && batch > 0, "chips and batch must be positive");
  const WorkloadConfig& w = schema_.workload;

  switch (stage) {
    case StageType::kDatabaseEncode: {
      // Encode the uploaded context in fixed-size chunks; a request
      // contributes ceil(context / chunk) encoder invocations.
      const int64_t chunks = CeilDiv(w.context_tokens, w.encode_chunk_tokens);
      StagePerf perf = ToStagePerf(ModelFor(stage).BestEncode(
          chips, batch * chunks, w.encode_chunk_tokens));
      perf.throughput /= static_cast<double>(chunks);
      return perf;
    }
    case StageType::kRewritePrefix:
      return ToStagePerf(
          ModelFor(stage).BestPrefix(chips, batch, w.question_tokens));
    case StageType::kRewriteDecode: {
      // Autoregressive generation of the rewritten query.
      const int64_t steps = w.rewrite_output_tokens;
      const int64_t avg_ctx = w.question_tokens + steps / 2;
      const int64_t max_ctx = w.question_tokens + steps;
      StagePerf perf = ToStagePerf(
          ModelFor(stage).BestDecode(chips, batch, avg_ctx, max_ctx));
      perf.latency *= static_cast<double>(steps);
      perf.throughput /= static_cast<double>(steps);
      return perf;
    }
    case StageType::kRerank: {
      // Score rerank_candidates passages of passage_tokens each.
      const int64_t passages = w.rerank_candidates;
      StagePerf perf = ToStagePerf(ModelFor(stage).BestEncode(
          chips, batch * passages, w.passage_tokens));
      perf.throughput /= static_cast<double>(passages);
      return perf;
    }
    case StageType::kPrefix:
      return EvalPrefixCached(chips, batch, w.prefix_cache_hit_rate);
    case StageType::kRetrieval:
    case StageType::kDecode:
      break;
  }
  RAGO_REQUIRE(false, "EvalChainStage handles prefix-chain stages only");
}

StagePerf
PipelineModel::EvalPrefixCached(int chips, int64_t batch,
                                double hit_rate) const {
  RAGO_REQUIRE(chips > 0 && batch > 0, "chips and batch must be positive");
  RAGO_REQUIRE(hit_rate >= 0.0 && hit_rate <= 1.0,
               "prefix cache hit rate must be in [0, 1]");
  const WorkloadConfig& w = schema_.workload;
  // Long-context LLM-only baselines use hybrid global/local
  // attention (paper §5.2); RAG prompts use full attention.
  const models::AttentionMode mode =
      (!schema_.retrieval_enabled && w.context_tokens > 0)
          ? models::HybridLocalAttention()
          : models::FullAttention();
  // Document-level KV caching (RAGCache-style) skips prefix compute
  // for the cached share of the retrieved content. The clamp keeps
  // the token count positive at the hit_rate = 1.0 limit even when
  // question_tokens is 0, so the priced latency stays finite.
  int64_t prefix_tokens = w.prefix_tokens;
  if (hit_rate > 0 && schema_.retrieval_enabled) {
    const double retrieved = w.prefix_tokens - w.question_tokens;
    prefix_tokens =
        w.question_tokens +
        static_cast<int64_t>(retrieved * (1.0 - hit_rate));
    prefix_tokens = std::max<int64_t>(prefix_tokens, 1);
  }
  return ToStagePerf(ModelFor(StageType::kPrefix)
                         .BestPrefix(chips, batch, prefix_tokens, mode));
}

StagePerf
PipelineModel::EvalDecode(int chips, int64_t batch) const {
  const int64_t steps = schema_.workload.decode_tokens;
  // Latency stays one step: the TPOT building block.
  StagePerf perf = ToStagePerf(
      llm_->BestDecode(chips, batch, AvgDecodeContext(), MaxDecodeContext()));
  perf.throughput /= static_cast<double>(steps);
  return perf;
}

size_t
PipelineModel::PostRetrievalChainIndex() const {
  for (size_t i = 0; i < chain_.size(); ++i) {
    if (chain_[i] == StageType::kRerank || chain_[i] == StageType::kPrefix) {
      return i;
    }
  }
  RAGO_CHECK(false, "prefix stage missing from chain");
}

int
PipelineModel::MinRetrievalServers() const {
  if (!schema_.retrieval_enabled || schema_.retrieval.brute_force) {
    return 1;  // Per-request data lives on the (existing) host.
  }
  return retrieval::ScannModel::MinServersForCapacity(
      ToDatabaseSpec(schema_.retrieval), cluster_.cpu_server);
}

int
PipelineModel::RetrievalChipEquivalents(int servers) const {
  if (!schema_.retrieval_enabled || schema_.retrieval.brute_force) {
    // Brute-force per-request databases ride along in the inference
    // hosts' spare DRAM; no dedicated retrieval tier is reserved.
    return 0;
  }
  return servers * cluster_.xpus_per_server;
}

bool
PipelineModel::RetrievalFits(int request_batch, int servers) const {
  RAGO_REQUIRE(request_batch > 0 && servers > 0,
               "batch and server count must be positive");
  // Brute-force data lives on the inference hosts; a quantized
  // database needs enough DRAM but no more hosts than the cluster has.
  return schema_.retrieval.brute_force ||
         (servers >= MinRetrievalServers() && servers <= cluster_.num_servers);
}

StagePerf
PipelineModel::PriceRetrieval(const retrieval::RetrievalModel& model,
                              int request_batch) const {
  const int qpr = schema_.retrieval.queries_per_retrieval;
  const retrieval::RetrievalCost cost =
      model.Search(static_cast<int64_t>(request_batch) * qpr);
  StagePerf perf;
  perf.latency = cost.latency;
  perf.throughput = cost.throughput / qpr;
  perf.feasible = true;
  return perf;
}

StagePerf
PipelineModel::EvalRetrieval(int request_batch, int servers) const {
  RAGO_REQUIRE(schema_.retrieval_enabled,
               "schema disables retrieval; no retrieval stage to evaluate");
  if (!RetrievalFits(request_batch, servers)) {
    return StagePerf{};
  }
  const RetrievalConfig& r = schema_.retrieval;
  if (r.brute_force) {
    return PriceRetrieval(
        retrieval::BruteForceModel(r.num_db_vectors, r.vector_dim,
                                   r.brute_force_bytes_per_dim,
                                   cluster_.cpu_server),
        request_batch);
  }
  return PriceRetrieval(retrieval::ScannModel(ToDatabaseSpec(r),
                                              cluster_.cpu_server, servers),
                        request_batch);
}

StagePerf
PipelineModel::EvalIngestPrefix(int chips, int64_t batch) const {
  const WorkloadConfig& w = schema_.workload;
  const int64_t ingest_tokens =
      static_cast<int64_t>(w.neighbors) * w.passage_tokens;
  return ToStagePerf(llm_->BestPrefix(chips, batch, ingest_tokens));
}

StagePerfProvider
PipelineModel::LiveProvider() const {
  StagePerfProvider provider;
  provider.chain = [this](StageType stage, int chips, int64_t batch) {
    return EvalChainStage(stage, chips, batch);
  };
  provider.decode = [this](int chips, int64_t batch) {
    return EvalDecode(chips, batch);
  };
  provider.retrieval = [this](int request_batch, int servers) {
    return EvalRetrieval(request_batch, servers);
  };
  provider.ingest = [this](int chips, int64_t batch) {
    return EvalIngestPrefix(chips, batch);
  };
  return provider;
}

StagePerfProvider
PipelineModel::ProviderWithRetrievalModel(
    const retrieval::RetrievalModel& model) const {
  RAGO_REQUIRE(schema_.retrieval_enabled,
               "schema disables retrieval; nothing for the measured "
               "retrieval model to price");
  StagePerfProvider provider = LiveProvider();
  // Capacity feasibility stays with the cluster model; pricing comes
  // from `model` (it describes the deployment it was calibrated on,
  // whatever the nominal server count).
  provider.retrieval = [this, &model](int request_batch, int servers) {
    return RetrievalFits(request_batch, servers)
               ? PriceRetrieval(model, request_batch)
               : StagePerf{};
  };
  return provider;
}

EndToEndPerf
PipelineModel::Evaluate(const Schedule& schedule) const {
  return EvaluateWith(schedule, LiveProvider());
}

EndToEndPerf
PipelineModel::EvaluateWith(const Schedule& schedule,
                            const StagePerfProvider& provider) const {
  schedule.Validate(chain_.size());
  const WorkloadConfig& w = schema_.workload;

  // --- Prefix-chain groups (time-multiplexed collocation). ---
  std::vector<double> group_latency(schedule.group_chips.size(), 0.0);
  std::vector<double> group_seconds_per_request(schedule.group_chips.size(),
                                                0.0);
  std::vector<double> group_mem(schedule.group_chips.size(), 0.0);
  int prefix_group = -1;
  for (size_t i = 0; i < chain_.size(); ++i) {
    const int g = schedule.chain_group[i];
    const StagePerf stage_perf = provider.chain(
        chain_[i], schedule.group_chips[static_cast<size_t>(g)],
        schedule.chain_batch[i]);
    if (!stage_perf.feasible) {
      return EndToEndPerf{};
    }
    group_latency[static_cast<size_t>(g)] += stage_perf.latency;
    group_seconds_per_request[static_cast<size_t>(g)] +=
        1.0 / stage_perf.throughput;
    group_mem[static_cast<size_t>(g)] += stage_perf.mem_per_chip;
    if (chain_[i] == StageType::kPrefix) {
      prefix_group = g;
    }
  }
  RAGO_CHECK(prefix_group >= 0, "prefix stage missing from chain");

  // Collocated models must fit on the group's chips together.
  for (size_t g = 0; g < group_mem.size(); ++g) {
    if (group_mem[g] > cluster_.xpu.hbm_bytes) {
      return EndToEndPerf{};
    }
  }

  double ttft = 0.0;
  double min_throughput = std::numeric_limits<double>::infinity();

  // --- Retrieval (initial). ---
  StagePerf retrieval_perf;
  if (schema_.retrieval_enabled) {
    retrieval_perf = provider.retrieval(
        static_cast<int>(schedule.retrieval_batch), schedule.retrieval_servers);
    if (!retrieval_perf.feasible) {
      return EndToEndPerf{};
    }
    ttft += retrieval_perf.latency;
    // The retrieval tier serves every retrieval of every sequence.
    const double per_sequence_load = schema_.retrieval.retrievals_per_sequence;
    min_throughput =
        std::min(min_throughput, retrieval_perf.throughput / per_sequence_load);

    // A collocated group spanning the retrieval point pauses until
    // retrieval completes (paper §6.1), inflating its busy time.
    const size_t after = PostRetrievalChainIndex();
    if (after > 0 &&
        schedule.chain_group[after] == schedule.chain_group[after - 1]) {
      const auto g = static_cast<size_t>(schedule.chain_group[after]);
      group_seconds_per_request[g] +=
          retrieval_perf.latency /
          static_cast<double>(schedule.retrieval_batch);
    }
  }

  for (size_t g = 0; g < group_latency.size(); ++g) {
    ttft += group_latency[g];
    min_throughput =
        std::min(min_throughput, 1.0 / group_seconds_per_request[g]);
  }

  // --- Decode (continuous batching). ---
  const StagePerf decode_perf =
      provider.decode(schedule.decode_chips, schedule.decode_batch);
  if (!decode_perf.feasible) {
    return EndToEndPerf{};
  }
  double tpot = decode_perf.latency;
  double decode_request_throughput = decode_perf.throughput;

  // --- Iterative retrieval stalls (paper §5.3). ---
  if (schema_.IterativeRetrieval()) {
    const int iter_rounds = schema_.retrieval.retrievals_per_sequence - 1;
    // Retrieval round at the iterative batch size.
    const StagePerf iter_retrieval =
        provider.retrieval(static_cast<int>(schedule.iterative_batch),
                           schedule.retrieval_servers);
    // Newly retrieved passages are ingested through the prefix stage.
    const StagePerf ingest = provider.ingest(
        schedule.group_chips[static_cast<size_t>(prefix_group)],
        schedule.iterative_batch);
    if (!iter_retrieval.feasible || !ingest.feasible) {
      return EndToEndPerf{};
    }
    const IterativeStall stall = IterativeDecodeStall(
        schedule.decode_batch, iter_rounds, w.decode_tokens,
        decode_perf.latency, schedule.iterative_batch,
        iter_retrieval.latency, ingest.latency);
    tpot += stall.stall_total / static_cast<double>(w.decode_tokens);
    decode_request_throughput = stall.decode_request_rate;
  }
  min_throughput = std::min(min_throughput, decode_request_throughput);

  // --- Assembly. ---
  if (schedule.AllocatedXpus() > cluster_.TotalXpus()) {
    return EndToEndPerf{};
  }
  EndToEndPerf perf;
  perf.feasible = true;
  perf.ttft = ttft;
  perf.tpot = tpot;
  perf.qps = min_throughput;
  // Chip-equivalent accounting: hyperscale retrieval reserves its
  // database hosts whole (the XPUs riding on them are usable by the
  // pipeline, so the footprint is the max of the two, not the sum).
  perf.chip_equivalents =
      std::max(schedule.AllocatedXpus(),
               schema_.retrieval_enabled
                   ? RetrievalChipEquivalents(schedule.retrieval_servers)
                   : 0);
  perf.qps_per_chip = perf.qps / perf.chip_equivalents;
  return perf;
}

double
PipelineModel::BurstAverageTtft(const Schedule& schedule,
                                int64_t burst) const {
  RAGO_REQUIRE(burst > 0, "burst must be positive");
  schedule.Validate(chain_.size());

  // Pipeline nodes: chain groups plus the retrieval tier, each with a
  // first-batch latency and a steady drain rate.
  struct PipeNode {
    double latency = 0.0;
    double rate = 0.0;
    int64_t batch = 1;
  };
  std::vector<PipeNode> nodes(schedule.group_chips.size());
  for (size_t i = 0; i < chain_.size(); ++i) {
    const int g = schedule.chain_group[i];
    const int64_t batch =
        std::min<int64_t>(schedule.chain_batch[i], burst);
    const StagePerf stage_perf = EvalChainStage(
        chain_[i], schedule.group_chips[static_cast<size_t>(g)], batch);
    auto& node = nodes[static_cast<size_t>(g)];
    node.latency += stage_perf.latency;
    node.rate = node.rate == 0.0
                    ? stage_perf.throughput
                    : 1.0 / (1.0 / node.rate + 1.0 / stage_perf.throughput);
    node.batch = std::max(node.batch, batch);
  }
  if (schema_.retrieval_enabled) {
    const int64_t batch = std::min<int64_t>(schedule.retrieval_batch, burst);
    const StagePerf r =
        EvalRetrieval(static_cast<int>(batch), schedule.retrieval_servers);
    PipeNode node;
    node.latency = r.latency;
    node.rate = r.throughput;
    node.batch = batch;
    nodes.push_back(node);
  }

  double first_wave = 0.0;
  double min_rate = std::numeric_limits<double>::infinity();
  int64_t min_batch = burst;
  for (const PipeNode& node : nodes) {
    first_wave += node.latency;
    min_rate = std::min(min_rate, node.rate);
    min_batch = std::min(min_batch, node.batch);
  }
  // Requests stream through in micro-batch waves: the first wave sees
  // the raw pipeline latency, later waves queue behind the bottleneck.
  const double extra = static_cast<double>(burst - min_batch) / min_rate;
  return first_wave + 0.5 * std::max(0.0, extra);
}

std::vector<StageShare>
PipelineModel::TimeBreakdown() const {
  std::vector<StageShare> shares;
  const int max_chips = NextPowerOfTwo(cluster_.TotalXpus());

  // Chip-seconds per request for an XPU stage: minimize chips/thpt
  // over power-of-two chip counts and batch sizes.
  auto xpu_chip_seconds = [&](StageType stage, bool decode) {
    double best = std::numeric_limits<double>::infinity();
    for (int chips = 1; chips <= max_chips; chips *= 2) {
      for (int64_t batch = 1; batch <= 1024; batch *= 2) {
        const StagePerf p =
            decode ? EvalDecode(chips, batch)
                   : EvalChainStage(stage, chips, batch);
        if (p.feasible) {
          best = std::min(best, chips / p.throughput);
        }
      }
    }
    return best;
  };

  for (StageType stage : schema_.AllStages()) {
    StageShare share;
    share.stage = stage;
    if (stage == StageType::kRetrieval) {
      // Saturated retrieval tier on the minimum server count. Tier
      // seconds per request, converted to host-server seconds and then
      // to XPU-equivalents (4 XPUs ride on each host). Brute-force
      // search runs on a single shared host.
      const int servers = MinRetrievalServers();
      const StagePerf p = EvalRetrieval(/*request_batch=*/1024, servers);
      const double tier_seconds_per_request =
          schema_.retrieval.retrievals_per_sequence / p.throughput;
      const int tier_servers = schema_.retrieval.brute_force ? 1 : servers;
      share.chip_seconds = tier_seconds_per_request * tier_servers *
                           cluster_.xpus_per_server;
    } else if (stage == StageType::kDecode) {
      share.chip_seconds = xpu_chip_seconds(stage, /*decode=*/true);
    } else {
      share.chip_seconds = xpu_chip_seconds(stage, /*decode=*/false);
    }
    shares.push_back(share);
  }

  double total = 0.0;
  for (const StageShare& share : shares) {
    total += share.chip_seconds;
  }
  for (StageShare& share : shares) {
    share.fraction = share.chip_seconds / total;
  }
  return shares;
}

}  // namespace rago::core
