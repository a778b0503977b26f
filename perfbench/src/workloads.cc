#include "workloads.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/rng.h"
#include "retrieval/ann/dataset.h"

namespace perfbench {
namespace {

using rago::Rng;

// Independent generator streams derived from the one --seed.
constexpr uint64_t kCorpusStream = 1;
constexpr uint64_t kMixStream = 2;
constexpr uint64_t kTraceStream = 3;
constexpr uint64_t kQueryStream = 4;

constexpr int kMixSample = 1024;

int RoundedMean(const std::vector<int>& values) {
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  return static_cast<int>(std::lround(sum / values.size()));
}

}  // namespace

WorkloadSpec MakeWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "rag_scan") {
    // Scan-bound: every request runs a real IVF-PQ scan with exact
    // rerank, in retrieval batches of the schedule's size.
    spec.corpus_rows = 20'000;
    spec.clusters = 256;
    spec.pool_rows = 2'048;
    spec.tier.num_shards = 4;
    spec.tier.partitioner = rago::serving::PartitionerKind::kKMeansBalanced;
    spec.tier.backend = rago::serving::ShardBackend::kIvfPq;
    spec.tier.ivfpq.nlist = 32;
    spec.tier.ivfpq.pq_subspaces = 8;
    spec.tier.nprobe = 8;
    spec.tier.rerank = 64;
    spec.full_grid = false;
    spec.requests = 6'000;
    spec.poisson_load = 0.8;
    spec.zipf_skew = 0.0;
    spec.sinks = false;
    spec.ttft_limit = 0.40;
    spec.tpot_limit = 0.010;
    spec.setup_repeats = 3;
  } else if (name == "rag_hot") {
    // Event-loop-bound: cheap float-list scans, bursty arrivals, a
    // skewed query stream over a pool larger than the retrieval cache,
    // both cache levels and the whole sink stack. The batch timeout is
    // 5 ms: at the 50 ms default the runtime's flush-deadline events
    // multiply without limit on this traffic and serve wall time
    // swings from under a second to minutes with the seed.
    spec.corpus_rows = 10'000;
    spec.pool_rows = 4'096;
    spec.tier.num_shards = 2;
    spec.tier.partitioner = rago::serving::PartitionerKind::kKMeansBalanced;
    spec.tier.backend = rago::serving::ShardBackend::kIvf;
    spec.tier.ivf.nlist = 64;
    spec.tier.nprobe = 4;
    spec.full_grid = true;
    spec.requests = 16'000;
    spec.mmpp = true;
    spec.quiet_load = 0.4;
    spec.burst_load = 2.0;
    spec.mean_quiet_seconds = 0.1;
    spec.mean_burst_seconds = 0.025;
    spec.zipf_skew = 1.0;
    spec.sinks = true;
    spec.ttft_limit = 0.30;
    spec.tpot_limit = 0.010;
    spec.batch_timeout = 0.005;
    spec.retrieval_cache = 256;
    spec.doc_cache = 2'048;
    spec.setup_repeats = 21;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // Build parallelism and the scan pool share one thread count.
  spec.tier.num_threads = spec.num_threads;
  return spec;
}

RequestMix SampleRequestMix(uint64_t seed) {
  Rng rng(Rng::DeriveSeed(seed, kMixStream));
  RequestMix mix;
  mix.question_tokens.reserve(kMixSample);
  mix.passage_tokens.reserve(kMixSample);
  mix.decode_tokens.reserve(kMixSample);
  for (int i = 0; i < kMixSample; ++i) {
    mix.question_tokens.push_back(16 + static_cast<int>(rng.NextBounded(33)));
    int passages = 0;
    for (int p = 0; p < 5; ++p) {  // The schema's five retrieved passages.
      passages += 48 + static_cast<int>(rng.NextBounded(97));
    }
    mix.passage_tokens.push_back(passages);
    mix.decode_tokens.push_back(192 + static_cast<int>(rng.NextBounded(129)));
  }
  return mix;
}

rago::core::RAGSchema SchemaForMix(const WorkloadSpec& spec,
                                   const RequestMix& mix) {
  rago::core::RAGSchema schema =
      rago::core::MakeRewriterRerankerSchema(spec.llm_billions);
  schema.workload.question_tokens = RoundedMean(mix.question_tokens);
  schema.workload.prefix_tokens =
      schema.workload.question_tokens + RoundedMean(mix.passage_tokens);
  schema.workload.decode_tokens = RoundedMean(mix.decode_tokens);
  schema.Validate();
  return schema;
}

rago::opt::SearchOptions GridFor(const WorkloadSpec& spec) {
  rago::opt::SearchOptions grid;
  if (!spec.full_grid) {
    grid.batch_sizes = {1, 4, 16, 64};
    grid.decode_batch_sizes = {16, 64, 256};
  }
  grid.num_threads = spec.num_threads;
  return grid;
}

Corpus GenerateCorpus(const WorkloadSpec& spec, uint64_t seed) {
  Rng rng(Rng::DeriveSeed(seed, kCorpusStream));
  Corpus corpus;
  corpus.data = rago::ann::GenClustered(spec.corpus_rows, spec.dim,
                                        spec.clusters, spec.spread, rng);
  corpus.pool = rago::ann::GenQueriesNear(corpus.data, spec.pool_rows,
                                          spec.query_noise, rng);
  return corpus;
}

Traffic GenerateTraffic(const WorkloadSpec& spec, uint64_t seed,
                        double capacity_qps) {
  namespace rt = rago::runtime;
  Traffic traffic;
  const uint64_t trace_seed = Rng::DeriveSeed(seed, kTraceStream);
  if (spec.mmpp) {
    rt::MmppOptions mmpp;
    mmpp.quiet_qps = capacity_qps * spec.quiet_load;
    mmpp.burst_qps = capacity_qps * spec.burst_load;
    mmpp.mean_quiet_seconds = spec.mean_quiet_seconds;
    mmpp.mean_burst_seconds = spec.mean_burst_seconds;
    traffic.trace = rt::MmppTrace(spec.requests, mmpp, trace_seed);
  } else {
    traffic.trace = rt::PoissonTrace(
        spec.requests, capacity_qps * spec.poisson_load, trace_seed);
  }
  traffic.stream = rt::ZipfianQueryStream(
      spec.requests, static_cast<int64_t>(spec.pool_rows), spec.zipf_skew,
      Rng::DeriveSeed(seed, kQueryStream));
  return traffic;
}

}  // namespace perfbench
