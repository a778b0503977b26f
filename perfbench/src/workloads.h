/**
 * @file workloads.h
 * The benchmark's two workloads and the inputs each seed generates.
 *
 * A workload fixes the shape of a run (corpus and tier, schema and
 * search grid, traffic, sinks, latency limits); the seed fixes its
 * contents (corpus, query pool, request-length sample, arrival trace,
 * query stream). The program under test only ever sees the generated
 * inputs.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/schema.h"
#include "rago/optimizer.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/runtime/workload.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;

  // Corpus and query pool (retrieval/ann/dataset.h generators).
  size_t corpus_rows = 0;
  size_t dim = 32;
  int clusters = 64;
  float spread = 0.3f;
  size_t pool_rows = 0;
  float query_noise = 0.1f;

  // Retrieval tier.
  rago::serving::ShardedIndexOptions tier;
  /// Threads of every timed section (scan pool, index build, search).
  /// One: on the reference machine the host takes 10-25 % of CPU time
  /// back as steal whenever more than one vCPU is busy, and timings
  /// then swing by a third from run to run (README, "Threads").
  int num_threads = 1;
  int top_k = 10;

  // Plan: the case-IV schema on the default or a reduced grid.
  int llm_billions = 8;
  bool full_grid = false;

  // Traffic, as fractions of the served schedule's analytical QPS.
  int requests = 0;
  bool mmpp = false;
  double poisson_load = 0.0;
  double quiet_load = 0.0;
  double burst_load = 0.0;
  double mean_quiet_seconds = 0.0;
  double mean_burst_seconds = 0.0;
  double zipf_skew = 0.0;  ///< 0 = uniform over the pool.

  /// Attach the full sink stack (sampled trace, metrics, time series,
  /// alerts, flight recorder) to the timed serve calls.
  bool sinks = false;

  // Fixed latency limits for goodput (virtual seconds).
  double ttft_limit = 0.0;
  double tpot_limit = 0.0;

  /// Runtime batch-forming timeout (virtual seconds).
  double batch_timeout = 0.050;
  /// Cache tier capacities (serving/cache; 0 = level off).
  int64_t retrieval_cache = 0;
  int64_t doc_cache = 0;

  // Repetitions of the set-up section (median reported).
  int setup_repeats = 3;
};

/// The named workload; throws std::invalid_argument for unknown names.
WorkloadSpec MakeWorkload(const std::string& name);

/// Per-request lengths sampled for one seed, and the schema built
/// from their means (an operator sizing the schema from a log sample).
struct RequestMix {
  std::vector<int> question_tokens;
  std::vector<int> passage_tokens;  ///< Retrieved content per request.
  std::vector<int> decode_tokens;
};

RequestMix SampleRequestMix(uint64_t seed);
rago::core::RAGSchema SchemaForMix(const WorkloadSpec& spec,
                                   const RequestMix& mix);

/// The workload's search grid.
rago::opt::SearchOptions GridFor(const WorkloadSpec& spec);

/// Corpus plus query pool for one seed (the generated set-up input).
struct Corpus {
  rago::ann::Matrix data;
  rago::ann::Matrix pool;
};

Corpus GenerateCorpus(const WorkloadSpec& spec, uint64_t seed);

/// Arrival trace and query stream for one seed, sized against the
/// served schedule's analytical capacity.
struct Traffic {
  rago::runtime::ArrivalTrace trace;
  rago::runtime::QueryStream stream;
};

Traffic GenerateTraffic(const WorkloadSpec& spec, uint64_t seed,
                        double capacity_qps);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
