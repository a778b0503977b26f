/**
 * @file bench_micro_substrates.cc
 * google-benchmark microbenchmarks of the substrates: ANN kernels
 * (distance scan, PQ ADC, tree search, k-means, top-k candidate
 * selection), the roofline
 * inference evaluator, the retrieval cost model, schedule evaluation,
 * and the iterative-decode DES. These measure this repository's own
 * code, complementing the figure harnesses that measure the modeled
 * system.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "models/inference.h"
#include "rago/optimizer.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/pq.h"
#include "retrieval/ann/scann_tree.h"
#include "retrieval/ann/topk.h"
#include "retrieval/perf/scann_model.h"
#include "sim/iterative_sim.h"

namespace {

using namespace rago;

void BM_AnnL2DistanceScan(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const ann::Matrix data = ann::GenUniform(n, 96, rng);
  const ann::Matrix query = ann::GenUniform(1, 96, rng);
  for (auto _ : state) {
    float sum = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      sum += ann::L2Sq(query.Row(0), data.Row(i), 96);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n) * 96 * 4);
}
BENCHMARK(BM_AnnL2DistanceScan)->Arg(1024)->Arg(16384);

void BM_AnnPqAdcScan(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  const ann::Matrix data = ann::GenClustered(n, 96, 8, 0.4f, rng);
  const ann::ProductQuantizer pq(data, 12, rng, 4);
  const std::vector<uint8_t> codes = pq.EncodeAll(data);
  std::vector<float> table;
  pq.BuildAdcTable(data.Row(0), table);
  for (auto _ : state) {
    float sum = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      sum += pq.AdcDistance(table, codes.data() + i * pq.CodeBytes());
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * pq.CodeBytes()));
}
BENCHMARK(BM_AnnPqAdcScan)->Arg(4096)->Arg(65536);

void BM_AnnTreeSearch(benchmark::State& state) {
  Rng rng(3);
  ann::Matrix data = ann::GenClustered(20000, 32, 64, 0.3f, rng);
  const ann::Matrix queries = ann::GenQueriesNear(data, 64, 0.1f, rng);
  ann::ScannTreeOptions options;
  options.levels = 2;
  options.fanout = 16;
  options.pq_subspaces = 8;
  const ann::ScannTree tree(std::move(data), options, rng);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Search(queries.Row(q % queries.rows()), 10,
                    static_cast<int>(state.range(0)), 50));
    ++q;
  }
}
BENCHMARK(BM_AnnTreeSearch)->Arg(4)->Arg(32);

void BM_AnnFlatSearch(benchmark::State& state) {
  Rng rng(4);
  ann::Matrix data = ann::GenUniform(10000, 96, rng);
  const ann::Matrix queries = ann::GenUniform(16, 96, rng);
  const ann::FlatIndex index(std::move(data));
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Search(queries.Row(q % 16), 10));
    ++q;
  }
}
BENCHMARK(BM_AnnFlatSearch);

/// Top-k candidate selection alone, at the shapes the scan paths feed
/// it: Args are {k, candidates, sorted runs}. Zero runs is one stream
/// in random order (a scan); r > 0 is r ascending runs, the shard
/// merge's input.
void BM_TopKSelect(benchmark::State& state) {
  const auto k = static_cast<size_t>(state.range(0));
  const auto n = static_cast<size_t>(state.range(1));
  const auto runs = static_cast<size_t>(state.range(2));
  Rng rng(5);
  std::vector<ann::Neighbor> stream(n);
  for (size_t i = 0; i < n; ++i) {
    stream[i] = {static_cast<float>(rng.NextUniform(0.0, 100.0)),
                 static_cast<int64_t>(i)};
  }
  for (size_t r = 0; r < runs; ++r) {
    const auto begin = stream.begin() + static_cast<std::ptrdiff_t>(
                                            r * n / runs);
    const auto end = stream.begin() + static_cast<std::ptrdiff_t>(
                                          (r + 1) * n / runs);
    std::sort(begin, end);
  }
  for (auto _ : state) {
    ann::TopK topk(k);
    for (const ann::Neighbor& c : stream) {
      topk.Push(c.dist, c.id);
    }
    benchmark::DoNotOptimize(topk.SortedTake());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TopKSelect)
    ->ArgNames({"k", "n", "runs"})
    ->Args({4, 64, 0})      // Coarse ranking: nprobe of nlist centroids.
    ->Args({10, 312, 0})    // IVF float list scan.
    ->Args({64, 1250, 0})   // IVF-PQ ADC candidate pool (rerank 64).
    ->Args({10, 64, 0})     // Exact rerank of the 64-candidate pool.
    ->Args({10, 40, 4});    // Shard merge: 4 sorted lists of 10.

void BM_RooflinePrefixEval(benchmark::State& state) {
  const models::InferenceModel model(models::Llama70B(), DefaultXpu());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.BestPrefix(64, 16, 512));
  }
}
BENCHMARK(BM_RooflinePrefixEval);

void BM_RetrievalModelEval(benchmark::State& state) {
  const retrieval::ScannModel model(retrieval::DatabaseSpec{},
                                    DefaultCpuServer(), 16);
  int64_t batch = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Search(batch));
    batch = batch % 512 + 1;
  }
}
BENCHMARK(BM_RetrievalModelEval);

void BM_ScheduleEvaluate(benchmark::State& state) {
  const core::PipelineModel model(core::MakeRewriterRerankerSchema(8),
                                  DefaultCluster());
  core::Schedule schedule;
  schedule.chain_group = {0, 0, 1, 1};
  schedule.group_chips = {8, 16};
  schedule.chain_batch = {8, 8, 16, 16};
  schedule.decode_chips = 16;
  schedule.decode_batch = 256;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = 16;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(schedule));
  }
}
BENCHMARK(BM_ScheduleEvaluate);

void BM_OptimizerSearchCaseII(benchmark::State& state) {
  const core::PipelineModel model(core::MakeLongContextSchema(8, 1'000'000),
                                  DefaultCluster());
  opt::SearchOptions options;
  options.batch_sizes = {1, 8, 64, 512};
  options.decode_batch_sizes = {16, 256};
  for (auto _ : state) {
    const opt::Optimizer optimizer(model, options);
    benchmark::DoNotOptimize(optimizer.Search());
  }
}
BENCHMARK(BM_OptimizerSearchCaseII);

void BM_IterativeDes(benchmark::State& state) {
  sim::IterativeSimConfig config;
  config.decode_batch = 64;
  config.iterative_batch = 8;
  config.retrievals_per_sequence = 4;
  config.num_sequences = 256;
  for (auto _ : state) {
    config.seed = static_cast<uint64_t>(state.iterations());
    benchmark::DoNotOptimize(sim::SimulateIterativeDecode(config));
  }
}
BENCHMARK(BM_IterativeDes);

}  // namespace

BENCHMARK_MAIN();
