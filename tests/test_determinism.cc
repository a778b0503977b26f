/**
 * @file test_determinism.cc
 * Determinism regression tests: identical seeds must yield bitwise
 * identical results across independent runs AND across thread counts,
 * now that the optimizer search and the sharded scatter-gather run on
 * the shared thread pool.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "rago/optimizer.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/ivf_index.h"
#include "retrieval/serving/sharded_index.h"
#include "sim/iterative_sim.h"
#include "tests/testing/test_support.h"

namespace rago {
namespace {

using rago::testing::CopyMatrix;
using rago::testing::SmallSearchGrid;

TEST(Determinism, RngStreamsReproduceFromSeed) {
  Rng a(rago::testing::kDefaultSeed);
  Rng b(rago::testing::kDefaultSeed);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "diverged at draw " << i;
  }
  // Distinct seeds must produce distinct streams.
  Rng c(1);
  Rng d(2);
  bool any_difference = false;
  for (int i = 0; i < 16; ++i) {
    any_difference |= (c.NextU64() != d.NextU64());
  }
  EXPECT_TRUE(any_difference);
}

TEST(Determinism, OptimizerSearchIsRunToRunIdentical) {
  // Two independent optimizer searches over the same model must emit
  // identical Pareto frontiers — exact equality, not tolerance.
  const core::PipelineModel model(
      rago::testing::TinyLongContextSchema(1'000'000), DefaultCluster());
  const opt::OptimizerResult first =
      opt::Optimizer(model, SmallSearchGrid()).Search();
  const opt::OptimizerResult second =
      opt::Optimizer(model, SmallSearchGrid()).Search();
  ASSERT_FALSE(first.pareto.empty());
  ASSERT_EQ(first.pareto.size(), second.pareto.size());
  EXPECT_EQ(first.schedules_evaluated, second.schedules_evaluated);
  EXPECT_EQ(first.schedules_feasible, second.schedules_feasible);
  for (size_t i = 0; i < first.pareto.size(); ++i) {
    const opt::ScheduledPoint& x = first.pareto[i];
    const opt::ScheduledPoint& y = second.pareto[i];
    EXPECT_EQ(x.perf.ttft, y.perf.ttft);
    EXPECT_EQ(x.perf.qps_per_chip, y.perf.qps_per_chip);
    EXPECT_EQ(x.schedule.decode_chips, y.schedule.decode_chips);
    EXPECT_EQ(x.schedule.decode_batch, y.schedule.decode_batch);
    EXPECT_EQ(x.schedule.group_chips, y.schedule.group_chips);
    EXPECT_EQ(x.schedule.chain_batch, y.schedule.chain_batch);
    EXPECT_EQ(x.schedule.chain_group, y.schedule.chain_group);
  }
}

/// Full structural + metric equality of two optimizer results.
void ExpectIdenticalResults(const opt::OptimizerResult& expected,
                            const opt::OptimizerResult& actual,
                            const std::string& label) {
  EXPECT_EQ(expected.schedules_evaluated, actual.schedules_evaluated)
      << label;
  EXPECT_EQ(expected.schedules_feasible, actual.schedules_feasible)
      << label;
  ASSERT_EQ(expected.pareto.size(), actual.pareto.size()) << label;
  for (size_t i = 0; i < expected.pareto.size(); ++i) {
    const opt::ScheduledPoint& x = expected.pareto[i];
    const opt::ScheduledPoint& y = actual.pareto[i];
    EXPECT_EQ(x.perf.ttft, y.perf.ttft) << label << " point " << i;
    EXPECT_EQ(x.perf.qps, y.perf.qps) << label << " point " << i;
    EXPECT_EQ(x.perf.qps_per_chip, y.perf.qps_per_chip)
        << label << " point " << i;
    EXPECT_TRUE(x.schedule == y.schedule) << label << " point " << i;
  }
  ASSERT_EQ(expected.plan_frontiers.size(), actual.plan_frontiers.size())
      << label;
  for (size_t p = 0; p < expected.plan_frontiers.size(); ++p) {
    const opt::PlanFrontier& px = expected.plan_frontiers[p];
    const opt::PlanFrontier& py = actual.plan_frontiers[p];
    EXPECT_EQ(px.plan_label, py.plan_label) << label;
    ASSERT_EQ(px.points.size(), py.points.size())
        << label << " plan " << px.plan_label;
    for (size_t i = 0; i < px.points.size(); ++i) {
      EXPECT_EQ(px.points[i].perf.ttft, py.points[i].perf.ttft) << label;
      EXPECT_EQ(px.points[i].perf.qps_per_chip,
                py.points[i].perf.qps_per_chip)
          << label;
      EXPECT_TRUE(px.points[i].schedule == py.points[i].schedule) << label;
    }
  }
}

TEST(Determinism, OptimizerFrontierIsThreadCountInvariant) {
  // The parallel search partitions enumeration arbitrarily across
  // workers; the merged frontier (points, schedules, plan frontiers,
  // counters) must be bit-identical to the serial run for every thread
  // count — the contract the figure benches and DES sweeps rely on.
  const core::PipelineModel model(
      rago::testing::TinyLongContextSchema(1'000'000), DefaultCluster());
  opt::SearchOptions options = SmallSearchGrid();
  options.keep_plan_frontiers = true;
  options.num_threads = 1;
  const opt::OptimizerResult serial = opt::Optimizer(model, options).Search();
  ASSERT_FALSE(serial.pareto.empty());
  ASSERT_FALSE(serial.plan_frontiers.empty());
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const opt::OptimizerResult parallel =
        opt::Optimizer(model, options).Search();
    ExpectIdenticalResults(serial, parallel,
                           "threads=" + std::to_string(threads));
  }
}

TEST(Determinism, PrunedOptimizerSearchIsThreadCountInvariant) {
  // Default options run branch and bound: each task prunes against its
  // own front and the merged pilot front, never another task's, so
  // what is evaluated and what is pruned must not depend on the
  // partition of tasks across workers.
  opt::SearchOptions coarse;
  coarse.batch_sizes = {1, 4, 16, 64};
  coarse.decode_batch_sizes = {16, 64, 256};
  struct Case {
    const char* name;
    core::RAGSchema schema;
    opt::SearchOptions options;
  };
  const Case cases[] = {
      {"long-context", rago::testing::TinyLongContextSchema(1'000'000),
       SmallSearchGrid()},
      {"rewriter-reranker", core::MakeRewriterRerankerSchema(8), coarse},
  };
  for (const Case& c : cases) {
    const core::PipelineModel model(c.schema, DefaultCluster());
    opt::SearchOptions options = c.options;
    options.num_threads = 1;
    const opt::OptimizerResult serial =
        opt::Optimizer(model, options).Search();
    ASSERT_FALSE(serial.pareto.empty()) << c.name;
    EXPECT_GT(serial.subtrees_pruned, 0) << c.name;
    for (int threads : {2, 8}) {
      options.num_threads = threads;
      const opt::OptimizerResult parallel =
          opt::Optimizer(model, options).Search();
      const std::string label =
          std::string(c.name) + " threads=" + std::to_string(threads);
      ExpectIdenticalResults(serial, parallel, label);
      EXPECT_EQ(serial.subtrees_pruned, parallel.subtrees_pruned) << label;
    }
  }
}

TEST(Determinism, OptimizerPlacementFilterThreadCountInvariant) {
  // placement_filter + keep_plan_frontiers narrows the task partition
  // to one subtree; invariance must hold there too.
  const core::PipelineModel model(
      rago::testing::TinyLongContextSchema(1'000'000), DefaultCluster());
  opt::SearchOptions options = SmallSearchGrid();
  options.keep_plan_frontiers = true;
  options.placement_filter = 1;  // [encode][prefix] disaggregated.
  options.num_threads = 1;
  const opt::OptimizerResult serial = opt::Optimizer(model, options).Search();
  ASSERT_FALSE(serial.pareto.empty());
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const opt::OptimizerResult parallel =
        opt::Optimizer(model, options).Search();
    ExpectIdenticalResults(
        serial, parallel,
        "filtered threads=" + std::to_string(threads));
  }
}

TEST(Determinism, IterativeOptimizerThreadCountInvariant) {
  // Case III exercises the ingest-table path of the parallel profiler.
  const core::PipelineModel model(rago::testing::TinyIterativeSchema(4),
                                  DefaultCluster());
  opt::SearchOptions options = SmallSearchGrid();
  options.num_threads = 1;
  const opt::OptimizerResult serial = opt::Optimizer(model, options).Search();
  ASSERT_FALSE(serial.pareto.empty());
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    ExpectIdenticalResults(serial, opt::Optimizer(model, options).Search(),
                           "iterative threads=" + std::to_string(threads));
  }
}

TEST(Determinism, ShardedSearchIsThreadCountInvariant) {
  // (shard x query-block) decomposition with the owned pool: merged
  // results and scan-byte accounting must not depend on num_threads.
  using rago::serving::ShardedIndex;
  using rago::serving::ShardedIndexOptions;
  using rago::serving::ShardSearchStats;
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(1200, 8, 37);
  ShardedIndexOptions options;
  options.num_shards = 3;
  options.query_block = 8;  // 37 queries -> 5 blocks incl. a ragged tail.
  options.backend = rago::serving::ShardBackend::kIvfPq;
  options.ivfpq.nlist = 8;
  options.nprobe = 4;
  options.rerank = 16;
  options.seed = 21;

  options.num_threads = 1;
  const ShardedIndex serial_index(CopyMatrix(bed.data), options);
  ShardSearchStats serial_stats;
  const auto serial =
      serial_index.SearchBatch(bed.queries, 9, nullptr, &serial_stats);

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const ShardedIndex index(CopyMatrix(bed.data), options);
    ShardSearchStats stats;
    const auto actual = index.SearchBatch(bed.queries, 9, nullptr, &stats);
    ASSERT_EQ(actual.size(), serial.size());
    for (size_t q = 0; q < serial.size(); ++q) {
      ASSERT_EQ(actual[q].size(), serial[q].size()) << "query " << q;
      for (size_t i = 0; i < serial[q].size(); ++i) {
        EXPECT_EQ(actual[q][i].id, serial[q][i].id);
        EXPECT_EQ(actual[q][i].dist, serial[q][i].dist);
      }
    }
    ASSERT_EQ(stats.shards.size(), serial_stats.shards.size());
    for (size_t s = 0; s < stats.shards.size(); ++s) {
      EXPECT_EQ(stats.shards[s].rows, serial_stats.shards[s].rows);
      EXPECT_EQ(stats.shards[s].scan_bytes,
                serial_stats.shards[s].scan_bytes)
          << "scan-byte accounting drifted on shard " << s;
    }
  }
}

TEST(Determinism, IterativeSimReproducesFromSeed) {
  sim::IterativeSimConfig config;
  config.decode_batch = 16;
  config.iterative_batch = 4;
  config.decode_tokens = 64;
  config.retrievals_per_sequence = 3;
  config.round_latency = 2.0;
  config.num_sequences = 64;
  config.seed = rago::testing::kDefaultSeed;
  const sim::IterativeSimResult first = sim::SimulateIterativeDecode(config);
  const sim::IterativeSimResult second = sim::SimulateIterativeDecode(config);
  EXPECT_EQ(first.avg_tpot, second.avg_tpot);
  EXPECT_EQ(first.worst_tpot, second.worst_tpot);
  EXPECT_EQ(first.total_time, second.total_time);
  EXPECT_EQ(first.rounds_executed, second.rounds_executed);
  EXPECT_EQ(first.flushed_rounds, second.flushed_rounds);
}

TEST(Determinism, AnnBuildAndSearchReproduceFromSeed) {
  auto run = [] {
    Rng rng(rago::testing::kDefaultSeed);
    ann::Matrix data = ann::GenClustered(800, 8, 16, 0.3f, rng);
    ann::Matrix queries = ann::GenQueriesNear(data, 8, 0.1f, rng);
    ann::IvfOptions options;
    options.nlist = 8;
    Rng build_rng(rago::testing::kDefaultSeed + 1);
    const ann::IvfIndex index(CopyMatrix(data), options, build_rng);
    std::vector<std::vector<ann::Neighbor>> results;
    for (size_t q = 0; q < queries.rows(); ++q) {
      results.push_back(index.Search(queries.Row(q), 5, /*nprobe=*/2));
    }
    return results;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (size_t q = 0; q < first.size(); ++q) {
    ASSERT_EQ(first[q].size(), second[q].size());
    for (size_t i = 0; i < first[q].size(); ++i) {
      EXPECT_EQ(first[q][i].id, second[q][i].id);
      EXPECT_EQ(first[q][i].dist, second[q][i].dist);
    }
  }
}

}  // namespace
}  // namespace rago
