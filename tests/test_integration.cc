/**
 * @file test_integration.cc
 * Cross-module integration tests: the four paper case studies run
 * end-to-end through schema -> pipeline model -> optimizer, the
 * functional ANN library agrees qualitatively with the analytical
 * retrieval model, and the DES agrees with the analytical stall model.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "rago/optimizer.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/recall.h"
#include "retrieval/ann/scann_tree.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/perf/scann_model.h"
#include "retrieval/serving/calibration.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/runtime/workload.h"
#include "sim/iterative_sim.h"
#include "sim/serving_sim.h"
#include "tests/testing/test_support.h"

namespace rago {
namespace {

TEST(Integration, AllFourCasesSearchEndToEnd) {
  opt::SearchOptions options;
  options.batch_sizes = {1, 16, 128};
  options.decode_batch_sizes = {16, 256};
  const std::vector<core::RAGSchema> cases = {
      core::MakeHyperscaleSchema(8, 2),
      core::MakeLongContextSchema(8, 1'000'000),
      core::MakeIterativeSchema(8, 4),
      core::MakeRewriterRerankerSchema(8),
  };
  for (const core::RAGSchema& schema : cases) {
    const core::PipelineModel model(schema, DefaultCluster());
    const opt::OptimizerResult result =
        opt::Optimizer(model, options).Search();
    ASSERT_FALSE(result.pareto.empty());
    for (const opt::ScheduledPoint& point : result.pareto) {
      EXPECT_TRUE(point.perf.feasible);
      EXPECT_GT(point.perf.qps, 0.0);
      EXPECT_GT(point.perf.ttft, 0.0);
      EXPECT_GT(point.perf.tpot, 0.0);
      EXPECT_LE(point.schedule.AllocatedXpus(),
                DefaultCluster().TotalXpus());
    }
  }
}

TEST(Integration, RagVsLlmOnlyMatchesPaperOrdering) {
  // Paper Fig. 5 orderings at max QPS/Chip:
  //   RAG 8B > LLM-only 70B (quality-equivalent pair, ~1.5x);
  //   RAG 1B ~= RAG 8B (both retrieval-bound).
  opt::SearchOptions options;
  options.batch_sizes = {1, 8, 64, 512};
  options.decode_batch_sizes = {64, 512};
  auto max_qpc = [&](const core::RAGSchema& schema) {
    const core::PipelineModel model(schema, DefaultCluster());
    return opt::Optimizer(model, options)
        .Search()
        .MaxQpsPerChip()
        .perf.qps_per_chip;
  };
  const double rag1 = max_qpc(core::MakeHyperscaleSchema(1, 1));
  const double rag8 = max_qpc(core::MakeHyperscaleSchema(8, 1));
  const double llm70 = max_qpc(core::MakeLlmOnlySchema(70));
  EXPECT_GT(rag8, llm70 * 1.2);
  EXPECT_NEAR(rag1 / rag8, 1.0, 0.35);
}

TEST(Integration, FunctionalTreeAndCostModelAgreeOnScanTradeoff) {
  // The analytical model prices retrieval by bytes scanned; the
  // functional tree shows the quality side: more leaves scanned (the
  // model's cost) -> higher recall (the paper's P_scan trade-off).
  Rng rng(21);
  ann::Matrix data = ann::GenClustered(4000, 16, 32, 0.3f, rng);
  ann::Matrix queries = ann::GenQueriesNear(data, 16, 0.1f, rng);

  const ann::FlatIndex flat(rago::testing::CopyMatrix(data));
  std::vector<std::vector<ann::Neighbor>> truth;
  for (size_t q = 0; q < queries.rows(); ++q) {
    truth.push_back(flat.Search(queries.Row(q), 10));
  }

  ann::ScannTreeOptions tree_options;
  tree_options.levels = 2;
  tree_options.fanout = 8;
  const ann::ScannTree tree(std::move(data), tree_options, rng);

  double prev_recall = -1.0;
  double prev_bytes = 0.0;
  for (int beam : {1, 8, 32}) {
    std::vector<std::vector<ann::Neighbor>> results;
    for (size_t q = 0; q < queries.rows(); ++q) {
      results.push_back(tree.Search(queries.Row(q), 10, beam, 50));
    }
    const double recall = ann::MeanRecallAtK(results, truth, 10);
    const double bytes = tree.ExpectedLeafBytesScanned(beam);
    EXPECT_GT(bytes, prev_bytes);
    EXPECT_GE(recall, prev_recall - 0.05);
    prev_recall = recall;
    prev_bytes = bytes;
  }
  EXPECT_GT(prev_recall, 0.9);
}

TEST(Integration, MeasuredRetrievalTierMatchesScannModelInServingDes) {
  // The serving DES with the measured-cost retrieval tier swapped in
  // (ServingSimOptions::retrieval_model) must agree with the default
  // analytical tier within a bounded relative error when the measured
  // profile carries the analytical model's own constants — the
  // cross-validation path real calibrations plug into.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  core::Schedule schedule;
  schedule.chain_group.assign(model.chain().size(), 0);
  schedule.group_chips = {8};
  schedule.chain_batch.assign(model.chain().size(), 4);
  schedule.decode_chips = 8;
  schedule.decode_batch = 64;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = 4;

  const retrieval::ScannModel analytic_tier(
      retrieval::DatabaseSpec{}, DefaultCluster().cpu_server,
      schedule.retrieval_servers);
  retrieval::MeasuredScanProfile profile;
  profile.bytes_per_query_per_server =
      analytic_tier.BytesPerQueryPerServer();
  profile.scan_bytes_per_core =
      DefaultCluster().cpu_server.scan_bytes_per_core;
  const retrieval::MeasuredRetrievalModel measured_tier(
      profile, DefaultCluster().cpu_server, schedule.retrieval_servers);

  const runtime::ArrivalTrace trace = runtime::PoissonTrace(200, 60.0, 9);
  const sim::ServingSimResult analytic =
      sim::SimulateServing(model, schedule, trace);
  sim::ServingSimOptions options;
  options.retrieval_model = &measured_tier;
  const sim::ServingSimResult measured =
      sim::SimulateServing(model, schedule, trace, options);

  EXPECT_EQ(measured.completed, analytic.completed);
  RAGO_EXPECT_REL_NEAR(measured.avg_ttft, analytic.avg_ttft, 0.05);
  RAGO_EXPECT_REL_NEAR(measured.throughput, analytic.throughput, 0.05);
  RAGO_EXPECT_REL_NEAR(measured.retrieval_utilization,
                       analytic.retrieval_utilization, 0.05);
}

TEST(Integration, FunctionalShardedCalibrationDrivesServingDes) {
  // End-to-end: a real scatter-gather scan over the functional sharded
  // index calibrates a measured tier, and the serving DES runs on it.
  // Laptop-scale shards scan microseconds of data, so retrieval must
  // come out far cheaper than the hyperscale analytical tier, and
  // every request must still drain through the pipeline.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(2000, 16, 16);
  serving::ShardedIndexOptions shard_options;
  shard_options.num_shards = 4;
  shard_options.partitioner = serving::PartitionerKind::kKMeansBalanced;
  const serving::ShardedIndex sharded(
      rago::testing::CopyMatrix(bed.data), shard_options);
  const retrieval::MeasuredRetrievalModel measured_tier =
      serving::CalibrateRetrievalModel(sharded, bed.queries, 10,
                                       DefaultCluster().cpu_server);

  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  core::Schedule schedule;
  schedule.chain_group.assign(model.chain().size(), 0);
  schedule.group_chips = {8};
  schedule.chain_batch.assign(model.chain().size(), 4);
  schedule.decode_chips = 8;
  schedule.decode_batch = 64;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = 4;

  const runtime::ArrivalTrace trace = runtime::PoissonTrace(100, 60.0, 5);
  sim::ServingSimOptions options;
  options.retrieval_model = &measured_tier;
  const sim::ServingSimResult result =
      sim::SimulateServing(model, schedule, trace, options);
  const sim::ServingSimResult analytic =
      sim::SimulateServing(model, schedule, trace);

  EXPECT_EQ(result.completed, 100);
  EXPECT_GT(result.avg_ttft, 0.0);
  EXPECT_LE(result.avg_ttft, analytic.avg_ttft * 1.01);
  EXPECT_LT(measured_tier.Search(1).latency,
            model.EvalRetrieval(1, schedule.retrieval_servers).latency);
}

TEST(Integration, ServingDesTracksAnalyticalModelAcrossOptimizerGrid) {
  // ROADMAP cross-validation harness: instead of spot-checking one
  // hand-written schedule, sweep SimulateServing across points of the
  // optimizer's own Pareto frontier (searched in parallel via
  // SearchOptions::num_threads) and assert bounded disagreement with
  // the closed-form model at the operating points it describes:
  //  - saturation: completion rate approaches the analytical QPS;
  //  - light load with immediate batch flush: TTFT approaches the
  //    analytical batch-flow latency;
  //  - sub-saturation: throughput tracks the offered load.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  opt::SearchOptions options = rago::testing::SmallSearchGrid();
  options.num_threads = 2;  // Results are thread-count-invariant.
  const opt::OptimizerResult result = opt::Optimizer(model, options).Search();
  ASSERT_FALSE(result.pareto.empty());

  const size_t stride = std::max<size_t>(1, result.pareto.size() / 4);
  int points_checked = 0;
  for (size_t i = 0; i < result.pareto.size(); i += stride) {
    const opt::ScheduledPoint& point = result.pareto[i];
    ASSERT_TRUE(point.perf.feasible);

    // Saturation: offered load far above capacity.
    const sim::ServingSimResult saturated = sim::SimulateServing(
        model, point.schedule,
        runtime::UniformTrace(1200, point.perf.qps * 5.0));
    EXPECT_EQ(saturated.completed, 1200);
    RAGO_EXPECT_REL_NEAR(saturated.throughput, point.perf.qps, 0.25);

    // Light load, immediate partial-batch flush: no queueing or
    // batch-forming wait, so TTFT ~= the analytical batch-flow TTFT.
    sim::ServingSimOptions flush_fast;
    flush_fast.batch_timeout = 1e-4;
    const sim::ServingSimResult light = sim::SimulateServing(
        model, point.schedule, runtime::UniformTrace(30, 2.0), flush_fast);
    EXPECT_EQ(light.completed, 30);
    RAGO_EXPECT_REL_NEAR(light.avg_ttft, point.perf.ttft, 0.35);

    // Sub-saturation: the DES must deliver the offered load. The trace
    // is long enough that the drain tail after the last arrival cannot
    // bias completed/makespan.
    const double offered = point.perf.qps * 0.4;
    const sim::ServingSimResult cruising = sim::SimulateServing(
        model, point.schedule, runtime::UniformTrace(2500, offered));
    RAGO_EXPECT_REL_NEAR(cruising.throughput, offered, 0.10);

    ++points_checked;
  }
  EXPECT_GE(points_checked, 3);
}

TEST(Integration, DesAgreesWithAnalyticalStallDirection) {
  // The optimizer's closed-form stall model and the DES must agree on
  // the direction of the iterative-batch effect at small decode pools.
  const core::PipelineModel model(core::MakeIterativeSchema(8, 4),
                                  DefaultCluster());
  core::Schedule schedule;
  schedule.chain_group = {0};
  schedule.group_chips = {8};
  schedule.chain_batch = {16};
  schedule.decode_chips = 8;
  schedule.decode_batch = 16;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = 16;

  auto analytic_tpot = [&](int64_t iterative_batch) {
    core::Schedule s = schedule;
    s.iterative_batch = iterative_batch;
    return model.Evaluate(s).tpot;
  };
  auto des_tpot = [&](int iterative_batch) {
    sim::IterativeSimConfig config;
    config.decode_batch = 16;
    config.iterative_batch = iterative_batch;
    config.decode_tokens = 256;
    config.retrievals_per_sequence = 4;
    config.step_latency = model.EvalDecode(8, 16).latency;
    config.round_latency =
        model.EvalRetrieval(iterative_batch, schedule.retrieval_servers)
            .latency;
    config.num_sequences = 128;
    return SimulateIterativeDecode(config).avg_tpot;
  };

  // At a small decode pool, growing the iterative batch inflates TPOT
  // in both models (paper Fig. 9b, decode batch 4/16 curves).
  EXPECT_GT(analytic_tpot(16), analytic_tpot(1));
  EXPECT_GT(des_tpot(16), des_tpot(1));
  // And both agree within a factor of two on the absolute TPOT.
  EXPECT_NEAR(analytic_tpot(8) / des_tpot(8), 1.0, 1.0);
}

TEST(Integration, LongContextRagBeatsLongContextLlm) {
  // Paper §5.2: RAG with retrieval truncation massively outperforms
  // feeding the full 1M-token context to the LLM, even with hybrid
  // attention. We check TTFT and QPS/Chip at simple schedules.
  const core::PipelineModel rag(core::MakeLongContextSchema(70, 1'000'000),
                                LargeCluster());
  const core::PipelineModel llm(
      core::MakeLongContextLlmOnlySchema(70, 1'000'000), LargeCluster());

  core::Schedule rag_schedule;
  rag_schedule.chain_group = {0, 1};
  rag_schedule.group_chips = {64, 16};
  rag_schedule.chain_batch = {1, 1};
  rag_schedule.decode_chips = 16;
  rag_schedule.decode_batch = 64;
  rag_schedule.retrieval_servers = 1;
  rag_schedule.retrieval_batch = 1;

  core::Schedule llm_schedule;
  llm_schedule.chain_group = {0};
  llm_schedule.group_chips = {64};
  llm_schedule.chain_batch = {1};
  llm_schedule.decode_chips = 32;
  llm_schedule.decode_batch = 8;  // KV cache limits the batch.
  llm_schedule.retrieval_servers = 1;

  const core::EndToEndPerf rag_perf = rag.Evaluate(rag_schedule);
  const core::EndToEndPerf llm_perf = llm.Evaluate(llm_schedule);
  ASSERT_TRUE(rag_perf.feasible);
  ASSERT_TRUE(llm_perf.feasible);
  // Orders of magnitude, as in the paper (2852x TTFT, 6634x QPS/Chip).
  EXPECT_GT(llm_perf.ttft / rag_perf.ttft, 50.0);
  EXPECT_GT(rag_perf.qps_per_chip / llm_perf.qps_per_chip, 100.0);
}

TEST(Integration, XpuGenerationShiftsRetrievalShare) {
  // Paper Fig. 7a: better accelerators raise the retrieval share.
  auto retrieval_share = [](XpuVersion version) {
    ClusterConfig cluster = DefaultCluster();
    cluster.xpu = MakeXpu(version);
    const core::PipelineModel model(core::MakeHyperscaleSchema(8, 1),
                                    cluster);
    for (const core::StageShare& share : model.TimeBreakdown()) {
      if (share.stage == core::StageType::kRetrieval) {
        return share.fraction;
      }
    }
    return 0.0;
  };
  const double a = retrieval_share(XpuVersion::kA);
  const double c = retrieval_share(XpuVersion::kC);
  EXPECT_GT(c, a);
}

}  // namespace
}  // namespace rago
