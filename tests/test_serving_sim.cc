/**
 * @file test_serving_sim.cc
 * Tests for the trace-driven serving simulator, including the key
 * validation property: the DES and the analytical pipeline model must
 * agree at the operating points the closed form describes.
 */
#include <gtest/gtest.h>

#include "common/check.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "serving/runtime/workload.h"
#include "sim/serving_sim.h"
#include "tests/testing/test_support.h"

namespace rago::sim {
namespace {

using runtime::ArrivalTrace;
using runtime::BurstTrace;
using runtime::PoissonTrace;
using runtime::UniformTrace;

core::Schedule SimpleSchedule(const core::PipelineModel& model,
                              int group_chips, int decode_chips,
                              int64_t batch, int64_t decode_batch) {
  core::Schedule schedule;
  schedule.chain_group.assign(model.chain().size(), 0);
  schedule.group_chips = {group_chips};
  schedule.chain_batch.assign(model.chain().size(), batch);
  schedule.decode_chips = decode_chips;
  schedule.decode_batch = decode_batch;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = batch;
  return schedule;
}

TEST(ServingSim, Traces) {
  const ArrivalTrace uniform = UniformTrace(10, 100.0);
  EXPECT_EQ(uniform.arrivals.size(), 10u);
  EXPECT_DOUBLE_EQ(uniform.arrivals[1] - uniform.arrivals[0], 0.01);

  const ArrivalTrace poisson = PoissonTrace(1000, 50.0, 7);
  EXPECT_EQ(poisson.arrivals.size(), 1000u);
  for (size_t i = 1; i < poisson.arrivals.size(); ++i) {
    EXPECT_GE(poisson.arrivals[i], poisson.arrivals[i - 1]);
  }
  // Mean rate close to 50 QPS.
  EXPECT_NEAR(1000.0 / poisson.arrivals.back(), 50.0, 5.0);

  const ArrivalTrace burst = BurstTrace(16);
  EXPECT_DOUBLE_EQ(burst.arrivals.back(), 0.0);

  EXPECT_THROW(UniformTrace(0, 1.0), rago::ConfigError);
}

TEST(ServingSim, AllRequestsComplete) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const ServingSimResult result =
      SimulateServing(model, schedule, PoissonTrace(200, 100.0, 3));
  EXPECT_EQ(result.completed, 200);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.avg_ttft, 0.0);
  EXPECT_GE(result.p99_ttft, result.avg_ttft);
}

TEST(ServingSim, PercentilesOrderedAndPopulated) {
  // TTFT/TPOT percentiles flow through the shared histogram; they must
  // be ordered and consistent with the means.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const ServingSimResult result =
      SimulateServing(model, schedule, PoissonTrace(400, 150.0, 5));
  EXPECT_GT(result.p50_ttft, 0.0);
  EXPECT_LE(result.p50_ttft, result.p95_ttft);
  EXPECT_LE(result.p95_ttft, result.p99_ttft);
  EXPECT_LE(result.p50_ttft, result.avg_ttft * 2.0);
  EXPECT_GT(result.p50_tpot, 0.0);
  EXPECT_LE(result.p50_tpot, result.p95_tpot);
  EXPECT_LE(result.p95_tpot, result.p99_tpot);
}

TEST(ServingSim, RejectsNegativeBatchTimeout) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  ServingSimOptions options;
  options.batch_timeout = -0.01;
  EXPECT_THROW(
      SimulateServing(model, schedule, UniformTrace(10, 5.0), options),
      rago::ConfigError);
}

TEST(ServingSim, LowLoadTtftApproachesAnalyticalLatency) {
  // One request at a time: no queueing, so TTFT ~= sum of stage
  // latencies plus at most the batch-forming timeout per stage.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 1, 16);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  ASSERT_TRUE(analytic.feasible);
  const ServingSimResult result =
      SimulateServing(model, schedule, UniformTrace(50, 2.0));
  RAGO_EXPECT_REL_NEAR(result.avg_ttft, analytic.ttft, 0.25);
}

TEST(ServingSim, SaturationThroughputMatchesAnalyticalQps) {
  // Offered load far above capacity: the measured completion rate must
  // approach the analytical min-stage throughput.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 16, 16, 16, 256);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  ASSERT_TRUE(analytic.feasible);
  const ServingSimResult result = SimulateServing(
      model, schedule, UniformTrace(3000, analytic.qps * 5.0));
  EXPECT_NEAR(result.throughput / analytic.qps, 1.0, 0.20);
}

TEST(ServingSim, ThroughputCappedByOfferedLoad) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 16, 16, 4, 64);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  const double offered = analytic.qps * 0.3;
  const ServingSimResult result =
      SimulateServing(model, schedule, UniformTrace(500, offered));
  EXPECT_LE(result.throughput, offered * 1.1);
  RAGO_EXPECT_REL_NEAR(result.throughput, offered, 0.1);
}

TEST(ServingSim, UtilizationBoundedAndBottleneckHighest) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 16, 16, 16, 256);
  const core::EndToEndPerf analytic = model.Evaluate(schedule);
  const ServingSimResult result = SimulateServing(
      model, schedule, UniformTrace(2000, analytic.qps * 3.0));
  for (double u : result.group_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.01);
  }
  EXPECT_LE(result.retrieval_utilization, 1.01);
  EXPECT_LE(result.decode_utilization, 1.01);
}

TEST(ServingSim, BurstBenefitsFromMicroBatching) {
  // Same burst, micro-batched vs monolithic pre-decode batching: the
  // micro-batched schedule should deliver lower average TTFT, echoing
  // BurstAverageTtft and paper Fig. 19.
  const core::PipelineModel model(
      core::MakeLongContextSchema(8, 1'000'000), DefaultCluster());
  const core::Schedule micro = SimpleSchedule(model, 32, 8, 2, 64);
  const core::Schedule mono = SimpleSchedule(model, 32, 8, 32, 64);
  ServingSimOptions options;
  options.batch_timeout = 10.0;  // Force full batches.
  const ServingSimResult micro_result =
      SimulateServing(model, micro, BurstTrace(32), options);
  const ServingSimResult mono_result =
      SimulateServing(model, mono, BurstTrace(32), options);
  EXPECT_LT(micro_result.avg_ttft, mono_result.avg_ttft);
}

TEST(ServingSim, MultiGroupPipelineRuns) {
  const core::PipelineModel model(core::MakeRewriterRerankerSchema(8),
                                  DefaultCluster());
  core::Schedule schedule;
  schedule.chain_group = {0, 0, 1, 1};
  schedule.group_chips = {4, 16};
  schedule.chain_batch = {4, 4, 4, 4};
  schedule.decode_chips = 16;
  schedule.decode_batch = 64;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = 4;
  const ServingSimResult result =
      SimulateServing(model, schedule, PoissonTrace(200, 50.0, 11));
  EXPECT_EQ(result.completed, 200);
  ASSERT_EQ(result.group_utilization.size(), 2u);
}

TEST(ServingSim, RejectsIterativeSchemas) {
  const core::PipelineModel model(core::MakeIterativeSchema(8, 4),
                                  DefaultCluster());
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  EXPECT_THROW(SimulateServing(model, schedule, BurstTrace(4)),
               rago::ConfigError);
}

TEST(ServingSim, DeterministicForIdenticalInputs) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const ArrivalTrace trace = PoissonTrace(100, 80.0, 13);
  const ServingSimResult a = SimulateServing(model, schedule, trace);
  const ServingSimResult b = SimulateServing(model, schedule, trace);
  EXPECT_DOUBLE_EQ(a.avg_ttft, b.avg_ttft);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace rago::sim
