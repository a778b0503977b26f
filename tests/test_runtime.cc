/**
 * @file test_runtime.cc
 * Tests for the online serving runtime and its workload scenario
 * library: determinism across thread counts (bit-identical outcomes
 * and telemetry), bit-identical runtime-vs-DES outcomes (one engine,
 * with and without real scans), a linear bound on popped events under
 * bursty traffic, SLO-attainment monotonicity under
 * rising offered load, trace-file round-trips, and option validation.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/units.h"
#include "core/pipeline_model.h"
#include "hardware/cluster.h"
#include "hardware/cpu_server.h"
#include "rago/optimizer.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/serving/sharded_index.h"
#include "common/json_reader.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/runtime/runtime.h"
#include "serving/runtime/workload.h"
#include "sim/serving_sim.h"
#include "tests/testing/test_support.h"

namespace rago::runtime {
namespace {

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

/// Small live retrieval tier + query pool shared by the tests.
struct LiveTier {
  serving::ShardedIndex index;
  ann::Matrix queries;
};

LiveTier MakeLiveTier(serving::ShardBackend backend =
                          serving::ShardBackend::kFlat) {
  Rng rng(91);
  ann::Matrix data = ann::GenClustered(2000, 16, 16, 0.3f, rng);
  ann::Matrix queries = ann::GenQueriesNear(data, 64, 0.1f, rng);
  serving::ShardedIndexOptions options;
  options.num_shards = 3;
  options.backend = backend;
  options.num_threads = 1;  // The runtime's pool drives parallelism.
  return LiveTier{serving::ShardedIndex(std::move(data), options),
                  std::move(queries)};
}

// ---------------------------------------------------------------------------
// Workload scenario library
// ---------------------------------------------------------------------------

TEST(Workload, MmppTraceIsSeededBurstyAndRateConsistent) {
  MmppOptions options;
  options.quiet_qps = 40.0;
  options.burst_qps = 400.0;
  options.mean_quiet_seconds = 1.0;
  options.mean_burst_seconds = 0.25;
  const ArrivalTrace trace = MmppTrace(4000, options, 5);
  ASSERT_EQ(trace.arrivals.size(), 4000u);
  for (size_t i = 1; i < trace.arrivals.size(); ++i) {
    EXPECT_GE(trace.arrivals[i], trace.arrivals[i - 1]);
  }
  // Long-run rate within 20% of the dwell-weighted mean.
  RAGO_EXPECT_REL_NEAR(OfferedQps(trace), options.MeanQps(), 0.20);
  // Same seed reproduces the trace bit-exactly; another seed does not.
  const ArrivalTrace again = MmppTrace(4000, options, 5);
  EXPECT_EQ(trace.arrivals, again.arrivals);
  const ArrivalTrace other = MmppTrace(4000, options, 6);
  EXPECT_NE(trace.arrivals, other.arrivals);
}

TEST(Workload, DiurnalTraceOscillatesAroundMeanRate) {
  DiurnalOptions options;
  options.mean_qps = 80.0;
  options.period_seconds = 10.0;
  options.amplitude = 0.9;
  const ArrivalTrace trace = DiurnalTrace(6000, options, 7);
  for (size_t i = 1; i < trace.arrivals.size(); ++i) {
    EXPECT_GE(trace.arrivals[i], trace.arrivals[i - 1]);
  }
  RAGO_EXPECT_REL_NEAR(OfferedQps(trace), options.mean_qps, 0.20);
  // The peak window must be visibly denser than the trough window:
  // count arrivals in the first quarter-period vs the third.
  int peak = 0;
  int trough = 0;
  for (double t : trace.arrivals) {
    const double phase = std::fmod(t, options.period_seconds) /
                         options.period_seconds;
    if (phase < 0.25) {
      ++peak;
    } else if (phase >= 0.5 && phase < 0.75) {
      ++trough;
    }
  }
  EXPECT_GT(peak, trough * 2);
}

TEST(Workload, TraceFileRoundTripsBitExactly) {
  const std::string path =
      ::testing::TempDir() + "/rago_roundtrip.trace";
  for (const ArrivalTrace& trace :
       {PoissonTrace(500, 73.0, 11),
        MmppTrace(300, MmppOptions{}, 13),
        BurstTrace(32)}) {
    SaveTrace(trace, path);
    const ArrivalTrace loaded = LoadTrace(path);
    ASSERT_EQ(loaded.arrivals.size(), trace.arrivals.size());
    for (size_t i = 0; i < trace.arrivals.size(); ++i) {
      EXPECT_EQ(loaded.arrivals[i], trace.arrivals[i]) << "index " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(Workload, ZipfianStreamIsSeededAndSkewed) {
  const QueryStream stream = ZipfianQueryStream(5000, 100, 1.1, 9);
  ASSERT_EQ(stream.rows.size(), 5000u);
  for (int64_t row : stream.rows) {
    EXPECT_GE(row, 0);
    EXPECT_LT(row, 100);
  }
  // Fixed seed reproduces the stream bit-exactly; another seed and
  // another skew both perturb it.
  EXPECT_EQ(stream.rows, ZipfianQueryStream(5000, 100, 1.1, 9).rows);
  EXPECT_NE(stream.rows, ZipfianQueryStream(5000, 100, 1.1, 10).rows);
  EXPECT_NE(stream.rows, ZipfianQueryStream(5000, 100, 0.5, 9).rows);

  // Skewed popularity: the head row dominates far beyond its uniform
  // share; at skew 0 it stays near 1/pool.
  auto head_count = [](const QueryStream& s) {
    int count = 0;
    for (int64_t row : s.rows) {
      count += row == 0 ? 1 : 0;
    }
    return count;
  };
  EXPECT_GT(head_count(stream), 500);  // Uniform share would be ~50.
  const QueryStream uniform = ZipfianQueryStream(5000, 100, 0.0, 9);
  EXPECT_LT(head_count(uniform), 150);
}

TEST(Workload, RepeatNeighborStreamIsSeededAndRepeats) {
  RepeatNeighborOptions options;
  options.repeat_probability = 0.8;
  options.window = 16;
  const QueryStream stream =
      RepeatNeighborQueryStream(2000, 500, options, 21);
  ASSERT_EQ(stream.rows.size(), 2000u);
  for (int64_t row : stream.rows) {
    EXPECT_GE(row, 0);
    EXPECT_LT(row, 500);
  }
  EXPECT_EQ(stream.rows,
            RepeatNeighborQueryStream(2000, 500, options, 21).rows);
  EXPECT_NE(stream.rows,
            RepeatNeighborQueryStream(2000, 500, options, 22).rows);
  // Repeats must actually repeat: most requests re-ask a recent row.
  int repeats = 0;
  for (size_t i = 1; i < stream.rows.size(); ++i) {
    const size_t window_start =
        i >= static_cast<size_t>(options.window)
            ? i - static_cast<size_t>(options.window)
            : 0;
    for (size_t j = window_start; j < i; ++j) {
      if (stream.rows[j] == stream.rows[i]) {
        ++repeats;
        break;
      }
    }
  }
  EXPECT_GT(repeats, 1400);  // ~80% of 2000, minus fresh collisions.

  // The repeat-only limit collapses the stream onto its first row.
  options.repeat_probability = 1.0;
  const QueryStream collapsed =
      RepeatNeighborQueryStream(200, 500, options, 23);
  for (int64_t row : collapsed.rows) {
    EXPECT_EQ(row, collapsed.rows.front());
  }
}

TEST(Workload, QueryStreamsRejectInvalidOptions) {
  EXPECT_THROW(ZipfianQueryStream(0, 100, 1.0, 0), ConfigError);
  EXPECT_THROW(ZipfianQueryStream(10, 0, 1.0, 0), ConfigError);
  EXPECT_THROW(ZipfianQueryStream(10, 100, -0.5, 0), ConfigError);
  RepeatNeighborOptions options;
  options.repeat_probability = 1.5;
  EXPECT_THROW(RepeatNeighborQueryStream(10, 100, options, 0),
               ConfigError);
  options = RepeatNeighborOptions{};
  options.window = 0;
  EXPECT_THROW(RepeatNeighborQueryStream(10, 100, options, 0),
               ConfigError);
  EXPECT_THROW(RepeatNeighborQueryStream(0, 100, RepeatNeighborOptions{},
                                         0),
               ConfigError);
}

TEST(Workload, RejectsInvalidOptionsAndFiles) {
  EXPECT_THROW(UniformTrace(0, 10.0), ConfigError);
  EXPECT_THROW(PoissonTrace(10, -1.0, 0), ConfigError);
  EXPECT_THROW(BurstTrace(0), ConfigError);

  MmppOptions mmpp;
  mmpp.burst_qps = 0.0;
  EXPECT_THROW(MmppTrace(10, mmpp, 0), ConfigError);
  mmpp = MmppOptions{};
  mmpp.mean_burst_seconds = -1.0;
  EXPECT_THROW(MmppTrace(10, mmpp, 0), ConfigError);

  DiurnalOptions diurnal;
  diurnal.amplitude = 1.0;  // Would make the trough rate zero.
  EXPECT_THROW(DiurnalTrace(10, diurnal, 0), ConfigError);
  diurnal = DiurnalOptions{};
  diurnal.period_seconds = 0.0;
  EXPECT_THROW(DiurnalTrace(10, diurnal, 0), ConfigError);

  EXPECT_THROW(LoadTrace("/nonexistent/rago.trace"), ConfigError);
  // A malformed header must be rejected, not parsed as arrivals.
  const std::string path = ::testing::TempDir() + "/rago_bad.trace";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("not-a-trace\n1.0\n", file);
  std::fclose(file);
  EXPECT_THROW(LoadTrace(path), ConfigError);
  // A lying (huge) header count must report ConfigError when the
  // arrivals run out, not die in a giant up-front allocation.
  file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("rago-trace v1 18446744073709551615\n0.5\n1.5\n", file);
  std::fclose(file);
  EXPECT_THROW(LoadTrace(path), ConfigError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Runtime option validation
// ---------------------------------------------------------------------------

TEST(RuntimeOptionsTest, RejectsInvalidKnobs) {
  RuntimeOptions options;
  options.admission_queue_limit = 0;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  options.batch_timeout = -0.001;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  options.top_k = 0;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  options.slo.ttft_seconds = 0.0;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = RuntimeOptions{};
  EXPECT_NO_THROW(options.Validate());
}

TEST(RuntimeOptionsTest, ConstructorRejectsBadConfigurations) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const LiveTier tier = MakeLiveTier();
  RuntimeOptions bad;
  bad.admission_queue_limit = -3;
  EXPECT_THROW(ServingRuntime(model, SimpleSchedule(model, 8, 8, 4, 64),
                              tier.index, bad),
               ConfigError);
  // Iterative schemas are the DES's SimulateIterativeDecode territory.
  const core::PipelineModel iterative(core::MakeIterativeSchema(8, 4),
                                      DefaultCluster());
  EXPECT_THROW(
      ServingRuntime(iterative, SimpleSchedule(iterative, 8, 8, 4, 64),
                     tier.index, RuntimeOptions{}),
      ConfigError);
}

// ---------------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------------

TEST(ServingRuntimeTest, ServesPoissonWorkloadEndToEnd) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  RuntimeOptions options;
  options.num_threads = 2;
  options.top_k = 5;
  const ServingRuntime runtime(model, schedule, tier.index, options);
  const RuntimeResult result =
      runtime.Serve(PoissonTrace(200, 100.0, 3), tier.queries);

  EXPECT_EQ(result.submitted, 200);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_EQ(result.completed, 200);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_EQ(result.ttft.count(), 200);
  EXPECT_GE(result.ttft.Percentile(0.99), result.ttft.Percentile(0.50));
  EXPECT_GT(result.tpot.Mean(), 0.0);

  // Stage telemetry: the retrieval stage ran real scans.
  ASSERT_EQ(result.stages.size(), 2u);  // retrieval, prefix.
  EXPECT_EQ(result.stages[0].type, core::StageType::kRetrieval);
  EXPECT_EQ(result.stages[0].requests, 200);
  EXPECT_GT(result.stages[0].batches, 0);
  EXPECT_GE(result.stages[0].batches, result.stages[0].full_batches);
  EXPECT_EQ(result.stages[0].queue_wait.count(), 200);
  for (const StageTelemetry& stage : result.stages) {
    EXPECT_GE(stage.utilization, 0.0);
    EXPECT_LE(stage.utilization, 1.01);
  }
  EXPECT_LE(result.decode_utilization, 1.01);

  // Real-scan accounting: every admitted request retrieved neighbors.
  const int qpr = model.schema().retrieval.queries_per_retrieval;
  EXPECT_EQ(result.real_queries_scanned, 200 * qpr);
  EXPECT_GT(result.real_scan_bytes, 0.0);
  for (const RequestOutcome& outcome : result.requests) {
    EXPECT_TRUE(outcome.admitted);
    EXPECT_GE(outcome.first_neighbor, 0);
    EXPECT_LT(outcome.first_neighbor,
              static_cast<int64_t>(tier.index.size()));
    EXPECT_GE(outcome.ttft, 0.0);
    EXPECT_GE(outcome.completion, outcome.arrival);
  }
}

TEST(ServingRuntimeTest, BoundedAdmissionShedsLoadAndScoresAgainstSlo) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 16);
  const LiveTier tier = MakeLiveTier();
  RuntimeOptions options;
  options.admission_queue_limit = 4;
  options.num_threads = 1;
  const ServingRuntime runtime(model, schedule, tier.index, options);
  const RuntimeResult result =
      runtime.Serve(BurstTrace(64), tier.queries);

  EXPECT_GT(result.rejected, 0);
  EXPECT_EQ(result.admitted + result.rejected, 64);
  EXPECT_EQ(result.completed, result.admitted);
  // Rejected requests count as SLO violations by construction.
  EXPECT_LT(result.slo_attainment, 1.0);
  for (const RequestOutcome& outcome : result.requests) {
    if (!outcome.admitted) {
      EXPECT_LT(outcome.ttft, 0.0);
      EXPECT_EQ(outcome.first_neighbor, -1);
    }
  }
}

TEST(ServingRuntimeTest, DeterministicAcrossThreadCounts) {
  // The PR-3 contract extended to the runtime: a fixed seed must give
  // bit-identical request outcomes, digests, and percentile telemetry
  // for every worker-pool size, with real scans in the loop.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier(serving::ShardBackend::kIvf);
  const ArrivalTrace trace = PoissonTrace(150, 120.0, 17);

  std::vector<RuntimeResult> results;
  for (int threads : {1, 2, 8}) {
    RuntimeOptions options;
    options.num_threads = threads;
    options.top_k = 5;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    results.push_back(runtime.Serve(trace, tier.queries));
  }
  const RuntimeResult& base = results.front();
  for (size_t i = 1; i < results.size(); ++i) {
    const RuntimeResult& other = results[i];
    EXPECT_EQ(base.outcome_digest, other.outcome_digest);
    EXPECT_EQ(base.completed, other.completed);
    EXPECT_EQ(base.makespan, other.makespan);
    EXPECT_EQ(base.throughput, other.throughput);
    EXPECT_EQ(base.slo_attainment, other.slo_attainment);
    for (double p : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(base.ttft.Percentile(p), other.ttft.Percentile(p));
      EXPECT_EQ(base.tpot.Percentile(p), other.tpot.Percentile(p));
      EXPECT_EQ(base.queue_wait.Percentile(p),
                other.queue_wait.Percentile(p));
    }
    EXPECT_EQ(base.ttft.Mean(), other.ttft.Mean());
    ASSERT_EQ(base.requests.size(), other.requests.size());
    for (size_t r = 0; r < base.requests.size(); ++r) {
      EXPECT_EQ(base.requests[r].first_neighbor,
                other.requests[r].first_neighbor);
      EXPECT_EQ(base.requests[r].ttft, other.requests[r].ttft);
      EXPECT_EQ(base.requests[r].completion,
                other.requests[r].completion);
    }
    ASSERT_EQ(base.stages.size(), other.stages.size());
    for (size_t s = 0; s < base.stages.size(); ++s) {
      EXPECT_EQ(base.stages[s].batches, other.stages[s].batches);
      EXPECT_EQ(base.stages[s].busy_seconds,
                other.stages[s].busy_seconds);
      EXPECT_EQ(base.stages[s].queue_wait.Percentile(0.95),
                other.stages[s].queue_wait.Percentile(0.95));
    }
  }
}

TEST(ServingRuntimeTest, ObservabilityIsDigestNeutralAcrossThreadCounts) {
  // Attaching the trace recorder and the metrics registry must not
  // change a single RuntimeResult field: observation is append-only
  // from the serial event loop. Pinned against the untraced run for
  // every worker-pool size.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier(serving::ShardBackend::kIvf);
  const ArrivalTrace trace = PoissonTrace(150, 120.0, 17);

  RuntimeOptions plain_options;
  plain_options.top_k = 5;
  const RuntimeResult plain =
      ServingRuntime(model, schedule, tier.index, plain_options)
          .Serve(trace, tier.queries);

  for (int threads : {1, 2, 8}) {
    obs::TraceRecorder recorder;
    MetricsRegistry metrics;
    RuntimeOptions options;
    options.num_threads = threads;
    options.top_k = 5;
    options.trace = &recorder;
    options.metrics = &metrics;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    const RuntimeResult traced = runtime.Serve(trace, tier.queries);

    // Observation actually happened...
    EXPECT_GT(recorder.size(), 0u) << "threads " << threads;
    EXPECT_GT(metrics.size(), 0u);
    ASSERT_NE(metrics.FindCounter("runtime.requests_completed"), nullptr);
    EXPECT_EQ(metrics.FindCounter("runtime.requests_completed")->value(),
              plain.completed);

    // ...and changed nothing.
    EXPECT_EQ(traced.outcome_digest, plain.outcome_digest)
        << "threads " << threads;
    EXPECT_EQ(traced.submitted, plain.submitted);
    EXPECT_EQ(traced.admitted, plain.admitted);
    EXPECT_EQ(traced.rejected, plain.rejected);
    EXPECT_EQ(traced.completed, plain.completed);
    EXPECT_EQ(traced.makespan, plain.makespan);
    EXPECT_EQ(traced.throughput, plain.throughput);
    EXPECT_EQ(traced.slo_attainment, plain.slo_attainment);
    EXPECT_EQ(traced.decode_utilization, plain.decode_utilization);
    EXPECT_EQ(traced.max_decode_queue_depth, plain.max_decode_queue_depth);
    EXPECT_EQ(traced.measured_prefix_hit_rate,
              plain.measured_prefix_hit_rate);
    for (double p : {0.5, 0.95, 0.99}) {
      EXPECT_EQ(traced.ttft.Percentile(p), plain.ttft.Percentile(p));
      EXPECT_EQ(traced.tpot.Percentile(p), plain.tpot.Percentile(p));
      EXPECT_EQ(traced.queue_wait.Percentile(p),
                plain.queue_wait.Percentile(p));
    }
    ASSERT_EQ(traced.requests.size(), plain.requests.size());
    for (size_t r = 0; r < plain.requests.size(); ++r) {
      EXPECT_EQ(traced.requests[r].first_neighbor,
                plain.requests[r].first_neighbor);
      EXPECT_EQ(traced.requests[r].ttft, plain.requests[r].ttft);
      EXPECT_EQ(traced.requests[r].completion,
                plain.requests[r].completion);
    }
    ASSERT_EQ(traced.stages.size(), plain.stages.size());
    for (size_t s = 0; s < plain.stages.size(); ++s) {
      EXPECT_EQ(traced.stages[s].batches, plain.stages[s].batches);
      EXPECT_EQ(traced.stages[s].busy_seconds,
                plain.stages[s].busy_seconds);
      EXPECT_EQ(traced.stages[s].max_queue_depth,
                plain.stages[s].max_queue_depth);
    }

    // The trace itself is also thread-count invariant on the virtual
    // clock: same spans, same timestamps, for every pool size. The
    // request summary is the deterministic view — the Chrome export
    // additionally carries the measured real_scan_wall_s arg, which
    // is wall-clock and legitimately varies run to run.
    obs::TraceRecorder base_recorder;
    RuntimeOptions base_options = options;
    base_options.num_threads = 1;
    base_options.trace = &base_recorder;
    base_options.metrics = nullptr;
    ServingRuntime(model, schedule, tier.index, base_options)
        .Serve(trace, tier.queries);
    EXPECT_EQ(recorder.RequestSummaryJson(),
              base_recorder.RequestSummaryJson());
    EXPECT_EQ(recorder.size(), base_recorder.size());
  }
}

TEST(ServingRuntimeTest, TracksServingDesAcrossOptimizerPoints) {
  // The DES is the runtime's engine without real scans, and both price
  // retrieval from the model. So with caches off and admission
  // unbounded the two agree bit for bit, at every frontier point, load
  // and flush timeout: any difference is a bug, not model error.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  opt::SearchOptions search = rago::testing::SmallSearchGrid();
  search.num_threads = 2;
  const opt::OptimizerResult frontier =
      opt::Optimizer(model, search).Search();
  ASSERT_FALSE(frontier.pareto.empty());
  const LiveTier tier = MakeLiveTier();

  size_t runs = 0;
  for (const opt::ScheduledPoint& point : frontier.pareto) {
    for (double load : {0.3, 0.6, 1.2}) {
      const ArrivalTrace trace =
          PoissonTrace(400, point.perf.qps * load, 23);
      for (double timeout : {0.005, 0.050}) {
        sim::ServingSimOptions sim_options;
        sim_options.batch_timeout = timeout;
        const sim::ServingSimResult des =
            sim::SimulateServing(model, point.schedule, trace, sim_options);
        RuntimeOptions options;
        options.admission_queue_limit = 1 << 20;  // Effectively unbounded.
        options.batch_timeout = timeout;
        options.num_threads = 2;
        const RuntimeResult live =
            ServingRuntime(model, point.schedule, tier.index, options)
                .Serve(trace, tier.queries);

        EXPECT_EQ(live.completed, des.completed);
        EXPECT_EQ(live.throughput, des.throughput);
        EXPECT_EQ(live.makespan, des.makespan);
        EXPECT_EQ(live.ttft.Mean(), des.avg_ttft);
        EXPECT_EQ(live.ttft.Percentile(0.99), des.p99_ttft);
        EXPECT_EQ(live.tpot.Mean(), des.avg_tpot);
        EXPECT_EQ(live.decode_utilization, des.decode_utilization);
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, frontier.pareto.size() * 6);
}

TEST(ServingRuntimeTest, FlushDeadlinesStayLinearUnderBurstsOnACollocatedServer) {
  // Bursty MMPP traffic at the default 50 ms timeout, a Zipf query
  // stream over both cache levels, and all four chain stages of the
  // rewriter-reranker pipeline collocated on one XPU group, so several
  // stages wait with partial batches whenever that server is idle.
  // Each idle-server pass re-arms their flush deadlines; unless an
  // equal deadline is skipped, re-armed twins multiply without bound.
  const core::PipelineModel model(rago::testing::TinyRewriterRerankerSchema(),
                                  DefaultCluster());
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 8, 64);
  const core::EndToEndPerf perf = model.Evaluate(schedule);
  ASSERT_TRUE(perf.feasible);
  const LiveTier tier = MakeLiveTier();
  MmppOptions mmpp;
  mmpp.quiet_qps = perf.qps * 0.4;
  mmpp.burst_qps = perf.qps * 2.0;
  mmpp.mean_quiet_seconds = 0.5;
  mmpp.mean_burst_seconds = 0.2;
  const ArrivalTrace trace = MmppTrace(600, mmpp, 3);

  RuntimeOptions options;
  options.num_threads = 1;
  options.top_k = 5;
  options.cache.retrieval_capacity = 16;
  options.cache.doc_capacity = 256;
  ASSERT_EQ(options.batch_timeout, 0.050);
  const RuntimeResult result =
      ServingRuntime(model, schedule, tier.index, options)
          .Serve(trace, tier.queries,
                 ZipfianQueryStream(600, tier.queries.rows(), 1.0, 9));
  ASSERT_EQ(result.completed, result.admitted);
  EXPECT_GT(result.retrieval_cache.hits, 0);

  // Every popped event is one of:
  //  - an arrival: one per submitted request;
  //  - a batch completion: one per batch;
  //  - a cache-hit delivery: one per retrieval-cache hit;
  //  - a decode step: steps run back to back, each occupying the pool
  //    for one step latency, so decode busy time / step latency (plus
  //    one for rounding);
  //  - a flush deadline, armed at most once per (stage, time). A
  //    stage's deadline time changes only when its queue turns
  //    non-empty or a batch starts: at most requests + batches.
  const core::StagePerf decode =
      model.EvalDecode(schedule.decode_chips, schedule.decode_batch);
  const double step_latency =
      static_cast<double>(schedule.decode_batch) /
      (decode.throughput * model.schema().workload.decode_tokens);
  int64_t bound = result.submitted + result.retrieval_cache.hits + 1 +
                  std::llround(result.decode_utilization * result.makespan /
                               step_latency);
  for (const StageTelemetry& stage : result.stages) {
    bound += stage.batches + stage.requests + stage.batches;
  }
  EXPECT_GT(result.events_processed, result.submitted);
  EXPECT_LE(result.events_processed, bound);
}

TEST(ServingRuntimeTest, SloAttainmentMonotoneUnderRisingLoad) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const core::EndToEndPerf perf = model.Evaluate(schedule);
  ASSERT_TRUE(perf.feasible);
  const LiveTier tier = MakeLiveTier();

  RuntimeOptions options;
  options.num_threads = 1;
  // SLO placed between the unloaded and the saturated operating
  // points, so attainment must degrade as queues build. The light-load
  // TTFT includes up to one batch-forming timeout per pre-decode
  // stage, so the target budgets for those on top of the batch-flow
  // latency.
  options.batch_timeout = 0.005;
  options.slo.ttft_seconds = perf.ttft * 3.0 + 3 * options.batch_timeout;
  options.slo.tpot_seconds = perf.tpot * 3.0;
  options.admission_queue_limit = 64;
  const ServingRuntime runtime(model, schedule, tier.index, options);

  std::vector<double> attainment;
  for (double load : {0.3, 1.2, 4.0}) {
    const RuntimeResult result = runtime.Serve(
        PoissonTrace(300, perf.qps * load, 29), tier.queries);
    attainment.push_back(result.slo_attainment);
  }
  EXPECT_GT(attainment[0], 0.9);  // Light load comfortably meets SLO.
  // Monotone non-increasing (tiny tolerance for Poisson luck).
  EXPECT_GE(attainment[0] + 0.02, attainment[1]);
  EXPECT_GE(attainment[1] + 0.02, attainment[2]);
  EXPECT_LT(attainment[2], attainment[0]);
}

TEST(ServingRuntimeTest, RetrievalModelOverridePricesVirtualTime) {
  // Swapping in a pluggable retrieval model must change the virtual
  // timing (like the DES) while the scans keep returning real ids.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();

  retrieval::MeasuredScanProfile profile;
  profile.bytes_per_query_per_server = 64.0 * kMiB;
  profile.scan_bytes_per_core = 2.0 * kGiB;
  profile.merge_seconds_per_query = 1e-5;
  const retrieval::MeasuredRetrievalModel slow(
      profile, DefaultCpuServer(), schedule.retrieval_servers);

  RuntimeOptions options;
  options.num_threads = 1;
  const ServingRuntime baseline(model, schedule, tier.index, options);
  options.retrieval_model = &slow;
  const ServingRuntime priced(model, schedule, tier.index, options);

  const ArrivalTrace trace = PoissonTrace(60, 40.0, 31);
  const RuntimeResult fast_result = baseline.Serve(trace, tier.queries);
  const RuntimeResult slow_result = priced.Serve(trace, tier.queries);
  EXPECT_GT(slow_result.ttft.Mean(), fast_result.ttft.Mean());
  ASSERT_EQ(fast_result.requests.size(), slow_result.requests.size());
  for (size_t r = 0; r < fast_result.requests.size(); ++r) {
    EXPECT_EQ(fast_result.requests[r].first_neighbor,
              slow_result.requests[r].first_neighbor);
  }
}

TEST(ServingRuntimeTest, FullTelemetryLayerIsThreadInvariantAndNeutral) {
  // The whole observation stack at once — windowed ladder, burn-rate
  // alerting, flight recorder, sampled tracing — attached for every
  // worker-pool size: the outcome digest must equal the unobserved
  // run's, and every serialized observation surface must be
  // byte-identical across pool sizes.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier(serving::ShardBackend::kIvf);
  const ArrivalTrace trace = PoissonTrace(150, 120.0, 17);

  RuntimeOptions plain_options;
  plain_options.top_k = 5;
  const uint64_t plain_digest =
      ServingRuntime(model, schedule, tier.index, plain_options)
          .Serve(trace, tier.queries)
          .outcome_digest;

  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.1;
  ts_options.windows_per_level = 4;  // Small: force folds.
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  alert_options.rules.back().short_window_seconds = 0.2;
  alert_options.rules.back().long_window_seconds = 0.6;
  obs::TraceSamplingOptions sampling;
  sampling.head_rate = 0.25;
  sampling.tail_keep = 4;
  sampling.seed = 11;

  std::vector<std::string> series_jsons;
  std::vector<std::string> alert_jsons;
  std::vector<std::string> summary_jsons;
  for (int threads : {1, 2, 8}) {
    obs::TelemetryTimeSeries series(ts_options);
    obs::SloAlertEngine alerts(alert_options);
    obs::FlightRecorder flight(64);
    obs::TraceRecorder recorder;
    recorder.SetSampling(sampling);

    RuntimeOptions options;
    options.num_threads = threads;
    options.top_k = 5;
    options.timeseries = &series;
    options.alerts = &alerts;
    options.flight = &flight;
    options.trace = &recorder;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    const RuntimeResult result = runtime.Serve(trace, tier.queries);

    EXPECT_EQ(result.outcome_digest, plain_digest) << threads;
    EXPECT_GT(series.windows_closed(), 0) << threads;
    EXPECT_EQ(recorder.finalized_requests(), 150) << threads;
    EXPECT_EQ(recorder.pending_requests(), 0u) << threads;
    EXPECT_GT(flight.appended(), 0) << threads;
    series_jsons.push_back(series.Json());
    alert_jsons.push_back(alerts.Json());
    summary_jsons.push_back(recorder.RequestSummaryJson());
  }
  for (size_t i = 1; i < series_jsons.size(); ++i) {
    EXPECT_EQ(series_jsons[i], series_jsons[0]);
    EXPECT_EQ(alert_jsons[i], alert_jsons[0]);
    EXPECT_EQ(summary_jsons[i], summary_jsons[0]);
  }
}

TEST(ServingRuntimeTest, FiringAlertsLeaveTheDigestUnchanged) {
  // Overload + an unmeetable SLO so the page rule definitely fires.
  // Transitions are observation-only: the digest matches the
  // unobserved run for every pool size.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 16);
  const LiveTier tier = MakeLiveTier();
  const ArrivalTrace trace = BurstTrace(64);

  RuntimeOptions base;
  base.admission_queue_limit = 4;
  base.slo.ttft_seconds = 1e-9;
  const uint64_t plain_digest =
      ServingRuntime(model, schedule, tier.index, base)
          .Serve(trace, tier.queries)
          .outcome_digest;

  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.05;
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  alert_options.rules.back().short_window_seconds = 0.1;
  alert_options.rules.back().long_window_seconds = 0.3;

  for (int threads : {1, 2, 8}) {
    obs::TelemetryTimeSeries series(ts_options);
    obs::SloAlertEngine alerts(alert_options);
    RuntimeOptions options = base;
    options.num_threads = threads;
    options.timeseries = &series;
    options.alerts = &alerts;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    const RuntimeResult result = runtime.Serve(trace, tier.queries);

    ASSERT_FALSE(alerts.transitions().empty());
    EXPECT_EQ(result.outcome_digest, plain_digest) << threads;
  }
}

TEST(ServingRuntimeTest, AlertsWithoutTimeseriesAreRejected) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 16);
  const LiveTier tier = MakeLiveTier();
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  obs::SloAlertEngine alerts(alert_options);
  RuntimeOptions options;
  options.alerts = &alerts;  // No timeseries feeding it.
  EXPECT_THROW(ServingRuntime(model, schedule, tier.index, options)
                   .Serve(BurstTrace(4), tier.queries),
               ConfigError);
}

TEST(ServingRuntimeTest, FailedFlightDumpKeepsTheUnwindingException) {
  // The abort guard dumps the flight ring while the hook's exception
  // unwinds the loop. A dump that throws as well must be dropped, not
  // terminate the process, and the hook's exception must propagate.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  struct ScanFailure : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  const RetrievalHook failing_scan =
      [](const std::vector<int>&, RuntimeResult&) -> std::vector<Retrieved> {
    throw ScanFailure("scan failed");
  };
  obs::FlightRecorder flight(16);
  RuntimeOptions options;
  options.flight = &flight;
  options.flight_dump_path = "no_such_directory/flight.json";
  EXPECT_THROW(RunServingEngine(model, schedule, options,
                                PoissonTrace(16, 100.0, 5), "run",
                                failing_scan),
               ScanFailure);
  ASSERT_GT(flight.size(), 0u);
  EXPECT_EQ(flight.records().back().kind, "exception");
}

/// Stage name of a counter track ("queue-depth: retrieval s0" ->
/// "retrieval").
std::string CounterStage(const std::string& track) {
  const size_t colon = track.find(": ");
  const size_t index = track.rfind(" s");
  EXPECT_NE(colon, std::string::npos) << track;
  EXPECT_NE(index, std::string::npos) << track;
  return track.substr(colon + 2, index - colon - 2);
}

/// Counter events per stage name, both tracks together.
std::map<std::string, int64_t> CounterEventsByStage(
    const obs::TraceRecorder& recorder) {
  std::map<std::string, int64_t> counts;
  for (const obs::TraceEvent& event : recorder.events()) {
    if (event.phase != obs::TraceEvent::Phase::kCounter) {
      continue;
    }
    EXPECT_TRUE(event.name.rfind("queue-depth: ", 0) == 0 ||
                event.name.rfind("utilization: ", 0) == 0)
        << "unexpected counter track: " << event.name;
    EXPECT_GE(event.args.at(0).second, 0.0);
    ++counts[CounterStage(event.name)];
  }
  return counts;
}

/// One queue-depth and one utilization sample per enqueue and per
/// batch start, for the first 4096 of each stage.
int64_t ExpectedCounterEvents(int64_t requests, int64_t batches) {
  return 2 * std::min<int64_t>(requests + batches, 4096);
}

TEST(ServingRuntimeTest, CounterTracksSampleEveryEnqueueAndBatchStart) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  obs::TraceRecorder recorder;
  RuntimeOptions options;
  options.trace = &recorder;
  const ServingRuntime runtime(model, schedule, tier.index, options);
  const RuntimeResult result =
      runtime.Serve(PoissonTrace(40, 100.0, 7), tier.queries);

  const std::map<std::string, int64_t> counts =
      CounterEventsByStage(recorder);
  ASSERT_EQ(counts.size(), result.stages.size());
  for (const StageTelemetry& telemetry : result.stages) {
    const std::string name = core::StageName(telemetry.type);
    ASSERT_GT(telemetry.requests, 0) << name;
    EXPECT_EQ(counts.at(name),
              ExpectedCounterEvents(telemetry.requests, telemetry.batches))
        << name;
  }
}

TEST(ServingRuntimeTest, DesCounterTracksStopAtThePerStageCap) {
  // 4000 requests in batches of at most 4: every stage records more
  // than 4096 enqueues plus batch starts. Requests and batches per
  // stage are read back from the server-row batch spans.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  obs::TraceRecorder recorder;
  RuntimeOptions options = sim::DesEngineOptions({});
  options.trace = &recorder;
  RunServingEngine(model, schedule, options, PoissonTrace(4000, 200.0, 19),
                   "sim");

  std::map<std::string, int64_t> requests;
  std::map<std::string, int64_t> batches;
  for (const obs::TraceEvent& event : recorder.events()) {
    if (event.pid == 0 && !event.args.empty() &&
        event.args.front().first == "batch") {
      const std::string stage = event.name.substr(0, event.name.rfind(" x"));
      requests[stage] += static_cast<int64_t>(event.args.front().second);
      ++batches[stage];
    }
  }
  const std::map<std::string, int64_t> counts =
      CounterEventsByStage(recorder);
  ASSERT_EQ(counts.size(), batches.size());
  bool capped = false;
  for (const auto& [stage, count] : batches) {
    EXPECT_EQ(requests.at(stage), 4000) << stage;
    capped = capped || requests.at(stage) + count > 4096;
    EXPECT_EQ(counts.at(stage),
              ExpectedCounterEvents(requests.at(stage), count))
        << stage;
  }
  EXPECT_TRUE(capped);
}

// ---------------------------------------------------------------------------
// Trace content pins
// ---------------------------------------------------------------------------

/// Canonical text of a parsed JSON value: numbers as their double bit
/// patterns, object members in document order, minus any member named
/// `skip_key` (at any depth).
void CanonicalJson(const JsonValue& value, const std::string& skip_key,
                   std::string& out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += value.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber: {
      const double number = value.AsNumber();
      uint64_t bits = 0;
      std::memcpy(&bits, &number, sizeof(bits));
      out += "#" + std::to_string(bits);
      break;
    }
    case JsonValue::Type::kString:
      out += "\"" + value.AsString() + "\"";
      break;
    case JsonValue::Type::kArray:
      out += "[";
      for (const JsonValue& item : value.Items()) {
        CanonicalJson(item, skip_key, out);
        out += ",";
      }
      out += "]";
      break;
    case JsonValue::Type::kObject:
      out += "{";
      for (const auto& [key, member] : value.Members()) {
        if (key == skip_key) {
          continue;
        }
        out += "\"" + key + "\":";
        CanonicalJson(member, skip_key, out);
        out += ",";
      }
      out += "}";
      break;
  }
}

uint64_t FnvString(uint64_t hash, const std::string& text) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  // Length terminator: concatenations of different splits differ.
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (text.size() >> (byte * 8)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Digests of one Chrome trace export.
struct TraceDigests {
  uint64_t metadata = 0;  ///< Metadata ("M") events, in emitted order.
  uint64_t events = 0;    ///< Sorted multiset of every other event.
  size_t metadata_count = 0;
  size_t event_count = 0;
};

/// Digests `recorder`'s Chrome export. The multiset digest ignores
/// where an event sits in the stream; `real_scan_wall_s` (host wall
/// time) is left out of the canonical form.
TraceDigests DigestChromeTrace(const obs::TraceRecorder& recorder) {
  constexpr uint64_t kOffset = 14695981039346656037ull;
  const JsonValue doc = JsonValue::Parse(recorder.ChromeTraceJson());
  TraceDigests digests;
  digests.metadata = kOffset;
  std::vector<std::string> events;
  for (const JsonValue& event : doc.At("traceEvents").Items()) {
    std::string text;
    CanonicalJson(event, "real_scan_wall_s", text);
    if (event.At("ph").AsString() == "M") {
      digests.metadata = FnvString(digests.metadata, text);
      ++digests.metadata_count;
    } else {
      events.push_back(std::move(text));
    }
  }
  std::sort(events.begin(), events.end());
  digests.events = kOffset;
  for (const std::string& text : events) {
    digests.events = FnvString(digests.events, text);
  }
  digests.event_count = events.size();
  return digests;
}

TEST(EngineTraceDigest, UnsampledDesTraceIsPinned) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  obs::TraceRecorder recorder;
  RuntimeOptions options = sim::DesEngineOptions({});
  options.trace = &recorder;
  RunServingEngine(model, schedule, options, PoissonTrace(120, 150.0, 23),
                   "sim");

  const TraceDigests digests = DigestChromeTrace(recorder);
  EXPECT_EQ(digests.metadata_count, 125u);
  EXPECT_EQ(digests.event_count, 3043u);
  EXPECT_EQ(digests.metadata, 0x42ece5092f2b05a5ull);
  EXPECT_EQ(digests.events, 0xa5bccb3958b387d8ull);
}

TEST(EngineTraceDigest, SampledRuntimeTraceWithEverySinkIsPinned) {
  // Bursty traffic over both cache levels, bounded admission, and the
  // whole sink stack with the sampling policy of the rag_hot
  // benchmark workload (head_rate 0.02, tail_keep 32).
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const int requests = 400;
  MmppOptions mmpp;
  mmpp.quiet_qps = 60.0;
  mmpp.burst_qps = 3000.0;
  mmpp.mean_quiet_seconds = 0.2;
  mmpp.mean_burst_seconds = 0.1;
  const ArrivalTrace trace = MmppTrace(requests, mmpp, 29);
  const QueryStream stream = ZipfianQueryStream(
      requests, static_cast<int64_t>(tier.queries.rows()), 1.0, 31);

  obs::TraceRecorder recorder;
  obs::TraceSamplingOptions sampling;
  sampling.head_rate = 0.02;
  sampling.tail_keep = 32;
  sampling.seed = 3;
  recorder.SetSampling(sampling);
  MetricsRegistry metrics;
  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.1;
  ts_options.windows_per_level = 8;
  obs::TelemetryTimeSeries series(ts_options);
  obs::SloAlertOptions alert_options;
  alert_options.rules.push_back({});
  alert_options.rules.back().short_window_seconds = 0.2;
  alert_options.rules.back().long_window_seconds = 0.6;
  obs::SloAlertEngine alerts(alert_options);
  obs::FlightRecorder flight(64);

  RuntimeOptions options;
  options.num_threads = 1;
  options.top_k = 5;
  options.admission_queue_limit = 12;
  options.batch_timeout = 0.005;
  options.slo.ttft_seconds = 0.2;
  options.cache.retrieval_capacity = 16;
  options.cache.doc_capacity = 256;
  options.trace = &recorder;
  options.metrics = &metrics;
  options.timeseries = &series;
  options.alerts = &alerts;
  options.flight = &flight;
  const RuntimeResult result =
      ServingRuntime(model, schedule, tier.index, options)
          .Serve(trace, tier.queries, stream);
  ASSERT_GT(result.rejected, 0);
  ASSERT_GT(result.retrieval_cache.hits, 0);
  ASSERT_GT(recorder.discarded_requests(), 0);

  const TraceDigests digests = DigestChromeTrace(recorder);
  EXPECT_EQ(digests.metadata_count, 46u);
  EXPECT_EQ(digests.event_count, 1197u);
  EXPECT_EQ(digests.metadata, 0xf67ebd993169b61bull);
  EXPECT_EQ(digests.events, 0x3b82413e0aa8ab42ull);
}

TEST(EngineTraceDigest, TimeSeriesAndMetricsJsonArePinned) {
  // Bursty traffic under bounded admission fills the windows' and the
  // registry's streaming histograms across many bins, so these bytes
  // pin the histogram binning as well as both exports' layout.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  MmppOptions mmpp;
  mmpp.quiet_qps = 60.0;
  mmpp.burst_qps = 3000.0;
  mmpp.mean_quiet_seconds = 0.2;
  mmpp.mean_burst_seconds = 0.1;
  MetricsRegistry metrics;
  obs::TimeSeriesOptions ts_options;
  ts_options.window_seconds = 0.1;
  ts_options.windows_per_level = 8;
  obs::TelemetryTimeSeries series(ts_options);

  RuntimeOptions options;
  options.admission_queue_limit = 12;
  options.slo.ttft_seconds = 0.2;
  options.metrics = &metrics;
  options.timeseries = &series;
  const RuntimeResult result = RunServingEngine(
      model, schedule, options, MmppTrace(400, mmpp, 29), "run");
  ASSERT_GT(result.rejected, 0);

  constexpr uint64_t kOffset = 14695981039346656037ull;
  JsonWriter metrics_json;
  metrics.WriteJson(metrics_json);
  EXPECT_EQ(FnvString(kOffset, series.Json()), 0x084a94b5d3700df0ull);
  EXPECT_EQ(FnvString(kOffset, metrics_json.str()), 0xc2912412e3f3e204ull);
}

}  // namespace
}  // namespace rago::runtime
