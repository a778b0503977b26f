/**
 * @file test_pipeline_model.cc
 * Tests for the end-to-end pipeline performance model: per-stage
 * costs, schedule evaluation, breakdown shapes matching the paper's
 * characterization (§5), and burst TTFT behavior.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

#include "common/check.h"
#include "common/fnv.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "retrieval/perf/bruteforce_model.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/perf/scann_model.h"
#include "tests/testing/test_support.h"

namespace rago::core {
namespace {

Schedule SimpleSchedule(const PipelineModel& model, int group_chips,
                        int decode_chips, int64_t batch) {
  Schedule schedule;
  schedule.chain_group.assign(model.chain().size(), 0);
  schedule.group_chips = {group_chips};
  schedule.chain_batch.assign(model.chain().size(), batch);
  schedule.decode_chips = decode_chips;
  schedule.decode_batch = batch;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = batch;
  return schedule;
}

std::map<StageType, double> Fractions(const PipelineModel& model) {
  std::map<StageType, double> out;
  for (const StageShare& share : model.TimeBreakdown()) {
    out[share.stage] = share.fraction;
  }
  return out;
}

TEST(PipelineModel, RetrievalDominatesSmallModelCaseOne) {
  // Paper §5.1: hyperscale retrieval is the bottleneck for small LLMs
  // (>50% of resource-time) but not for 70B-class models.
  const PipelineModel small(MakeHyperscaleSchema(8, 1), DefaultCluster());
  const auto f8 = Fractions(small);
  EXPECT_GT(f8.at(StageType::kRetrieval), 0.5);

  const PipelineModel large(MakeHyperscaleSchema(70, 1), DefaultCluster());
  const auto f70 = Fractions(large);
  EXPECT_LT(f70.at(StageType::kRetrieval), 0.3);
  EXPECT_GT(f70.at(StageType::kPrefix), f70.at(StageType::kRetrieval));
}

TEST(PipelineModel, MultiQueryRetrievalShiftsBottleneck) {
  // Paper Fig. 6d: at 8 queries/retrieval even the 70B pipeline
  // becomes retrieval-heavy.
  const PipelineModel one(MakeHyperscaleSchema(70, 1), DefaultCluster());
  const PipelineModel eight(MakeHyperscaleSchema(70, 8), DefaultCluster());
  EXPECT_GT(Fractions(eight).at(StageType::kRetrieval),
            2.5 * Fractions(one).at(StageType::kRetrieval));
  EXPECT_GT(Fractions(eight).at(StageType::kRetrieval), 0.45);
}

TEST(PipelineModel, EncoderDominatesLongContext) {
  // Paper §5.2: the 120M encoder becomes the bottleneck at >=1M-token
  // contexts while retrieval is negligible (<1%).
  const PipelineModel model(MakeLongContextSchema(70, 1'000'000),
                            DefaultCluster());
  const auto f = Fractions(model);
  EXPECT_GT(f.at(StageType::kDatabaseEncode), 0.5);
  EXPECT_LT(f.at(StageType::kRetrieval), 0.01);
}

TEST(PipelineModel, EncoderShareGrowsWithContext) {
  const PipelineModel short_ctx(MakeLongContextSchema(70, 100'000),
                                DefaultCluster());
  const PipelineModel long_ctx(MakeLongContextSchema(70, 10'000'000),
                               DefaultCluster());
  EXPECT_LT(Fractions(short_ctx).at(StageType::kDatabaseEncode),
            Fractions(long_ctx).at(StageType::kDatabaseEncode));
  EXPECT_GT(Fractions(long_ctx).at(StageType::kDatabaseEncode), 0.85);
}

TEST(PipelineModel, RewriterAndRerankerNegligibleInBreakdown) {
  // Paper Fig. 11: rewriter/reranker contribute negligible time.
  const PipelineModel model(MakeRewriterRerankerSchema(70),
                            DefaultCluster());
  const auto f = Fractions(model);
  EXPECT_LT(f.at(StageType::kRewritePrefix), 0.02);
  EXPECT_LT(f.at(StageType::kRewriteDecode), 0.05);
  EXPECT_LT(f.at(StageType::kRerank), 0.02);
}

TEST(PipelineModel, RewriterInflatesTtftSubstantially) {
  // Paper §5.4: the autoregressive rewriter inflates TTFT by ~2.4x.
  const PipelineModel with(MakeRewriterRerankerSchema(70),
                           DefaultCluster());
  const PipelineModel without(MakeHyperscaleSchema(70, 1),
                              DefaultCluster());
  Schedule sw = SimpleSchedule(with, 16, 16, 1);
  Schedule so = SimpleSchedule(without, 16, 16, 1);
  const EndToEndPerf pw = with.Evaluate(sw);
  const EndToEndPerf po = without.Evaluate(so);
  ASSERT_TRUE(pw.feasible && po.feasible);
  EXPECT_GT(pw.ttft / po.ttft, 1.5);
  EXPECT_LT(pw.ttft / po.ttft, 5.0);
}

TEST(PipelineModel, BreakdownFractionsSumToOne) {
  for (int size : {1, 8, 70}) {
    const PipelineModel model(MakeHyperscaleSchema(size, 1),
                              DefaultCluster());
    double total = 0.0;
    for (const StageShare& share : model.TimeBreakdown()) {
      EXPECT_GE(share.fraction, 0.0);
      total += share.fraction;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(PipelineModel, EvaluateTtftIsSumOfStageAndRetrievalLatency) {
  const PipelineModel model(MakeHyperscaleSchema(8, 1), DefaultCluster());
  const Schedule schedule = SimpleSchedule(model, 8, 8, 1);
  const EndToEndPerf perf = model.Evaluate(schedule);
  ASSERT_TRUE(perf.feasible);
  const StagePerf prefix = model.EvalChainStage(StageType::kPrefix, 8, 1);
  const StagePerf retrieval =
      model.EvalRetrieval(1, schedule.retrieval_servers);
  EXPECT_NEAR(perf.ttft, prefix.latency + retrieval.latency, 1e-12);
}

TEST(PipelineModel, QpsIsMinOfStageThroughputs) {
  const PipelineModel model(MakeHyperscaleSchema(8, 1), DefaultCluster());
  const Schedule schedule = SimpleSchedule(model, 8, 8, 64);
  const EndToEndPerf perf = model.Evaluate(schedule);
  ASSERT_TRUE(perf.feasible);
  const StagePerf prefix = model.EvalChainStage(StageType::kPrefix, 8, 64);
  const StagePerf retrieval =
      model.EvalRetrieval(64, schedule.retrieval_servers);
  const StagePerf decode = model.EvalDecode(8, 64);
  const double expected = std::min(
      {prefix.throughput, retrieval.throughput, decode.throughput});
  RAGO_EXPECT_REL_NEAR(perf.qps, expected, 1e-9);
}

TEST(PipelineModel, ChipEquivalentsReserveRetrievalHosts) {
  // Hyperscale retrieval reserves whole database hosts (4 XPUs each);
  // allocating fewer XPUs than ride on those hosts doesn't shrink the
  // footprint, and allocating more grows it. Brute-force per-request
  // databases reserve nothing extra.
  const PipelineModel hyper(MakeHyperscaleSchema(8, 1), DefaultCluster());
  const int host_equiv = hyper.MinRetrievalServers() * 4;
  const Schedule small = SimpleSchedule(hyper, 8, 8, 4);
  EXPECT_EQ(hyper.Evaluate(small).chip_equivalents, host_equiv);
  const Schedule big = SimpleSchedule(hyper, 32, 32, 4);
  EXPECT_EQ(hyper.Evaluate(big).chip_equivalents, 64);

  const PipelineModel lc(MakeLongContextSchema(8, 100'000),
                         DefaultCluster());
  Schedule ls = SimpleSchedule(lc, 8, 8, 4);
  EXPECT_EQ(lc.Evaluate(ls).chip_equivalents, 16);
}

TEST(PipelineModel, InfeasibleWhenOverBudget) {
  const PipelineModel model(MakeHyperscaleSchema(8, 1), DefaultCluster());
  Schedule schedule = SimpleSchedule(model, 64, 64, 1);  // 128 > 64.
  EXPECT_FALSE(model.Evaluate(schedule).feasible);
}

TEST(PipelineModel, InfeasibleWhenModelDoesNotFit) {
  const PipelineModel model(MakeHyperscaleSchema(405, 1),
                            DefaultCluster());
  // 405 GB of weights cannot fit on one 96 GB chip.
  Schedule schedule = SimpleSchedule(model, 1, 8, 1);
  EXPECT_FALSE(model.Evaluate(schedule).feasible);
}

TEST(PipelineModel, IterativeRetrievalRaisesTpot) {
  // Paper §5.3: mid-decode retrievals stall generation.
  const PipelineModel plain(MakeHyperscaleSchema(70, 1), DefaultCluster());
  const PipelineModel iter(MakeIterativeSchema(70, 4), DefaultCluster());
  Schedule ps = SimpleSchedule(plain, 16, 16, 16);
  Schedule is = SimpleSchedule(iter, 16, 16, 16);
  is.iterative_batch = 4;
  const EndToEndPerf pp = plain.Evaluate(ps);
  const EndToEndPerf pi = iter.Evaluate(is);
  ASSERT_TRUE(pp.feasible && pi.feasible);
  EXPECT_GT(pi.tpot, pp.tpot);
  EXPECT_LE(pi.qps, pp.qps);
}

TEST(PipelineModel, EvalPrefixCachedMatchesChainStageAtSchemaKnob) {
  // EvalChainStage(kPrefix) is defined as EvalPrefixCached at the
  // schema's assumed hit rate — for any knob setting.
  for (double rate : {0.0, 0.3, 1.0}) {
    RAGSchema schema = MakeHyperscaleSchema(8, 1);
    schema.workload.prefix_cache_hit_rate = rate;
    const PipelineModel model(schema, DefaultCluster());
    const StagePerf via_chain =
        model.EvalChainStage(StageType::kPrefix, 8, 4);
    const StagePerf via_cached = model.EvalPrefixCached(8, 4, rate);
    EXPECT_EQ(via_chain.latency, via_cached.latency) << "rate " << rate;
    EXPECT_EQ(via_chain.throughput, via_cached.throughput);
    EXPECT_EQ(via_chain.feasible, via_cached.feasible);
  }
}

TEST(PipelineModel, EvalPrefixCachedMonotoneAndFiniteAtFullHit) {
  const PipelineModel model(MakeHyperscaleSchema(8, 1), DefaultCluster());
  double previous = std::numeric_limits<double>::infinity();
  for (double rate : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const StagePerf perf = model.EvalPrefixCached(8, 4, rate);
    ASSERT_TRUE(perf.feasible) << "rate " << rate;
    EXPECT_TRUE(std::isfinite(perf.latency));
    EXPECT_GT(perf.latency, 0.0);
    EXPECT_GT(perf.throughput, 0.0);
    // More cached content can only shrink the priced prefix.
    EXPECT_LE(perf.latency, previous);
    previous = perf.latency;
  }
  // The full-hit limit must price strictly less work than cold prefix
  // (question-only prompt vs question + retrieved content).
  EXPECT_LT(model.EvalPrefixCached(8, 4, 1.0).latency,
            model.EvalPrefixCached(8, 4, 0.0).latency);
  // Out-of-range rates are rejected, as are degenerate shapes.
  EXPECT_THROW(model.EvalPrefixCached(8, 4, -0.1), rago::ConfigError);
  EXPECT_THROW(model.EvalPrefixCached(8, 4, 1.1), rago::ConfigError);
  EXPECT_THROW(model.EvalPrefixCached(0, 4, 0.5), rago::ConfigError);
}

TEST(PipelineModel, RewriteDecodeLatencyScalesWithOutputTokens) {
  RAGSchema schema = MakeRewriterRerankerSchema(8);
  const PipelineModel model(schema, DefaultCluster());
  const StagePerf perf =
      model.EvalChainStage(StageType::kRewriteDecode, 4, 4);
  ASSERT_TRUE(perf.feasible);

  schema.workload.rewrite_output_tokens = 64;
  const PipelineModel model2(schema, DefaultCluster());
  const StagePerf perf2 =
      model2.EvalChainStage(StageType::kRewriteDecode, 4, 4);
  // Doubling generated tokens roughly doubles the stage latency.
  EXPECT_NEAR(perf2.latency / perf.latency, 2.0, 0.2);
}

TEST(PipelineModel, EncodeStageLatencyScalesWithContext) {
  const PipelineModel m1(MakeLongContextSchema(8, 1'000'000),
                         DefaultCluster());
  const PipelineModel m10(MakeLongContextSchema(8, 10'000'000),
                          DefaultCluster());
  const StagePerf p1 = m1.EvalChainStage(StageType::kDatabaseEncode, 8, 1);
  const StagePerf p10 =
      m10.EvalChainStage(StageType::kDatabaseEncode, 8, 1);
  ASSERT_TRUE(p1.feasible && p10.feasible);
  EXPECT_NEAR(p10.latency / p1.latency, 10.0, 1.5);
}

TEST(PipelineModel, EvaluateWithLiveProviderMatchesEvaluate) {
  const PipelineModel model(MakeRewriterRerankerSchema(8),
                            DefaultCluster());
  Schedule schedule;
  schedule.chain_group = {0, 0, 1, 1};
  schedule.group_chips = {4, 8};
  schedule.chain_batch = {4, 4, 8, 8};
  schedule.decode_chips = 8;
  schedule.decode_batch = 64;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = 8;
  const EndToEndPerf a = model.Evaluate(schedule);
  const EndToEndPerf b = model.EvaluateWith(schedule, model.LiveProvider());
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_DOUBLE_EQ(a.ttft, b.ttft);
  EXPECT_DOUBLE_EQ(a.qps, b.qps);
  EXPECT_DOUBLE_EQ(a.qps_per_chip, b.qps_per_chip);
}

TEST(PipelineModel, CollocationAcrossRetrievalPausesGroup) {
  // Case IV with everything in one group: the group pauses for
  // retrieval, so its throughput must be lower than the same group
  // without the pause accounted (paper §6.1/§7.1).
  const PipelineModel model(MakeRewriterRerankerSchema(8),
                            DefaultCluster());
  Schedule collocated;
  collocated.chain_group = {0, 0, 0, 0};
  collocated.group_chips = {16};
  collocated.chain_batch = {8, 8, 8, 8};
  collocated.decode_chips = 16;
  collocated.decode_batch = 256;
  collocated.retrieval_servers = model.MinRetrievalServers();
  collocated.retrieval_batch = 8;

  Schedule split = collocated;
  split.chain_group = {0, 0, 1, 1};  // Split at the retrieval point.
  split.group_chips = {8, 8};        // Same total chips.

  const EndToEndPerf col = model.Evaluate(collocated);
  const EndToEndPerf dis = model.Evaluate(split);
  ASSERT_TRUE(col.feasible && dis.feasible);
  // The disaggregated plan avoids idling all 16 chips during
  // retrieval; with these small batches the pause is material.
  EXPECT_GT(dis.qps, col.qps * 1.01);
}

TEST(PipelineModel, BurstMicroBatchingReducesAverageTtft) {
  // Paper Fig. 19: processing a burst in micro-batches cuts average
  // TTFT versus one monolithic batch.
  const PipelineModel model(MakeLongContextSchema(70, 1'000'000),
                            DefaultCluster());
  Schedule micro = SimpleSchedule(model, 32, 16, 2);
  Schedule mono = SimpleSchedule(model, 32, 16, 32);
  const double ttft_micro = model.BurstAverageTtft(micro, 32);
  const double ttft_mono = model.BurstAverageTtft(mono, 32);
  EXPECT_LT(ttft_micro, ttft_mono);
}

TEST(PipelineModel, BurstTtftAtLeastPipelineLatency) {
  const PipelineModel model(MakeHyperscaleSchema(8, 1), DefaultCluster());
  const Schedule schedule = SimpleSchedule(model, 8, 8, 4);
  const EndToEndPerf perf = model.Evaluate(schedule);
  ASSERT_TRUE(perf.feasible);
  EXPECT_GE(model.BurstAverageTtft(schedule, 16), perf.ttft * 0.99);
}

TEST(PipelineModel, ScheduleValidationErrors) {
  const PipelineModel model(MakeRewriterRerankerSchema(8),
                            DefaultCluster());
  Schedule schedule;
  schedule.chain_group = {0, 0};  // Wrong size (chain is 4).
  schedule.group_chips = {4};
  schedule.chain_batch = {1, 1};
  EXPECT_THROW(model.Evaluate(schedule), rago::ConfigError);

  // Non-contiguous groups.
  schedule.chain_group = {0, 1, 0, 1};
  schedule.chain_batch = {1, 1, 1, 1};
  schedule.group_chips = {4, 4};
  EXPECT_THROW(model.Evaluate(schedule), rago::ConfigError);
}

TEST(PipelineModel, DecodeContextAccountsPrefixAndGeneration) {
  const PipelineModel model(MakeHyperscaleSchema(8, 1), DefaultCluster());
  EXPECT_EQ(model.AvgDecodeContext(), 512 + 128);
  EXPECT_EQ(model.MaxDecodeContext(), 512 + 256);
}

TEST(PipelineModel, StageCostDigestIsPinned) {
  // Every bit of every pricing rule the optimizer and the serving
  // runtime consume: per-stage costs over the chip x batch grid,
  // retrieval across server counts (infeasible ones included),
  // document-cache hit rates, end-to-end evaluation (iterative stalls
  // and the retrieval pause included) and the three retrieval models'
  // wave formula across the core-count boundary. A pricing change that
  // moves one bit of one reported number fails here.
  uint64_t hash = kFnvOffset;
  auto fold = [&hash](double value) { hash = FnvFold(hash, FloatBits(value)); };
  auto fold_int = [&hash](int64_t value) {
    hash = FnvFold(hash, static_cast<uint64_t>(value));
  };
  auto fold_stage = [&](const StagePerf& perf) {
    fold(perf.latency);
    fold(perf.throughput);
    fold(perf.mem_per_chip);
    fold_int(perf.plan.tensor);
    fold_int(perf.plan.pipeline);
    fold_int(perf.plan.replicas);
    fold_int(perf.feasible ? 1 : 0);
  };
  auto fold_e2e = [&](const EndToEndPerf& perf) {
    fold(perf.ttft);
    fold(perf.tpot);
    fold(perf.qps);
    fold(perf.qps_per_chip);
    fold_int(perf.chip_equivalents);
    fold_int(perf.feasible ? 1 : 0);
  };
  auto fold_search = [&](const retrieval::RetrievalModel& model,
                         int64_t max_batch) {
    for (int64_t b = 1; b <= max_batch; ++b) {
      const retrieval::RetrievalCost cost = model.Search(b);
      fold(cost.latency);
      fold(cost.throughput);
    }
  };

  const ClusterConfig cluster = DefaultCluster();
  const int64_t chain_batches[] = {1, 3, 16, 64, 256};
  const int64_t decode_batches[] = {1, 16, 128, 1024};
  const RAGSchema schemas[] = {
      MakeHyperscaleSchema(8, 2),
      MakeLongContextSchema(8, 100'000),
      MakeIterativeSchema(8, 4),
      MakeRewriterRerankerSchema(8),
      MakeLlmOnlySchema(70),
      MakeLongContextLlmOnlySchema(70, 1'000'000),
  };
  for (const RAGSchema& schema : schemas) {
    const PipelineModel model(schema, cluster);
    for (const StageType stage : model.chain()) {
      for (int chips = 1; chips <= cluster.TotalXpus(); chips *= 2) {
        for (const int64_t batch : chain_batches) {
          fold_stage(model.EvalChainStage(stage, chips, batch));
        }
      }
    }
    for (int chips = 1; chips <= cluster.TotalXpus(); chips *= 2) {
      for (const int64_t batch : decode_batches) {
        fold_stage(model.EvalDecode(chips, batch));
      }
      for (const double hit_rate : {0.0, 0.5, 1.0}) {
        fold_stage(model.EvalPrefixCached(chips, 16, hit_rate));
      }
    }
    const int min_servers = model.MinRetrievalServers();
    if (schema.retrieval_enabled) {
      for (const int servers : {min_servers - 1, min_servers,
                                cluster.num_servers,
                                cluster.num_servers + 1}) {
        if (servers < 1) {
          continue;
        }
        for (const int64_t batch : chain_batches) {
          fold_stage(model.EvalRetrieval(static_cast<int>(batch), servers));
        }
      }
      for (int chips = 1; chips <= cluster.TotalXpus(); chips *= 4) {
        for (const int64_t batch : chain_batches) {
          fold_stage(model.EvalIngestPrefix(chips, batch));
        }
      }
    }

    // Schedules: everything collocated (the retrieval pause path when
    // a stage precedes retrieval) and every stage on its own group.
    std::vector<Schedule> schedules;
    for (const int64_t batch : {int64_t{1}, int64_t{8}, int64_t{64}}) {
      schedules.push_back(SimpleSchedule(model, 8, 8, batch));
      Schedule split = SimpleSchedule(model, 4, 16, batch);
      split.group_chips.clear();
      for (size_t i = 0; i < model.chain().size(); ++i) {
        split.chain_group[i] = static_cast<int>(i);
        split.group_chips.push_back(4);
      }
      schedules.push_back(split);
    }
    for (Schedule& schedule : schedules) {
      for (const int64_t iterative_batch : {1, 4, 32}) {
        schedule.iterative_batch = iterative_batch;
        fold_e2e(model.Evaluate(schedule));
        fold(model.BurstAverageTtft(schedule, 32));
      }
    }
    if (schema.retrieval_enabled) {
      retrieval::MeasuredScanProfile profile;
      profile.bytes_per_query_per_server = 3.0e6;
      profile.scan_bytes_per_core = 9.0e9;
      profile.merge_seconds_per_query = 2.5e-5;
      const retrieval::MeasuredRetrievalModel measured(
          profile, cluster.cpu_server, min_servers);
      const StagePerfProvider provider =
          model.ProviderWithRetrievalModel(measured);
      for (const Schedule& schedule : schedules) {
        fold_e2e(model.EvaluateWith(schedule, provider));
      }
      for (const int servers : {min_servers - 1, min_servers,
                                cluster.num_servers + 1}) {
        if (servers >= 1) {
          fold_stage(provider.retrieval(8, servers));
        }
      }
    }
  }

  // The retrieval models' wave formula on both sides of the core count.
  const int64_t max_batch = 2 * cluster.cpu_server.cores + 1;
  const retrieval::ScannModel scann(retrieval::DatabaseSpec{},
                                    cluster.cpu_server, 16);
  fold_search(scann, max_batch);
  const retrieval::BruteForceModel brute(1'000'000, 768, 2.0,
                                         cluster.cpu_server);
  fold_search(brute, max_batch);
  retrieval::MeasuredScanProfile profile;
  profile.bytes_per_query_per_server = scann.BytesPerQueryPerServer();
  profile.scan_bytes_per_core = cluster.cpu_server.scan_bytes_per_core;
  profile.merge_seconds_per_query = 1.0e-5;
  fold_search(retrieval::MeasuredRetrievalModel(profile, cluster.cpu_server,
                                                16),
              max_batch);

  EXPECT_EQ(hash, 0xa66a5d01dbb23bccull);
}

}  // namespace
}  // namespace rago::core
