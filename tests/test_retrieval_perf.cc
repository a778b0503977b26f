/**
 * @file test_retrieval_perf.cc
 * Tests for the analytical retrieval cost models (paper §4b).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "common/units.h"
#include "hardware/cpu_server.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/perf/bruteforce_model.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/perf/roofline.h"
#include "retrieval/perf/scann_model.h"
#include "tests/testing/test_support.h"

namespace rago::retrieval {
namespace {

ScannModel PaperModel(int servers = 16) {
  return ScannModel(DatabaseSpec{}, rago::DefaultCpuServer(), servers);
}

TEST(DatabaseSpec, PaperDefaultsAndQuantizedSize) {
  DatabaseSpec spec;
  EXPECT_EQ(spec.num_vectors, 64'000'000'000);
  EXPECT_EQ(spec.dim, 768);
  EXPECT_DOUBLE_EQ(spec.pq_bytes_per_vector, 96.0);
  // 64B x 96 bytes = 6.14e12 bytes ~= 5.59 TiB (paper: 5.6 TiB).
  EXPECT_NEAR(spec.QuantizedBytes() / rago::kTiB, 5.59, 0.02);
  EXPECT_NO_THROW(spec.Validate());
}

TEST(DatabaseSpec, ValidationRejectsBadValues) {
  DatabaseSpec spec;
  spec.scan_fraction = 0.0;
  EXPECT_THROW(spec.Validate(), rago::ConfigError);
  spec = DatabaseSpec{};
  spec.scan_fraction = 1.5;
  EXPECT_THROW(spec.Validate(), rago::ConfigError);
  spec = DatabaseSpec{};
  spec.num_vectors = 0;
  EXPECT_THROW(spec.Validate(), rago::ConfigError);
  spec = DatabaseSpec{};
  spec.tree_fanout = 1;
  EXPECT_THROW(spec.Validate(), rago::ConfigError);
}

TEST(ScannModel, MinServersMatchesPaperScale) {
  // 5.59 TiB at 384 GiB per host: 15 servers is the strict capacity
  // floor; the paper provisions 16.
  const ScannModel model = PaperModel(16);
  EXPECT_GE(model.MinServersForCapacity(), 15);
  EXPECT_LE(model.MinServersForCapacity(), 16);
  EXPECT_THROW(PaperModel(8), rago::ConfigError);
}

TEST(ScannModel, LeafScanDominatesBytesPerQuery) {
  const ScannModel model = PaperModel();
  // B_retrieval ~= N * B_vec * P_scan = 64e9 * 96 * 0.001; centroid
  // levels add less than 10% on top.
  const double leaf = 64e9 * 96.0 * 0.001;
  EXPECT_GE(model.BytesScannedPerQuery(), leaf);
  EXPECT_LT(model.BytesScannedPerQuery(), leaf * 1.10);
}

TEST(ScannModel, ScanOpsCoverAllTreeLevels) {
  const ScannModel model = PaperModel();
  const auto ops = model.ScanOps();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].level, 1);
  EXPECT_EQ(ops[2].level, 3);
  // Root level: 4000 centroids of 768 float dims.
  EXPECT_DOUBLE_EQ(ops[0].bytes, 4000.0 * 768 * 4);
  // The leaf PQ scan dwarfs the centroid levels.
  EXPECT_LT(ops[0].bytes, 0.01 * ops[2].bytes);
  EXPECT_LT(ops[1].bytes, 0.10 * ops[2].bytes);
}

TEST(ScannModel, SingleQueryLatencyMatchesPerCoreRoofline) {
  // Batch 1 on 32 servers: the paper quotes ~10 ms (§7.1). One thread
  // scans its shard at 18 GB/s.
  const ScannModel model = PaperModel(32);
  const RetrievalCost cost = model.Search(1);
  const double expected =
      model.BytesPerQueryPerServer() / (18 * rago::kGiga);
  RAGO_EXPECT_REL_NEAR(cost.latency, expected, 0.01);
  EXPECT_NEAR(cost.latency, 0.0107, 0.002);
}

TEST(ScannModel, ThroughputSaturatesAtMemoryBandwidth) {
  const ScannModel model = PaperModel(16);
  // At large batch the tier is memory-bound: aggregate effective
  // bandwidth over the scanned bytes.
  const RetrievalCost cost = model.Search(4096);
  const double bound = 16 * 460e9 * 0.8 / model.BytesScannedPerQuery();
  RAGO_EXPECT_REL_NEAR(cost.throughput, bound, 0.05);
}

TEST(ScannModel, ThroughputMonotoneUpToCoreCountAndAcrossFullWaves) {
  // Throughput rises until all 96 cores are busy; partially filled
  // extra waves dip (stair pattern), but full waves keep the peak.
  const ScannModel model = PaperModel(16);
  double prev = 0.0;
  for (int64_t batch : {1, 2, 4, 8, 16, 32, 64, 96}) {
    const RetrievalCost cost = model.Search(batch);
    EXPECT_GE(cost.throughput, prev * 0.999) << "batch " << batch;
    prev = cost.throughput;
  }
  const double peak = model.Search(96).throughput;
  for (int64_t batch : {192, 384, 768}) {
    RAGO_EXPECT_REL_NEAR(model.Search(batch).throughput, peak, 0.01);
  }
  // Just past a wave boundary, throughput dips.
  EXPECT_LT(model.Search(97).throughput, peak * 0.75);
}

TEST(ScannModel, LatencyGrowsInWavesBeyondCoreCount) {
  const ScannModel model = PaperModel(16);
  const double l96 = model.Search(96).latency;
  const double l97 = model.Search(97).latency;
  EXPECT_GT(l97, l96 * 1.5);  // Second wave starts.
}

TEST(ScannModel, MoreServersCutLatencyProportionally) {
  const double l16 = PaperModel(16).Search(1).latency;
  const double l32 = PaperModel(32).Search(1).latency;
  EXPECT_NEAR(l16 / l32, 2.0, 0.01);
}

TEST(ScannModel, ScanFractionScalesWork) {
  DatabaseSpec spec01;
  spec01.scan_fraction = 0.0001;
  DatabaseSpec spec10;
  spec10.scan_fraction = 0.01;
  const ScannModel low(spec01, rago::DefaultCpuServer(), 16);
  const ScannModel high(spec10, rago::DefaultCpuServer(), 16);
  // 100x scan fraction -> exactly 100x leaf bytes; centroid levels
  // dilute the total-byte ratio somewhat.
  EXPECT_NEAR(high.ScanOps().back().bytes / low.ScanOps().back().bytes,
              100.0, 1e-6);
  const double total_ratio =
      high.BytesScannedPerQuery() / low.BytesScannedPerQuery();
  EXPECT_GT(total_ratio, 50.0);
  EXPECT_LE(total_ratio, 100.0);
  EXPECT_GT(low.Search(64).throughput, high.Search(64).throughput * 50);
}

TEST(ScannModel, RejectsNonPositiveBatch) {
  EXPECT_THROW(PaperModel().Search(0), rago::ConfigError);
}

TEST(BruteForce, BytesAreFullDatabaseScan) {
  const BruteForceModel model(100'000, 768, 2.0, rago::DefaultCpuServer());
  EXPECT_DOUBLE_EQ(model.BytesScannedPerQuery(), 100'000.0 * 768 * 2);
}

TEST(BruteForce, SmallDatabaseIsFast) {
  // Case II: 1K-100K vectors. Even 100K vectors scan in ~10 ms on one
  // thread, a negligible share of multi-second encode latency.
  const BruteForceModel model(100'000, 768, 2.0, rago::DefaultCpuServer());
  const RetrievalCost cost = model.Search(1);
  EXPECT_LT(cost.latency, 0.02);
  const BruteForceModel tiny(1'000, 768, 2.0, rago::DefaultCpuServer());
  EXPECT_LT(tiny.Search(1).latency, 0.001);
}

TEST(BruteForce, ThroughputScalesWithBatchUntilMemoryBound) {
  const BruteForceModel model(100'000, 768, 2.0, rago::DefaultCpuServer());
  const double t1 = model.Search(1).throughput;
  const double t16 = model.Search(16).throughput;
  EXPECT_GT(t16, t1 * 8);
}

TEST(BruteForce, RejectsDegenerateConfigs) {
  EXPECT_THROW(BruteForceModel(0, 768, 2.0, rago::DefaultCpuServer()),
               rago::ConfigError);
  EXPECT_THROW(BruteForceModel(10, 0, 2.0, rago::DefaultCpuServer()),
               rago::ConfigError);
}

/// Profile whose constants mirror the analytical paper model, so the
/// measured-cost adapter must reproduce ScannModel exactly.
MeasuredScanProfile AnalyticalProfile(const ScannModel& model) {
  MeasuredScanProfile profile;
  profile.bytes_per_query_per_server = model.BytesPerQueryPerServer();
  profile.scan_bytes_per_core = rago::DefaultCpuServer().scan_bytes_per_core;
  profile.merge_seconds_per_query = 0.0;
  return profile;
}

TEST(MeasuredModel, ReproducesScannModelFromItsOwnConstants) {
  // Structural cross-check: with the analytical bytes and scan rate
  // plugged in as the "measurement", the adapter's wave/roofline
  // formula must price every batch like ScannModel does.
  const ScannModel analytic = PaperModel(16);
  const MeasuredRetrievalModel measured(AnalyticalProfile(analytic),
                                        rago::DefaultCpuServer(), 16);
  RAGO_EXPECT_REL_NEAR(measured.BytesScannedPerQuery(),
                       analytic.BytesScannedPerQuery(), 1e-9);
  for (int64_t batch : {1, 8, 96, 97, 512, 4096}) {
    RAGO_EXPECT_REL_NEAR(measured.Search(batch).latency,
                         analytic.Search(batch).latency, 1e-9);
    RAGO_EXPECT_REL_NEAR(measured.Search(batch).throughput,
                         analytic.Search(batch).throughput, 1e-9);
  }
}

TEST(MeasuredModel, MergeOverheadInflatesLatency) {
  const ScannModel analytic = PaperModel(16);
  MeasuredScanProfile profile = AnalyticalProfile(analytic);
  const double base = MeasuredRetrievalModel(profile,
                                             rago::DefaultCpuServer(), 16)
                          .Search(64)
                          .latency;
  profile.merge_seconds_per_query = 1e-4;
  const double with_merge =
      MeasuredRetrievalModel(profile, rago::DefaultCpuServer(), 16)
          .Search(64)
          .latency;
  EXPECT_NEAR(with_merge - base, 64 * 1e-4, 1e-9);
}

TEST(MeasuredModel, RejectsDegenerateProfiles) {
  MeasuredScanProfile profile;
  EXPECT_THROW(
      MeasuredRetrievalModel(profile, rago::DefaultCpuServer(), 4),
      rago::ConfigError);
  profile.bytes_per_query_per_server = 1e6;
  profile.scan_bytes_per_core = 1e9;
  profile.merge_seconds_per_query = -1.0;
  EXPECT_THROW(
      MeasuredRetrievalModel(profile, rago::DefaultCpuServer(), 4),
      rago::ConfigError);
  profile.merge_seconds_per_query = 0.0;
  EXPECT_THROW(
      MeasuredRetrievalModel(profile, rago::DefaultCpuServer(), 0),
      rago::ConfigError);
  EXPECT_NO_THROW(
      MeasuredRetrievalModel(profile, rago::DefaultCpuServer(), 4));
}

/// Property sweep over server counts and batches: throughput never
/// exceeds the roofline bounds and latency stays positive.
class ScannSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(ScannSweepTest, RooflineBoundsHold) {
  const auto [servers, batch] = GetParam();
  const ScannModel model = PaperModel(servers);
  const RetrievalCost cost = model.Search(batch);
  EXPECT_GT(cost.latency, 0.0);
  const double mem_bound =
      servers * 460e9 * 0.8 / model.BytesScannedPerQuery();
  const double compute_bound =
      servers * 96.0 * 18e9 / model.BytesScannedPerQuery();
  EXPECT_LE(cost.throughput, std::min(mem_bound, compute_bound) * 1.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScannSweepTest,
    ::testing::Combine(::testing::Values(16, 24, 32),
                       ::testing::Values<int64_t>(1, 8, 96, 512, 4096)));

// --- Roofline profiler (retrieval/perf/roofline.h) -------------------

TEST(Roofline, AccountingClosedFormsMatchHandComputation) {
  // Batch scan: rows stream once, one float distance written per row.
  const KernelWork l2 = AccountBatchScan(1000, 64);
  EXPECT_DOUBLE_EQ(l2.bytes, 1000.0 * 64 * 4 + 1000.0 * 4);
  EXPECT_DOUBLE_EQ(l2.flops, 1000.0 * 64 * 3);  // sub + FMA per element.

  // Micro-tile: row stream shared across queries, full output block.
  const KernelWork tile = AccountTileScan(8, 1000, 64);
  EXPECT_DOUBLE_EQ(tile.bytes,
                   1000.0 * 64 * 4 + 8.0 * 64 * 4 + 8.0 * 1000 * 4);
  EXPECT_DOUBLE_EQ(tile.flops, 8.0 * 1000 * 64 * 3);

  // ADC table build: cache-resident codebooks once, each query read
  // once, every m x 256 table written; sub + mul + add per element.
  const KernelWork build = AccountPqTableBuild(64, 8, 4);
  EXPECT_DOUBLE_EQ(build.bytes,
                   8.0 * 4 * 256 * 4 + 64.0 * 8 * 4 * 4 + 64.0 * 8 * 256 * 4);
  EXPECT_DOUBLE_EQ(build.flops, 64.0 * 8 * 256 * 4 * 3);

  // Packed ADC: 1 byte per (code, subspace) in whole blocks,
  // cache-resident m x 256 table, one float accumulation and output
  // per code. 4096 is block-aligned, so nothing is padded.
  const KernelWork packed = AccountAdcPackedScan(4096, 16);
  EXPECT_DOUBLE_EQ(packed.bytes, 4096.0 * 16 + 16.0 * 256 * 4 + 4096.0 * 4);
  EXPECT_DOUBLE_EQ(packed.flops, 4096.0 * 16);
  // 4097 codes pad to 129 blocks of 32; outputs stay unpadded.
  const KernelWork padded = AccountAdcPackedScan(4097, 16);
  EXPECT_DOUBLE_EQ(padded.bytes,
                   129.0 * 32 * 16 + 16.0 * 256 * 4 + 4097.0 * 4);
  EXPECT_DOUBLE_EQ(padded.flops, 4097.0 * 16);

  EXPECT_THROW(AccountBatchScan(0, 64), ConfigError);
  EXPECT_THROW(AccountTileScan(8, 1000, 0), ConfigError);
  EXPECT_THROW(AccountPqTableBuild(64, 8, 0), ConfigError);
  EXPECT_THROW(AccountAdcPackedScan(0, 16), ConfigError);
}

TEST(Roofline, TileIntensityGrowsWithTileHeight) {
  // The micro-tile's reason to exist: amortizing the row stream over
  // more queries raises arithmetic intensity roughly linearly, which
  // is what eventually crosses the ridge into compute-bound land.
  double previous = AccountBatchScan(4096, 64).Intensity();
  for (size_t queries : {2, 8, 32, 128}) {
    const double intensity = AccountTileScan(queries, 4096, 64).Intensity();
    EXPECT_GT(intensity, previous);
    previous = intensity;
  }
}

TEST(Roofline, ClassificationFollowsTheRidge) {
  KernelProfileOptions options;
  options.num_rows = 1 << 12;
  options.dim = 16;
  options.tile_queries = 8;
  options.pq_m = 8;
  options.repetitions = 1;

  // Ridge far above any kernel intensity: everything is memory-bound.
  MachinePeaks bandwidth_starved;
  bandwidth_starved.bandwidth_bytes_per_sec = 1e9;
  bandwidth_starved.flops_per_sec = 1e13;
  EXPECT_DOUBLE_EQ(bandwidth_starved.RidgeIntensity(), 1e4);
  {
    const KernelProfiler profiler(bandwidth_starved, options);
    EXPECT_TRUE(profiler.ProfileL2Batch().memory_bound);
    EXPECT_TRUE(profiler.ProfileL2Tile().memory_bound);
    EXPECT_TRUE(profiler.ProfilePqTableBuild().memory_bound);
    EXPECT_TRUE(profiler.ProfileAdcPacked().memory_bound);
  }

  // Ridge far below: the compute roof binds everywhere.
  MachinePeaks compute_starved;
  compute_starved.bandwidth_bytes_per_sec = 1e12;
  compute_starved.flops_per_sec = 1e9;
  {
    const KernelProfiler profiler(compute_starved, options);
    EXPECT_FALSE(profiler.ProfileL2Batch().memory_bound);
    EXPECT_FALSE(profiler.ProfilePqTableBuild().memory_bound);
  }
}

TEST(Roofline, ProfiledPointsAreInternallyConsistent) {
  MachinePeaks peaks;
  peaks.bandwidth_bytes_per_sec = 10.0 * kGiB;
  peaks.flops_per_sec = 20e9;

  KernelProfileOptions options;
  options.num_rows = 1 << 12;
  options.dim = 16;
  options.tile_queries = 8;
  options.pq_m = 8;
  options.repetitions = 1;
  const KernelProfiler profiler(peaks, options);

  for (const KernelRooflinePoint& point :
       {profiler.ProfileL2Batch(), profiler.ProfileL2Tile(),
        profiler.ProfilePqTableBuild(), profiler.ProfileAdcPacked()}) {
    EXPECT_FALSE(point.kernel.empty());
    EXPECT_EQ(point.variant, ann::kernels::Active().name);
    EXPECT_GT(point.seconds, 0.0);
    EXPECT_GT(point.work.bytes, 0.0);
    EXPECT_GT(point.work.flops, 0.0);
    EXPECT_DOUBLE_EQ(point.intensity, point.work.Intensity());
    EXPECT_DOUBLE_EQ(point.achieved_bytes_per_sec,
                     point.work.bytes / point.seconds);
    EXPECT_DOUBLE_EQ(point.achieved_flops_per_sec,
                     point.work.flops / point.seconds);
    EXPECT_EQ(point.memory_bound,
              point.intensity < peaks.RidgeIntensity());
    const double expected_bound =
        std::max(point.work.bytes / peaks.bandwidth_bytes_per_sec,
                 point.work.flops / peaks.flops_per_sec);
    EXPECT_DOUBLE_EQ(point.bound_seconds, expected_bound);
    EXPECT_GT(point.roofline_efficiency, 0.0);
    EXPECT_DOUBLE_EQ(point.roofline_efficiency,
                     point.bound_seconds / point.seconds);
  }
}

TEST(Roofline, CalibrationProbesReturnPositivePeaks) {
  ProbeOptions tiny;
  tiny.triad_elements = 1 << 14;
  tiny.flop_iterations = 1 << 16;
  tiny.repetitions = 1;
  const MachinePeaks peaks = CalibrateMachinePeaks(tiny);
  EXPECT_GT(peaks.bandwidth_bytes_per_sec, 0.0);
  EXPECT_GT(peaks.flops_per_sec, 0.0);
  EXPECT_GT(peaks.RidgeIntensity(), 0.0);
}

TEST(Roofline, OptionValidationRejectsDegenerateShapes) {
  ProbeOptions probe;
  probe.triad_elements = 0;
  EXPECT_THROW(CalibrateMachinePeaks(probe), ConfigError);
  probe = ProbeOptions{};
  probe.repetitions = 0;
  EXPECT_THROW(CalibrateMachinePeaks(probe), ConfigError);

  KernelProfileOptions kernels;
  kernels.tile_queries = 0;
  MachinePeaks peaks;
  peaks.bandwidth_bytes_per_sec = 1e9;
  peaks.flops_per_sec = 1e9;
  EXPECT_THROW(KernelProfiler(peaks, kernels), ConfigError);
  EXPECT_THROW(KernelProfiler(MachinePeaks{}, KernelProfileOptions{}),
               ConfigError);  // Uncalibrated (zero) peaks.
}

}  // namespace
}  // namespace rago::retrieval
