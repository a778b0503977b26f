#include "retrieval/perf/roofline.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/packed_codes.h"

namespace rago::retrieval {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  // Machine-peak probes time real executions by definition; the result
  // feeds the roofline model, never simulated behavior or control flow.
  // rago-lint: allow(wallclock)
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Defeats dead-code elimination of a probe/kernel result.
void Consume(float value) {
  static volatile float sink = 0.0f;
  sink = sink + value;
}

std::vector<float> RandomFloats(size_t count, uint64_t seed) {
  std::vector<float> data(count);
  Rng rng(seed);
  for (float& value : data) {
    value = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  return data;
}

/// FLOPs per (query, row, dimension) element of a squared-L2 scan:
/// subtract + fused multiply-add.
constexpr double kL2FlopsPerElement = 3.0;

}  // namespace

void
ProbeOptions::Validate() const {
  RAGO_REQUIRE(triad_elements > 0, "triad_elements must be positive");
  RAGO_REQUIRE(flop_iterations > 0, "flop_iterations must be positive");
  RAGO_REQUIRE(repetitions > 0, "repetitions must be positive");
}

MachinePeaks
CalibrateMachinePeaks(const ProbeOptions& options) {
  options.Validate();
  MachinePeaks peaks;

  // --- STREAM-style triad: a[i] = b[i] + s * c[i]. Arrays are sized
  // far beyond any LLC, so the best repetition approaches the DRAM
  // bandwidth one thread can draw — the roof the scan kernels live
  // under. Traffic counted the STREAM way: 3 arrays touched per pass.
  {
    const size_t n = options.triad_elements;
    std::vector<float> a(n, 0.0f);
    std::vector<float> b = RandomFloats(n, 0x57eea);
    std::vector<float> c = RandomFloats(n, 0x57eeb);
    const float scalar = 3.0f;
    double best_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < options.repetitions; ++rep) {
      // Probe timing — measurement only. rago-lint: allow(wallclock)
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < n; ++i) {
        a[i] = b[i] + scalar * c[i];
      }
      best_seconds = std::min(best_seconds, SecondsSince(start));
      Consume(a[n / 2]);
    }
    peaks.bandwidth_bytes_per_sec =
        3.0 * static_cast<double>(n) * sizeof(float) /
        std::max(best_seconds, 1e-12);
  }

  // --- FLOP roof: independent fused multiply-add chains (enough to
  // cover FMA latency) over cache-resident state. Measures what the
  // compiled scalar/vector code class actually achieves, which is the
  // relevant roof for kernels built the same way.
  {
    constexpr size_t kChains = 16;
    float acc[kChains];
    float mul[kChains];
    for (size_t i = 0; i < kChains; ++i) {
      acc[i] = 1.0f + 1e-6f * static_cast<float>(i);
      mul[i] = 1.0f - 1e-7f * static_cast<float>(i);
    }
    const size_t iters = options.flop_iterations / kChains;
    double best_seconds = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < options.repetitions; ++rep) {
      // Probe timing — measurement only. rago-lint: allow(wallclock)
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < iters; ++i) {
        for (size_t chain = 0; chain < kChains; ++chain) {
          acc[chain] = acc[chain] * mul[chain] + 1e-9f;
        }
      }
      best_seconds = std::min(best_seconds, SecondsSince(start));
    }
    float checksum = 0.0f;
    for (size_t i = 0; i < kChains; ++i) {
      checksum += acc[i];
    }
    Consume(checksum);
    // One fused multiply-add = 2 FLOPs.
    peaks.flops_per_sec = 2.0 * static_cast<double>(iters) * kChains /
                          std::max(best_seconds, 1e-12);
  }

  return peaks;
}

KernelWork
AccountBatchScan(size_t num_rows, size_t dim) {
  RAGO_REQUIRE(num_rows > 0 && dim > 0, "scan shape must be positive");
  KernelWork work;
  // The query stays register/cache-resident; the row block streams
  // once; one float distance is written per row.
  work.bytes = static_cast<double>(num_rows) * dim * sizeof(float) +
               static_cast<double>(num_rows) * sizeof(float);
  work.flops = static_cast<double>(num_rows) * dim * kL2FlopsPerElement;
  return work;
}

KernelWork
AccountTileScan(size_t num_queries, size_t num_rows, size_t dim) {
  RAGO_REQUIRE(num_queries > 0 && num_rows > 0 && dim > 0,
               "tile shape must be positive");
  KernelWork work;
  // The row stream is shared by all queries — the whole point of the
  // micro-tile: intensity scales with the tile height.
  work.bytes = static_cast<double>(num_rows) * dim * sizeof(float) +
               static_cast<double>(num_queries) * dim * sizeof(float) +
               static_cast<double>(num_queries) * num_rows * sizeof(float);
  work.flops = static_cast<double>(num_queries) * num_rows * dim *
               kL2FlopsPerElement;
  return work;
}

KernelWork
AccountPqTableBuild(size_t num_queries, size_t m, size_t sub_dim) {
  RAGO_REQUIRE(num_queries > 0 && m > 0 && sub_dim > 0,
               "table-build shape must be positive");
  const double entries =
      static_cast<double>(num_queries) * m * ann::kernels::kAdcCentroids;
  KernelWork work;
  // Codebooks once, every query read once, every table entry written.
  work.bytes = static_cast<double>(m) * sub_dim *
                   ann::kernels::kAdcCentroids * sizeof(float) +
               static_cast<double>(num_queries) * m * sub_dim *
                   sizeof(float) +
               entries * sizeof(float);
  // Subtract, multiply and add per (entry, dimension): no FMA.
  work.flops = entries * sub_dim * 3;
  return work;
}

KernelWork
AccountAdcPackedScan(size_t num_codes, size_t m) {
  RAGO_REQUIRE(num_codes > 0 && m > 0, "ADC shape must be positive");
  const size_t blocks = (num_codes + ann::kernels::kPackedBlock - 1) /
                        ann::kernels::kPackedBlock;
  KernelWork work;
  // The packed stream is padded to whole blocks (the tail block's
  // padding lanes are computed and discarded); the m x 256 lookup
  // table is cache-resident and counted once; one float written per
  // code.
  work.bytes = static_cast<double>(blocks) * ann::kernels::kPackedBlock * m +
               static_cast<double>(m) * ann::kernels::kAdcCentroids *
                   sizeof(float) +
               static_cast<double>(num_codes) * sizeof(float);
  // One table-lookup accumulation per (code, subspace).
  work.flops = static_cast<double>(num_codes) * m;
  return work;
}

void
KernelProfileOptions::Validate() const {
  RAGO_REQUIRE(num_rows > 0 && dim > 0, "scan shape must be positive");
  RAGO_REQUIRE(tile_queries > 0, "tile_queries must be positive");
  RAGO_REQUIRE(pq_m > 0, "pq_m must be positive");
  RAGO_REQUIRE(repetitions > 0, "repetitions must be positive");
}

KernelProfiler::KernelProfiler(MachinePeaks peaks,
                               KernelProfileOptions options)
    : peaks_(peaks), options_(options) {
  options_.Validate();
  RAGO_REQUIRE(peaks_.bandwidth_bytes_per_sec > 0 &&
                   peaks_.flops_per_sec > 0,
               "machine peaks must be calibrated (positive)");
}

namespace {

/// Times `invoke` (best of `repetitions`) and assembles the point.
template <typename Fn>
KernelRooflinePoint MakePoint(const std::string& kernel,
                              const MachinePeaks& peaks, KernelWork work,
                              int repetitions, Fn&& invoke) {
  KernelRooflinePoint point;
  point.kernel = kernel;
  point.variant = ann::kernels::Active().name;
  point.work = work;
  double best_seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repetitions; ++rep) {
    // Kernel timing — measurement only. rago-lint: allow(wallclock)
    const Clock::time_point start = Clock::now();
    invoke();
    best_seconds = std::min(best_seconds, SecondsSince(start));
  }
  point.seconds = std::max(best_seconds, 1e-12);
  point.achieved_bytes_per_sec = work.bytes / point.seconds;
  point.achieved_flops_per_sec = work.flops / point.seconds;
  point.intensity = work.Intensity();
  point.memory_bound = point.intensity < peaks.RidgeIntensity();
  point.bound_seconds =
      std::max(work.bytes / peaks.bandwidth_bytes_per_sec,
               work.flops / peaks.flops_per_sec);
  point.roofline_efficiency = point.bound_seconds / point.seconds;
  return point;
}

}  // namespace

KernelRooflinePoint
KernelProfiler::ProfileL2Batch() const {
  const size_t rows = options_.num_rows;
  const size_t dim = options_.dim;
  const std::vector<float> row_data =
      RandomFloats(rows * dim, Rng::DeriveSeed(options_.seed, 1));
  const std::vector<float> query =
      RandomFloats(dim, Rng::DeriveSeed(options_.seed, 2));
  std::vector<float> out(rows);
  auto point = MakePoint(
      "l2sq_batch", peaks_, AccountBatchScan(rows, dim),
      options_.repetitions, [&]() {
        ann::kernels::Active().l2sq_batch(query.data(), row_data.data(),
                                          rows, dim, out.data());
        Consume(out[rows / 2]);
      });
  return point;
}

KernelRooflinePoint
KernelProfiler::ProfileL2Tile() const {
  const size_t rows = options_.num_rows;
  const size_t dim = options_.dim;
  const size_t queries = options_.tile_queries;
  const std::vector<float> row_data =
      RandomFloats(rows * dim, Rng::DeriveSeed(options_.seed, 5));
  const std::vector<float> query_data =
      RandomFloats(queries * dim, Rng::DeriveSeed(options_.seed, 6));
  std::vector<float> out(queries * rows);
  auto point = MakePoint(
      "l2sq_tile", peaks_, AccountTileScan(queries, rows, dim),
      options_.repetitions, [&]() {
        ann::kernels::Active().l2sq_tile(query_data.data(), queries,
                                         row_data.data(), rows, dim,
                                         out.data());
        Consume(out[out.size() / 2]);
      });
  return point;
}

KernelRooflinePoint
KernelProfiler::ProfilePqTableBuild() const {
  // The serving benchmark's IVF-PQ shape: 32-d vectors in 8 subspaces
  // of 4 dims, one 256-centroid codebook per subspace.
  constexpr size_t kSubspaces = 8;
  constexpr size_t kSubDim = 4;
  constexpr size_t kLanes = ann::kernels::kAdcCentroids;
  const size_t queries = std::max<size_t>(1, options_.num_rows / kLanes);
  const std::vector<float> codebooks = RandomFloats(
      kSubspaces * kSubDim * kLanes, Rng::DeriveSeed(options_.seed, 9));
  const std::vector<float> query_data = RandomFloats(
      queries * kSubspaces * kSubDim, Rng::DeriveSeed(options_.seed, 10));
  std::vector<float> out(queries * kSubspaces * kLanes);
  auto point = MakePoint(
      "pq_table_build", peaks_,
      AccountPqTableBuild(queries, kSubspaces, kSubDim),
      options_.repetitions, [&]() {
        const ann::kernels::KernelTable& active = ann::kernels::Active();
        for (size_t q = 0; q < queries; ++q) {
          for (size_t s = 0; s < kSubspaces; ++s) {
            active.l2sq_cols(
                query_data.data() + (q * kSubspaces + s) * kSubDim,
                codebooks.data() + s * kSubDim * kLanes, kLanes, kSubDim,
                out.data() + (q * kSubspaces + s) * kLanes);
          }
        }
        Consume(out[out.size() / 2]);
      });
  return point;
}

KernelRooflinePoint
KernelProfiler::ProfileAdcPacked() const {
  const size_t codes = options_.num_rows;
  const size_t m = options_.pq_m;
  std::vector<uint8_t> code_data(codes * m);
  Rng rng(Rng::DeriveSeed(options_.seed, 7));
  for (uint8_t& code : code_data) {
    code = static_cast<uint8_t>(rng.NextBounded(ann::kernels::kAdcCentroids));
  }
  const ann::PackedCodes packed(code_data.data(), codes, m);
  const std::vector<float> table =
      RandomFloats(m * ann::kernels::kAdcCentroids,
                   Rng::DeriveSeed(options_.seed, 8));
  std::vector<float> out(codes);
  auto point = MakePoint(
      "adc_packed", peaks_, AccountAdcPackedScan(codes, m),
      options_.repetitions, [&]() {
        ann::kernels::Active().adc_packed(table.data(), packed.data(),
                                          codes, m, out.data());
        Consume(out[codes / 2]);
      });
  return point;
}

}  // namespace rago::retrieval
