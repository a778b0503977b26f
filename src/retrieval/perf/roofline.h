/**
 * @file roofline.h
 * Roofline profiler for the retrieval distance kernels.
 *
 * The paper's cost models price retrieval from published constants
 * (18 GB/s/core scan rate); the distance-kernel layer
 * (retrieval/ann/kernels) actually executes those scans. This profiler
 * closes the loop between the two on a real machine:
 *
 *  1. **Machine peaks** — a STREAM-style triad probe measures the
 *     achievable memory bandwidth and an FMA-chain probe the achievable
 *     single-thread FLOP rate, giving the two roofs of the roofline
 *     model and their ridge intensity (flops/byte where the roofs
 *     cross).
 *  2. **Kernel accounting** — closed-form bytes-moved and FLOPs for
 *     every scan shape the ANN backends use (the L2 batch scan, the
 *     Q-row L2 micro-tile, the PQ ADC table build, the PQ ADC pass). Pure
 *     arithmetic: machine-invariant and unit-testable.
 *  3. **Kernel profiling** — times the *active* kernel table over
 *     synthetic data and combines measurement with accounting into a
 *     roofline point: achieved GB/s, achieved GFLOP/s, arithmetic
 *     intensity, memory- vs compute-bound classification against the
 *     calibrated roofs, and efficiency vs the roofline bound.
 *
 * The measured points feed the perf-regression harness
 * (bench/bench_obs_trajectory.cc); the measured *retrieval costs* feed
 * schedule search through serving::CalibrateRetrievalModel →
 * core::PipelineModel::ProviderWithRetrievalModel →
 * opt::Optimizer::Search(provider).
 *
 * Accounting convention: a batch scan streams the row block once from
 * DRAM (queries and accumulators stay cache-resident) and writes one
 * float per (query, row); FLOPs count one fused multiply-add as two.
 */
#ifndef RAGO_RETRIEVAL_PERF_ROOFLINE_H
#define RAGO_RETRIEVAL_PERF_ROOFLINE_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace rago::retrieval {

/// Measured machine roofs (achieved, not theoretical: the probes run
/// the same compiled code class as the kernels they calibrate).
struct MachinePeaks {
  double bandwidth_bytes_per_sec = 0.0;  ///< STREAM triad, one thread.
  double flops_per_sec = 0.0;            ///< FMA chains, one thread.

  /// Ridge intensity (flops/byte): below it a kernel is memory-bound,
  /// above it compute-bound.
  double RidgeIntensity() const {
    return flops_per_sec / bandwidth_bytes_per_sec;
  }
};

/// Probe sizing knobs.
struct ProbeOptions {
  /// Floats per triad array (default 4M = 16 MB/array, 48 MB total —
  /// far beyond LLC so the probe measures DRAM, not cache).
  size_t triad_elements = size_t{4} << 20;
  /// Fused multiply-adds per FLOP-probe repetition.
  size_t flop_iterations = size_t{16} << 20;
  /// Probe repetitions; the best (max rate) repetition is kept, the
  /// standard defense against warm-up and scheduling noise.
  int repetitions = 3;

  /// Throws ConfigError on non-positive sizes.
  void Validate() const;
};

/// Runs both probes. Wall-clock measurement: *not* deterministic, and
/// never folded into anything the determinism contract covers.
MachinePeaks CalibrateMachinePeaks(const ProbeOptions& options = {});

/// Closed-form work of one kernel invocation.
struct KernelWork {
  double bytes = 0.0;  ///< DRAM traffic (reads + written outputs).
  double flops = 0.0;  ///< Floating-point operations (FMA = 2).

  double Intensity() const { return flops / bytes; }
};

/// One query against `num_rows` contiguous float32 rows (squared L2).
KernelWork AccountBatchScan(size_t num_rows, size_t dim);

/// Micro-tile: `num_queries` x `num_rows` distance block. The row
/// stream is amortized over all queries — intensity grows linearly
/// with the tile height, which is what pushes the tile kernel across
/// the ridge into compute-bound territory.
KernelWork AccountTileScan(size_t num_queries, size_t num_rows, size_t dim);

/// ADC table build: `num_queries` queries, each against m transposed
/// sub_dim x 256 codebooks (the l2sq_cols shape). The codebooks are
/// cache-resident and counted once; each query's m x 256 table is
/// written.
KernelWork AccountPqTableBuild(size_t num_queries, size_t m, size_t sub_dim);

/// Packed (blocked subspace-major) ADC pass: `num_codes` m-byte PQ
/// codes, padded to whole kPackedBlock blocks, against an m x 256
/// table.
KernelWork AccountAdcPackedScan(size_t num_codes, size_t m);

/// One profiled kernel: measurement x accounting x roofs.
struct KernelRooflinePoint {
  std::string kernel;        ///< e.g. "l2sq_batch".
  std::string variant;  ///< Active table ("scalar"/"avx2"/"avx512").
  KernelWork work;           ///< Per-invocation closed-form work.
  double seconds = 0.0;      ///< Best-repetition wall time.
  double achieved_bytes_per_sec = 0.0;
  double achieved_flops_per_sec = 0.0;
  double intensity = 0.0;    ///< work.flops / work.bytes.
  /// Intensity below the machine ridge: the bandwidth roof binds.
  bool memory_bound = false;
  /// Roofline lower bound on runtime: max(bytes/bw, flops/peak).
  double bound_seconds = 0.0;
  /// bound_seconds / seconds, in (0, 1] up to measurement noise.
  double roofline_efficiency = 0.0;
};

/// Kernel-profiling knobs.
struct KernelProfileOptions {
  size_t num_rows = 1 << 16;  ///< Rows per scan (16 MB at dim 64).
  size_t dim = 64;
  size_t tile_queries = 64;   ///< Tile height for the micro-tile shape.
  size_t pq_m = 16;           ///< PQ subspaces for the ADC shape.
  int repetitions = 3;        ///< Best repetition is kept.
  uint64_t seed = 0x900f;     ///< Synthetic-data seed.

  /// Throws ConfigError on non-positive sizes.
  void Validate() const;
};

/**
 * Times the active kernel table (retrieval/ann/kernels) over seeded
 * synthetic data and classifies each scan shape against `peaks`.
 * Measurement is wall-clock (not deterministic); the accounting inside
 * each point is closed-form and machine-invariant.
 */
class KernelProfiler {
 public:
  KernelProfiler(MachinePeaks peaks, KernelProfileOptions options = {});

  KernelRooflinePoint ProfileL2Batch() const;
  KernelRooflinePoint ProfileL2Tile() const;
  /// ADC table build in the serving benchmark's IVF-PQ shape (m 8 x
  /// 256 centroids x sub_dim 4), for num_rows / 256 queries (at least
  /// one).
  KernelRooflinePoint ProfilePqTableBuild() const;
  /// The packed fast-scan layout the ANN indexes scan.
  KernelRooflinePoint ProfileAdcPacked() const;

  const MachinePeaks& peaks() const { return peaks_; }
  const KernelProfileOptions& options() const { return options_; }

 private:
  MachinePeaks peaks_;
  KernelProfileOptions options_;
};

}  // namespace rago::retrieval

#endif  // RAGO_RETRIEVAL_PERF_ROOFLINE_H
