/**
 * @file test_distance_kernels.cc
 * Tests for the batched distance-kernel layer: scalar/dispatched
 * parity across remainder-lane dims and unaligned bases, batch-vs-tile
 * bit-identity, column-major and ADC bit-identity, deterministic
 * tie-breaks, end-to-end id parity (exact paths) / recall parity
 * (approximate paths) between the scalar and dispatched variants, and
 * pinned Flat, IVF, IVF-PQ, ScaNN-tree and HNSW result digests.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/hnsw_index.h"
#include "retrieval/ann/ivf_index.h"
#include "retrieval/ann/ivfpq_index.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/packed_codes.h"
#include "retrieval/ann/recall.h"
#include "retrieval/ann/scann_tree.h"
#include "tests/testing/test_support.h"

namespace rago::ann::kernels {
namespace {

/// Dims that exercise the empty vector body (1, 7), exact multiples of
/// the 8-float lane width (8, 64), and remainder lanes (9, 100).
const size_t kDims[] = {1, 7, 8, 9, 64, 100};

/// Restores the force-scalar state on scope exit so tests can toggle
/// the process-wide dispatch without leaking into each other.
class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force) : previous_(ForceScalarActive()) {
    SetForceScalar(force);
  }
  ~ForceScalarGuard() { SetForceScalar(previous_); }

 private:
  bool previous_;
};

std::vector<float> RandomBlock(Rng& rng, size_t count) {
  std::vector<float> out(count);
  for (float& x : out) {
    x = static_cast<float>(rng.NextGaussian());
  }
  return out;
}

TEST(DistanceKernels, DispatchReportsConsistentState) {
  {
    ForceScalarGuard guard(true);
    EXPECT_TRUE(ForceScalarActive());
    EXPECT_STREQ(Active().name, "scalar");
  }
  ForceScalarGuard guard(false);
  // Priority scalar < avx2 < avx512: the best compiled-in, host-
  // supported tier at or below the RAGO_KERNEL_VARIANT cap wins (CI
  // caps one run at avx2).
  const char* cap_env = std::getenv("RAGO_KERNEL_VARIANT");
  const std::string cap = cap_env != nullptr ? cap_env : "";
  const bool allow_avx512 = cap.empty() || cap == "avx512";
  const bool allow_avx2 = allow_avx512 || cap == "avx2";
  if (allow_avx512 && Avx512KernelsCompiled() && CpuSupportsAvx512()) {
    EXPECT_STREQ(Active().name, "avx512");
  } else if (allow_avx2 && Avx2KernelsCompiled() && CpuSupportsAvx2()) {
    EXPECT_STREQ(Active().name, "avx2");
  } else {
    EXPECT_STREQ(Active().name, "scalar");
  }
  // VariantByName mirrors the probes and always knows scalar.
  ASSERT_NE(VariantByName("scalar"), nullptr);
  EXPECT_STREQ(VariantByName("scalar")->name, "scalar");
  EXPECT_EQ(VariantByName("avx2") != nullptr,
            Avx2KernelsCompiled() && CpuSupportsAvx2());
  EXPECT_EQ(VariantByName("avx512") != nullptr,
            Avx512KernelsCompiled() && CpuSupportsAvx512());
  EXPECT_EQ(VariantByName("neon"), nullptr);
}

/// The compiled-in, host-supported kernel tables (scalar always).
std::vector<const KernelTable*> CompiledVariants() {
  std::vector<const KernelTable*> tables;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    if (const KernelTable* table = VariantByName(name)) {
      tables.push_back(table);
    }
  }
  return tables;
}

/// Sequential ADC over strided (code-major) codes: the subspace-order
/// sum every ADC kernel must reproduce bit for bit.
std::vector<float> ReferenceAdc(const std::vector<float>& table,
                                const std::vector<uint8_t>& strided,
                                size_t num_codes, size_t m) {
  std::vector<float> out(num_codes);
  for (size_t i = 0; i < num_codes; ++i) {
    float dist = 0.0f;
    for (size_t s = 0; s < m; ++s) {
      dist += table[s * kAdcCentroids + strided[i * m + s]];
    }
    out[i] = dist;
  }
  return out;
}

std::vector<uint8_t> RandomCodes(Rng& rng, size_t count) {
  std::vector<uint8_t> out(count);
  for (uint8_t& c : out) {
    c = static_cast<uint8_t>(rng.NextBounded(kAdcCentroids));
  }
  return out;
}

TEST(DistanceKernels, ScalarBatchBitIdenticalToLegacyLoops) {
  Rng rng(11);
  for (size_t dim : kDims) {
    const size_t rows = 13;
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<float> l2(rows);
    ScalarKernels().l2sq_batch(query.data(), data.data(), rows, dim,
                               l2.data());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(l2[i], L2Sq(query.data(), data.data() + i * dim, dim))
          << "dim " << dim << " row " << i;
    }
  }
}

TEST(DistanceKernels, DispatchedBatchAgreesWithScalarAcrossRemainderDims) {
  Rng rng(12);
  for (size_t dim : kDims) {
    const size_t rows = 13;  // Exercises the 4-row groups + remainder.
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<float> scalar_out(rows);
    std::vector<float> active_out(rows);
    ScalarKernels().l2sq_batch(query.data(), data.data(), rows, dim,
                               scalar_out.data());
    {
      ForceScalarGuard guard(false);
      Active().l2sq_batch(query.data(), data.data(), rows, dim,
                          active_out.data());
    }
    for (size_t i = 0; i < rows; ++i) {
      if (dim < 8) {
        // The SIMD vector body is empty below one lane width, so tiny
        // dims are bit-identical across variants.
        EXPECT_EQ(scalar_out[i], active_out[i]) << "dim " << dim;
      } else {
        // SIMD reassociates the accumulation: near-equality only.
        const float scale = std::max(std::fabs(scalar_out[i]), 1.0f);
        EXPECT_NEAR(scalar_out[i], active_out[i], 1e-5f * scale)
            << "dim " << dim << " row " << i;
      }
    }
  }
}

TEST(DistanceKernels, TileBitIdenticalToBatchInEveryVariant) {
  Rng rng(13);
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    for (size_t dim : kDims) {
      const size_t rows = 9;     // 4-row groups + remainder.
      const size_t queries = 6;  // One 4-query group + remainder.
      const std::vector<float> query_block = RandomBlock(rng, queries * dim);
      const std::vector<float> data = RandomBlock(rng, rows * dim);
      std::vector<float> tiled(queries * rows);
      std::vector<float> batched(rows);
      Active().l2sq_tile(query_block.data(), queries, data.data(), rows, dim,
                         tiled.data());
      for (size_t q = 0; q < queries; ++q) {
        Active().l2sq_batch(query_block.data() + q * dim, data.data(), rows,
                            dim, batched.data());
        for (size_t i = 0; i < rows; ++i) {
          EXPECT_EQ(tiled[q * rows + i], batched[i])
              << (force_scalar ? "scalar" : "dispatched") << " dim " << dim;
        }
      }
    }
  }
}

TEST(DistanceKernels, UnalignedRowBasesMatchAligned) {
  // Row bases offset by one float are 4-byte aligned only — the
  // kernels must produce the same values as from the aligned copy.
  Rng rng(14);
  for (size_t dim : kDims) {
    const size_t rows = 7;
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<float> shifted(rows * dim + 1);
    std::memcpy(shifted.data() + 1, data.data(),
                rows * dim * sizeof(float));
    std::vector<float> aligned_out(rows);
    std::vector<float> unaligned_out(rows);
    ForceScalarGuard guard(false);
    Active().l2sq_batch(query.data(), data.data(), rows, dim,
                        aligned_out.data());
    Active().l2sq_batch(query.data(), shifted.data() + 1, rows, dim,
                        unaligned_out.data());
    for (size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(aligned_out[i], unaligned_out[i]) << "dim " << dim;
    }
  }
}

TEST(DistanceKernels, L2ColsBitIdenticalToL2SqInEveryVariant) {
  // One row per lane, d in order, no FMA: every variant must equal the
  // scalar L2Sq bit for bit at every dim — vector groups, masked or
  // scalar tails, and unaligned query / column / output bases alike.
  Rng rng(18);
  std::vector<size_t> dims;
  for (size_t dim = 1; dim <= 20; ++dim) {
    dims.push_back(dim);
  }
  dims.push_back(32);
  for (size_t dim : dims) {
    for (size_t n : {0u, 1u, 15u, 16u, 17u, 255u, 256u, 257u}) {
      const std::vector<float> query = RandomBlock(rng, dim);
      const std::vector<float> cols = RandomBlock(rng, dim * n);
      std::vector<float> reference(n);
      std::vector<float> row(dim);
      for (size_t i = 0; i < n; ++i) {
        for (size_t d = 0; d < dim; ++d) {
          row[d] = cols[d * n + i];
        }
        reference[i] = L2Sq(query.data(), row.data(), dim);
      }
      for (const KernelTable* variant : CompiledVariants()) {
        // Offset 1 leaves every base only 4-byte aligned; a sentinel
        // on each side of the output must survive.
        for (size_t offset : {0u, 1u}) {
          std::vector<float> q(offset + dim);
          std::vector<float> c(offset + dim * n);
          std::copy(query.begin(), query.end(), q.begin() + offset);
          std::copy(cols.begin(), cols.end(), c.begin() + offset);
          std::vector<float> out(offset + n + 1, -1.0f);
          variant->l2sq_cols(q.data() + offset, c.data() + offset, n, dim,
                             out.data() + offset);
          for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(out[offset + i], reference[i])
                << variant->name << " dim " << dim << " n " << n
                << " offset " << offset << " row " << i;
          }
          EXPECT_EQ(out.front(), offset == 0 && n > 0 ? reference[0] : -1.0f)
              << variant->name << " dim " << dim << " n " << n;
          EXPECT_EQ(out.back(), -1.0f)
              << variant->name << " dim " << dim << " n " << n;
        }
      }
    }
  }
}

TEST(DistanceKernels, ArgMinL2ColsMatchesRowMajorArgMin) {
  // Same first-wins index and the same minimum as ArgMinL2 over the
  // row-major copy, including duplicate minima.
  const size_t dim = 4;
  const size_t n = 37;
  Rng rng(19);
  std::vector<float> rows = RandomBlock(rng, n * dim);
  const std::vector<float> query = RandomBlock(rng, dim);
  std::memcpy(rows.data() + 9 * dim, query.data(), dim * sizeof(float));
  std::memcpy(rows.data() + 30 * dim, query.data(), dim * sizeof(float));
  std::vector<float> cols(n * dim);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      cols[d * n + i] = rows[i * dim + d];
    }
  }
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    float row_min = -1.0f;
    float col_min = -1.0f;
    const size_t row_best =
        ArgMinL2(query.data(), rows.data(), n, dim, &row_min);
    EXPECT_EQ(ArgMinL2Cols(query.data(), cols.data(), n, dim, &col_min),
              row_best);
    EXPECT_EQ(row_best, 9u);
    EXPECT_EQ(col_min, row_min);
  }
}

TEST(DistanceKernels, AdcBitIdenticalAcrossVariants) {
  Rng rng(15);
  for (size_t m : {1u, 4u, 8u, 16u}) {
    const size_t codes = 21;  // Partial packed block.
    const std::vector<float> table = RandomBlock(rng, m * kAdcCentroids);
    const std::vector<uint8_t> code_block = RandomCodes(rng, codes * m);
    const PackedCodes packed(code_block.data(), codes, m);
    const std::vector<float> reference =
        ReferenceAdc(table, code_block, codes, m);
    std::vector<float> active_out(codes);
    {
      ForceScalarGuard guard(false);
      Active().adc_packed(table.data(), packed.data(), codes, m,
                          active_out.data());
    }
    for (size_t i = 0; i < codes; ++i) {
      // Lane-sequential adds in subspace order: exact across variants.
      EXPECT_EQ(reference[i], active_out[i]) << "m " << m;
    }
  }
}

TEST(DistanceKernels, PackedCodesRoundTripsAndPadsBlocks) {
  Rng rng(45);
  for (size_t m : {1u, 3u, 8u, 16u}) {
    for (size_t codes : {1u, 31u, 32u, 33u, 64u, 97u}) {
      std::vector<uint8_t> strided(codes * m);
      for (uint8_t& c : strided) {
        c = static_cast<uint8_t>(rng.NextBounded(kAdcCentroids));
      }
      const PackedCodes packed(strided.data(), codes, m);
      EXPECT_EQ(packed.num_codes(), codes);
      EXPECT_EQ(packed.m(), m);
      const size_t blocks = (codes + kPackedBlock - 1) / kPackedBlock;
      EXPECT_EQ(packed.PackedBytes(), blocks * kPackedBlock * m);
      EXPECT_EQ(packed.UnpackAll(), strided) << "m " << m << " codes "
                                             << codes;
      std::vector<uint8_t> one(m);
      packed.Unpack(codes - 1, one.data());
      EXPECT_TRUE(std::memcmp(one.data(), strided.data() + (codes - 1) * m,
                              m) == 0);
      // Incremental Append builds the identical packed image.
      PackedCodes appended(m);
      for (size_t i = 0; i < codes; ++i) {
        appended.Append(strided.data() + i * m);
      }
      EXPECT_TRUE(std::memcmp(appended.data(), packed.data(),
                              packed.PackedBytes()) == 0);
    }
  }
}

TEST(DistanceKernels, AdcPackedBitIdenticalToStridedInEveryVariant) {
  // Packed ADC equals the sequential sum over the strided codes
  // bit-for-bit in every compiled variant, including tail blocks
  // (codes % 32 != 0) and odd subspace counts.
  Rng rng(46);
  for (size_t m : {1u, 3u, 8u, 16u}) {
    for (size_t codes : {1u, 31u, 32u, 33u, 64u, 97u}) {
      const std::vector<float> table = RandomBlock(rng, m * kAdcCentroids);
      const std::vector<uint8_t> strided = RandomCodes(rng, codes * m);
      const PackedCodes packed(strided.data(), codes, m);
      const std::vector<float> reference =
          ReferenceAdc(table, strided, codes, m);
      for (const KernelTable* variant : CompiledVariants()) {
        std::vector<float> packed_out(codes);
        variant->adc_packed(table.data(), packed.data(), codes, m,
                            packed_out.data());
        for (size_t i = 0; i < codes; ++i) {
          EXPECT_EQ(reference[i], packed_out[i])
              << variant->name << " m " << m << " codes " << codes;
        }
      }
    }
  }
}

TEST(DistanceKernels, AdcKernelsWellDefinedOnDegenerateShapes) {
  // num_codes == 0 writes nothing; m == 0 writes 0.0f per code — in
  // every compiled variant.
  const std::vector<float> table(kAdcCentroids, 1.0f);
  const std::vector<uint8_t> codes(4 * kPackedBlock, 7);
  for (const KernelTable* variant : CompiledVariants()) {
    std::vector<float> out(kPackedBlock + 1, -1.0f);
    variant->adc_packed(table.data(), codes.data(), 0, 4, out.data());
    for (float x : out) {
      EXPECT_EQ(x, -1.0f) << variant->name;  // Untouched.
    }
    variant->adc_packed(table.data(), codes.data(), out.size(), 0,
                        out.data());
    for (float x : out) {
      EXPECT_EQ(x, 0.0f) << variant->name;
    }
  }
}

TEST(DistanceKernels, ScanCodesPackedIntoTopKMatchesStridedScan) {
  // Same distances, same scan order, same tie-breaks: the packed TopK
  // scan must reproduce a sequential scan of the strided codes exactly
  // — ids and distance bits — under every variant, including
  // multi-tile lists.
  Rng rng(47);
  const size_t m = 8;
  const size_t codes = 1111;  // > 2 scan tiles, partial tail block.
  const std::vector<float> table = RandomBlock(rng, m * kAdcCentroids);
  const std::vector<uint8_t> strided = RandomCodes(rng, codes * m);
  const PackedCodes packed(strided.data(), codes, m);
  TopK strided_top(17);
  const std::vector<float> reference = ReferenceAdc(table, strided, codes, m);
  for (size_t i = 0; i < codes; ++i) {
    strided_top.Push(reference[i], 5 + static_cast<int64_t>(i));
  }
  const std::vector<Neighbor> a = strided_top.SortedTake();
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    TopK packed_top(17);
    ScanCodesPackedIntoTopK(table.data(), packed.data(), codes, m,
                            /*ids=*/nullptr, /*base_id=*/5, packed_top);
    const std::vector<Neighbor> b = packed_top.SortedTake();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id)
          << (force_scalar ? "scalar" : "dispatched") << " rank " << i;
      EXPECT_EQ(a[i].dist, b[i].dist);
    }
  }
}

TEST(DistanceKernels, ScanRowsIntoTopKKeepsIdTieBreak) {
  // Duplicate rows produce equal distances in any one variant; the
  // deterministic TopK tie-break must keep the lower id first.
  const size_t dim = 9;
  Rng rng(16);
  const std::vector<float> target = RandomBlock(rng, dim);
  std::vector<float> rows(6 * dim);
  for (size_t i = 0; i < 6; ++i) {
    std::vector<float> noise = RandomBlock(rng, dim);
    for (size_t d = 0; d < dim; ++d) {
      rows[i * dim + d] = target[d] + 10.0f + noise[d];  // Far away.
    }
  }
  // Rows 1 and 4 are identical copies of the target (distance 0).
  std::memcpy(rows.data() + 1 * dim, target.data(), dim * sizeof(float));
  std::memcpy(rows.data() + 4 * dim, target.data(), dim * sizeof(float));
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    TopK topk(2);
    ScanRowsIntoTopK(target.data(), rows.data(), 6, dim, /*ids=*/nullptr,
                     /*base_id=*/100, topk);
    const std::vector<Neighbor> out = topk.SortedTake();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 101);  // Equal distances: lower id first.
    EXPECT_EQ(out[1].id, 104);
  }
}

TEST(DistanceKernels, ArgMinFirstIndexWinsTies) {
  const size_t dim = 8;
  Rng rng(17);
  const std::vector<float> query = RandomBlock(rng, dim);
  std::vector<float> rows(5 * dim, 100.0f);
  // Rows 2 and 3 both equal the query exactly.
  std::memcpy(rows.data() + 2 * dim, query.data(), dim * sizeof(float));
  std::memcpy(rows.data() + 3 * dim, query.data(), dim * sizeof(float));
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    float min_dist = -1.0f;
    EXPECT_EQ(ArgMinL2(query.data(), rows.data(), 5, dim, &min_dist), 2u);
    EXPECT_EQ(min_dist, 0.0f);
  }
}

// ---------------------------------------------------------------------------
// End-to-end variant parity on the indexes (ISSUE acceptance criteria).
// ---------------------------------------------------------------------------

TEST(DistanceKernels, FlatExactIdsIdenticalScalarVsDispatched) {
  // dim 25 exercises remainder lanes inside the index scan.
  rago::testing::AnnTestBedOptions bed_options;
  bed_options.rows = 2000;
  bed_options.dim = 25;
  bed_options.num_queries = 16;
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(bed_options);
  const FlatIndex flat(rago::testing::CopyMatrix(bed.data));
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    std::vector<Neighbor> scalar_out;
    std::vector<Neighbor> dispatched_out;
    {
      ForceScalarGuard guard(true);
      scalar_out = flat.Search(bed.queries.Row(q), 10);
    }
    {
      ForceScalarGuard guard(false);
      dispatched_out = flat.Search(bed.queries.Row(q), 10);
    }
    ASSERT_EQ(scalar_out.size(), dispatched_out.size());
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      EXPECT_EQ(scalar_out[i].id, dispatched_out[i].id)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(DistanceKernels, IvfFullProbeIdsIdenticalScalarVsDispatched) {
  // Full-probe IVF scans every leaf exactly; the returned ids must not
  // depend on the kernel variant.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(1000, 24, 8);
  Rng rng(21);
  IvfOptions options;
  options.nlist = 16;
  const IvfIndex ivf(rago::testing::CopyMatrix(bed.data), options, rng);
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    std::vector<Neighbor> scalar_out;
    std::vector<Neighbor> dispatched_out;
    {
      ForceScalarGuard guard(true);
      scalar_out = ivf.Search(bed.queries.Row(q), 5, /*nprobe=*/16);
    }
    {
      ForceScalarGuard guard(false);
      dispatched_out = ivf.Search(bed.queries.Row(q), 5, /*nprobe=*/16);
    }
    ASSERT_EQ(scalar_out.size(), dispatched_out.size());
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      EXPECT_EQ(scalar_out[i].id, dispatched_out[i].id)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(DistanceKernels, IvfBatchedCoarseRankingMatchesPerQuerySearch) {
  // SearchBatch ranks coarse centroids for the whole block through the
  // micro-tile kernel; within one variant tile and batch kernels are
  // bit-identical, so batched results must equal per-query Search
  // exactly — ids and distance bits — under every variant.
  rago::testing::AnnTestBedOptions bed_options;
  bed_options.rows = 1500;
  bed_options.dim = 25;  // Remainder lanes in the centroid ranking.
  bed_options.num_queries = 21;  // Partial query tile at the end.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(bed_options);
  Rng rng(33);
  IvfOptions options;
  options.nlist = 24;
  const IvfIndex ivf(rago::testing::CopyMatrix(bed.data), options, rng);
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    const auto batched = ivf.SearchBatch(bed.queries, 7, /*nprobe=*/4);
    ASSERT_EQ(batched.size(), bed.queries.rows());
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      const auto single = ivf.Search(bed.queries.Row(q), 7, /*nprobe=*/4);
      ASSERT_EQ(batched[q].size(), single.size());
      for (size_t i = 0; i < single.size(); ++i) {
        EXPECT_EQ(batched[q][i].id, single[i].id)
            << "variant " << (force_scalar ? "scalar" : "dispatched")
            << " query " << q << " rank " << i;
        EXPECT_EQ(batched[q][i].dist, single[i].dist);
      }
    }
  }
}

TEST(DistanceKernels, IvfPqBatchedCoarseRankingMatchesPerQuerySearch) {
  // Same contract for the ADC path, with exact re-ranking in the mix.
  const rago::testing::AnnTestBed bed =
      rago::testing::MakeAnnTestBed(1200, 24, 19);
  Rng rng(35);
  IvfPqOptions options;
  options.nlist = 24;
  options.pq_subspaces = 8;
  const IvfPqIndex index(rago::testing::CopyMatrix(bed.data), options,
                         rng);
  for (bool force_scalar : {true, false}) {
    ForceScalarGuard guard(force_scalar);
    for (int rerank : {0, 40}) {
      const auto batched =
          index.SearchBatch(bed.queries, 6, /*nprobe=*/5, rerank);
      ASSERT_EQ(batched.size(), bed.queries.rows());
      for (size_t q = 0; q < bed.queries.rows(); ++q) {
        const auto single =
            index.Search(bed.queries.Row(q), 6, /*nprobe=*/5, rerank);
        ASSERT_EQ(batched[q].size(), single.size());
        for (size_t i = 0; i < single.size(); ++i) {
          EXPECT_EQ(batched[q][i].id, single[i].id)
              << "variant " << (force_scalar ? "scalar" : "dispatched")
              << " rerank " << rerank << " query " << q << " rank " << i;
          EXPECT_EQ(batched[q][i].dist, single[i].dist);
        }
      }
    }
  }
}

TEST(DistanceKernels, IvfPqRecallParityScalarVsDispatched) {
  // The ADC path is approximate: pin recall parity, not ids. Each
  // variant builds its own index (training also runs on the kernels).
  const rago::testing::AnnTestBed bed = rago::testing::MakeAnnTestBed();
  auto recall_under = [&](bool force_scalar) {
    ForceScalarGuard guard(force_scalar);
    Rng rng(6);
    IvfPqOptions options;
    options.nlist = 32;
    options.pq_subspaces = 8;
    const IvfPqIndex index(rago::testing::CopyMatrix(bed.data), options,
                           rng);
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(
          index.Search(bed.queries.Row(q), 10, /*nprobe=*/8, /*rerank=*/50));
    }
    return MeanRecallAtK(results, bed.truth, 10);
  };
  const double scalar_recall = recall_under(true);
  const double dispatched_recall = recall_under(false);
  EXPECT_GT(scalar_recall, 0.8);
  EXPECT_GT(dispatched_recall, 0.8);
  EXPECT_NEAR(scalar_recall, dispatched_recall, 0.05);
}

/// FNV-1a over every result's (id, distance bits), query by query.
uint64_t ResultDigest(const std::vector<std::vector<Neighbor>>& results) {
  uint64_t hash = 14695981039346656037ull;
  auto fold = [&hash](const void* bytes, size_t size) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ p[i]) * 1099511628211ull;
    }
  };
  for (const std::vector<Neighbor>& row : results) {
    for (const Neighbor& nb : row) {
      uint32_t bits = 0;
      std::memcpy(&bits, &nb.dist, sizeof(bits));
      fold(&nb.id, sizeof(nb.id));
      fold(&bits, sizeof(bits));
    }
  }
  return hash;
}

TEST(DistanceKernels, IvfPqSearchBatchDigestIsPinned) {
  // Every bit of IVF-PQ training, encoding, ADC table build, scan and
  // rerank at sub_dim 4, pinned: a kernel or layout change that moves
  // one distance bit fails here. The 32-d / 8-subspace case is the
  // serving benchmark's shape; its coarse quantizer and rerank run the
  // float kernels at dim 32, whose SIMD rounding differs by host, so it
  // is pinned under forced scalar. At dim 4 every variant's float
  // kernels are bit-identical to scalar, so one digest holds both
  // forced-scalar and dispatched.
  struct Case {
    size_t dim;
    int m;
    bool force_scalar;
    uint64_t plain;
    uint64_t reranked;
  };
  const Case cases[] = {
      {32, 8, true, 2996821892233442027ull, 6371881504075500264ull},
      {4, 1, true, 775338787635363460ull, 1679808487972455125ull},
      {4, 1, false, 775338787635363460ull, 1679808487972455125ull},
  };
  for (const Case& c : cases) {
    ForceScalarGuard guard(c.force_scalar);
    rago::testing::AnnTestBedOptions bed_options;
    bed_options.rows = 3000;
    bed_options.dim = c.dim;
    bed_options.num_queries = 24;
    const rago::testing::AnnTestBed bed =
        rago::testing::MakeAnnTestBed(bed_options);
    Rng rng(21);
    IvfPqOptions options;
    options.nlist = 16;
    options.pq_subspaces = c.m;
    options.kmeans_iterations = 6;
    const IvfPqIndex index(rago::testing::CopyMatrix(bed.data), options,
                           rng);
    const uint64_t plain = ResultDigest(
        index.SearchBatch(bed.queries, 10, /*nprobe=*/4, /*rerank=*/0));
    const uint64_t reranked = ResultDigest(
        index.SearchBatch(bed.queries, 10, /*nprobe=*/4, /*rerank=*/40));
    EXPECT_EQ(plain, c.plain) << "dim " << c.dim;
    EXPECT_EQ(reranked, c.reranked) << "dim " << c.dim;
  }
}

TEST(DistanceKernels, HnswSearchDigestIsPinned) {
  // Every bit of HNSW graph construction and search, pinned: the graph
  // walk keeps its own bounded result heap, so a change to that heap's
  // admission order or tie-break fails here. Same variant split as the
  // IVF-PQ pin: dim 16 under forced scalar, dim 4 in both modes.
  struct Case {
    size_t dim;
    bool force_scalar;
    uint64_t digest;
  };
  const Case cases[] = {
      {16, true, 181779172249966889ull},
      {4, true, 629514589093022437ull},
      {4, false, 629514589093022437ull},
  };
  for (const Case& c : cases) {
    ForceScalarGuard guard(c.force_scalar);
    rago::testing::AnnTestBedOptions bed_options;
    bed_options.rows = 2000;
    bed_options.dim = c.dim;
    bed_options.num_queries = 24;
    const rago::testing::AnnTestBed bed =
        rago::testing::MakeAnnTestBed(bed_options);
    Rng rng(23);
    HnswOptions options;
    options.max_degree = 8;
    options.ef_construction = 32;
    const HnswIndex index(rago::testing::CopyMatrix(bed.data), options, rng);
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(index.Search(bed.queries.Row(q), 10, 16));
      results.push_back(index.Search(bed.queries.Row(q), 10, 48));
    }
    EXPECT_EQ(ResultDigest(results), c.digest) << "dim " << c.dim;
  }
}

/// The pinned-digest test bed: 3000 rows and 24 queries at `dim`.
rago::testing::AnnTestBed PinBed(size_t dim) {
  rago::testing::AnnTestBedOptions bed_options;
  bed_options.rows = 3000;
  bed_options.dim = dim;
  bed_options.num_queries = 24;
  return rago::testing::MakeAnnTestBed(bed_options);
}

TEST(DistanceKernels, FlatSearchBatchDigestIsPinned) {
  // Every bit of the exact tile scan, pinned. Same variant split as the
  // IVF-PQ pin: dim 32 under forced scalar, dim 4 in both modes.
  struct Case {
    size_t dim;
    bool force_scalar;
    uint64_t digest;
  };
  const Case cases[] = {
      {32, true, 1377419133161433418ull},
      {4, true, 13957923704281393212ull},
      {4, false, 13957923704281393212ull},
  };
  for (const Case& c : cases) {
    ForceScalarGuard guard(c.force_scalar);
    const rago::testing::AnnTestBed bed = PinBed(c.dim);
    const FlatIndex index(rago::testing::CopyMatrix(bed.data));
    EXPECT_EQ(ResultDigest(index.SearchBatch(bed.queries, 10)), c.digest)
        << "dim " << c.dim;
  }
}

TEST(DistanceKernels, IvfSearchBatchDigestIsPinned) {
  // Every bit of IVF training, coarse ranking and float list scans (the
  // backend of the cache-heavy serving benchmark), pinned. With 64
  // lists over 32 clusters one probe misses true neighbours, so its
  // digest differs from the exact one; four probes find them all.
  // Same variant split as the IVF-PQ pin.
  struct Case {
    size_t dim;
    bool force_scalar;
    uint64_t one_probe;
    uint64_t four_probes;
  };
  const Case cases[] = {
      {32, true, 10965099277402209589ull, 1377419133161433418ull},
      {4, true, 12479416842929448129ull, 13957923704281393212ull},
      {4, false, 12479416842929448129ull, 13957923704281393212ull},
  };
  for (const Case& c : cases) {
    ForceScalarGuard guard(c.force_scalar);
    const rago::testing::AnnTestBed bed = PinBed(c.dim);
    Rng rng(25);
    IvfOptions options;
    options.nlist = 64;
    options.kmeans_iterations = 6;
    const IvfIndex index(rago::testing::CopyMatrix(bed.data), options, rng);
    EXPECT_EQ(ResultDigest(index.SearchBatch(bed.queries, 10, /*nprobe=*/1)),
              c.one_probe)
        << "dim " << c.dim;
    EXPECT_EQ(ResultDigest(index.SearchBatch(bed.queries, 10, /*nprobe=*/4)),
              c.four_probes)
        << "dim " << c.dim;
  }
}

TEST(DistanceKernels, ScannTreeSearchBatchDigestIsPinned) {
  // Every bit of tree training, PQ leaf encoding, beam search, ADC leaf
  // scans and rerank, pinned. Same variant split as the IVF-PQ pin.
  struct Case {
    size_t dim;
    int m;
    bool force_scalar;
    uint64_t plain;
    uint64_t reranked;
  };
  const Case cases[] = {
      {32, 8, true, 5333944386616711556ull, 2919151063561945155ull},
      {4, 1, true, 11801583204256093050ull, 9526148909281086084ull},
      {4, 1, false, 11801583204256093050ull, 9526148909281086084ull},
  };
  for (const Case& c : cases) {
    ForceScalarGuard guard(c.force_scalar);
    const rago::testing::AnnTestBed bed = PinBed(c.dim);
    Rng rng(27);
    ScannTreeOptions options;
    options.levels = 2;
    options.fanout = 6;
    options.pq_subspaces = c.m;
    options.kmeans_iterations = 6;
    const ScannTree tree(rago::testing::CopyMatrix(bed.data), options, rng);
    const uint64_t plain = ResultDigest(
        tree.SearchBatch(bed.queries, 10, /*beam=*/3, /*rerank=*/0));
    const uint64_t reranked = ResultDigest(
        tree.SearchBatch(bed.queries, 10, /*beam=*/3, /*rerank=*/40));
    EXPECT_EQ(plain, c.plain) << "dim " << c.dim;
    EXPECT_EQ(reranked, c.reranked) << "dim " << c.dim;
  }
}

TEST(DistanceKernels, ScannTreeRecallParityScalarVsDispatched) {
  // The tree's leaf scan runs on the packed layout; recall must not
  // depend on the kernel variant.
  const rago::testing::AnnTestBed bed = rago::testing::MakeAnnTestBed();
  auto recall_under = [&](bool force_scalar) {
    ForceScalarGuard guard(force_scalar);
    Rng rng(9);
    ScannTreeOptions options;
    options.levels = 2;
    options.fanout = 8;
    const ScannTree tree(rago::testing::CopyMatrix(bed.data), options, rng);
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(
          tree.Search(bed.queries.Row(q), 10, /*beam=*/8, /*rerank=*/50));
    }
    return MeanRecallAtK(results, bed.truth, 10);
  };
  const double scalar_recall = recall_under(true);
  const double dispatched_recall = recall_under(false);
  EXPECT_GT(scalar_recall, 0.8);
  EXPECT_GT(dispatched_recall, 0.8);
  EXPECT_NEAR(scalar_recall, dispatched_recall, 0.05);
}

TEST(DistanceKernels, HnswRecallParityScalarVsDispatched) {
  const rago::testing::AnnTestBed bed = rago::testing::MakeAnnTestBed();
  auto recall_under = [&](bool force_scalar) {
    ForceScalarGuard guard(force_scalar);
    Rng rng(7);
    const HnswIndex index(rago::testing::CopyMatrix(bed.data),
                          HnswOptions{}, rng);
    const auto results = index.SearchBatch(bed.queries, 10, /*ef_search=*/64);
    return MeanRecallAtK(results, bed.truth, 10);
  };
  const double scalar_recall = recall_under(true);
  const double dispatched_recall = recall_under(false);
  EXPECT_GT(scalar_recall, 0.85);
  EXPECT_GT(dispatched_recall, 0.85);
  EXPECT_NEAR(scalar_recall, dispatched_recall, 0.05);
}

}  // namespace
}  // namespace rago::ann::kernels
