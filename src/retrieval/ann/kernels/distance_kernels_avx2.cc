/**
 * @file distance_kernels_avx2.cc
 * AVX2/FMA distance kernels. Compiled with -mavx2 -mfma only on x86
 * toolchains that accept the flags (see CMakeLists.txt); callers reach
 * this table through runtime CPUID dispatch, never directly.
 *
 * Determinism notes:
 *  - Each row's accumulation order is fixed: 8-lane FMA chains over the
 *    vector body (one chain per row), one horizontal sum in a fixed
 *    shuffle order, then a sequential scalar remainder. Grouped (4-row
 *    / 4-query) paths perform the exact same per-row operation
 *    sequence, so batch and tile kernels are bit-identical for the
 *    same (query, row) pair regardless of grouping.
 *  - For dim < 8 the vector body is empty and the remainder loop is
 *    the scalar kernel, so tiny dims are bit-identical to scalar (the
 *    TU builds with -ffp-contract=off so the compiler cannot fuse
 *    these scalar loops into FMA and break that identity).
 *  - The column-major kernel puts one row in each lane and runs the
 *    scalar L2Sq sequence per lane (zero start, then a separate
 *    _mm256_sub_ps / _mm256_mul_ps / _mm256_add_ps per dim, never
 *    _mm256_fmadd_ps), so it is bit-identical to scalar at every dim.
 *  - The packed ADC kernel adds table entries in subspace order,
 *    matching scalar summation order bit-for-bit: it loads each
 *    subspace's 32 contiguous code bytes (the transposed layout's
 *    whole point) and gathers in four 8-lane groups.
 */
#include "retrieval/ann/kernels/avx2_kernels.h"

#if defined(RAGO_KERNELS_HAVE_AVX2)

#include <immintrin.h>

namespace rago::ann::kernels {
namespace {

/// Fixed-order horizontal sum: (lo128 + hi128), then pairwise within
/// the 128-bit half. Every kernel funnels through this one order.
inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum = _mm_add_ps(lo, hi);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x55));
  return _mm_cvtss_f32(sum);
}

inline float L2Row(const float* query, const float* row, size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  size_t d = 0;
  for (; d + 8 <= dim; d += 8) {
    const __m256 q = _mm256_loadu_ps(query + d);
    const __m256 r = _mm256_loadu_ps(row + d);
    const __m256 diff = _mm256_sub_ps(q, r);
    acc = _mm256_fmadd_ps(diff, diff, acc);
  }
  float sum = HorizontalSum(acc);
  for (; d < dim; ++d) {
    const float diff = query[d] - row[d];
    sum += diff * diff;
  }
  return sum;
}

void Avx2L2Batch(const float* query, const float* rows, size_t num_rows,
                 size_t dim, float* out) {
  size_t i = 0;
  // Four rows per pass: the query load is shared and the four FMA
  // chains are independent, hiding FMA latency behind throughput.
  for (; i + 4 <= num_rows; i += 4) {
    const float* r0 = rows + (i + 0) * dim;
    const float* r1 = rows + (i + 1) * dim;
    const float* r2 = rows + (i + 2) * dim;
    const float* r3 = rows + (i + 3) * dim;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dim; d += 8) {
      const __m256 q = _mm256_loadu_ps(query + d);
      const __m256 d0 = _mm256_sub_ps(q, _mm256_loadu_ps(r0 + d));
      const __m256 d1 = _mm256_sub_ps(q, _mm256_loadu_ps(r1 + d));
      const __m256 d2 = _mm256_sub_ps(q, _mm256_loadu_ps(r2 + d));
      const __m256 d3 = _mm256_sub_ps(q, _mm256_loadu_ps(r3 + d));
      a0 = _mm256_fmadd_ps(d0, d0, a0);
      a1 = _mm256_fmadd_ps(d1, d1, a1);
      a2 = _mm256_fmadd_ps(d2, d2, a2);
      a3 = _mm256_fmadd_ps(d3, d3, a3);
    }
    float s0 = HorizontalSum(a0);
    float s1 = HorizontalSum(a1);
    float s2 = HorizontalSum(a2);
    float s3 = HorizontalSum(a3);
    for (; d < dim; ++d) {
      const float q = query[d];
      const float e0 = q - r0[d];
      const float e1 = q - r1[d];
      const float e2 = q - r2[d];
      const float e3 = q - r3[d];
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    out[i + 0] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < num_rows; ++i) {
    out[i] = L2Row(query, rows + i * dim, dim);
  }
}

void Avx2L2Tile(const float* queries, size_t num_queries, const float* rows,
                size_t num_rows, size_t dim, float* out) {
  size_t q = 0;
  // Four queries per pass with rows in the outer loop: each row is
  // streamed from memory once and scored against all four queries —
  // the bandwidth amplification batched multi-query search exists for.
  for (; q + 4 <= num_queries; q += 4) {
    const float* q0 = queries + (q + 0) * dim;
    const float* q1 = queries + (q + 1) * dim;
    const float* q2 = queries + (q + 2) * dim;
    const float* q3 = queries + (q + 3) * dim;
    for (size_t i = 0; i < num_rows; ++i) {
      const float* row = rows + i * dim;
      __m256 a0 = _mm256_setzero_ps();
      __m256 a1 = _mm256_setzero_ps();
      __m256 a2 = _mm256_setzero_ps();
      __m256 a3 = _mm256_setzero_ps();
      size_t d = 0;
      for (; d + 8 <= dim; d += 8) {
        const __m256 r = _mm256_loadu_ps(row + d);
        const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(q0 + d), r);
        const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(q1 + d), r);
        const __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(q2 + d), r);
        const __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(q3 + d), r);
        a0 = _mm256_fmadd_ps(d0, d0, a0);
        a1 = _mm256_fmadd_ps(d1, d1, a1);
        a2 = _mm256_fmadd_ps(d2, d2, a2);
        a3 = _mm256_fmadd_ps(d3, d3, a3);
      }
      float s0 = HorizontalSum(a0);
      float s1 = HorizontalSum(a1);
      float s2 = HorizontalSum(a2);
      float s3 = HorizontalSum(a3);
      for (; d < dim; ++d) {
        const float r = row[d];
        const float e0 = q0[d] - r;
        const float e1 = q1[d] - r;
        const float e2 = q2[d] - r;
        const float e3 = q3[d] - r;
        s0 += e0 * e0;
        s1 += e1 * e1;
        s2 += e2 * e2;
        s3 += e3 * e3;
      }
      out[(q + 0) * num_rows + i] = s0;
      out[(q + 1) * num_rows + i] = s1;
      out[(q + 2) * num_rows + i] = s2;
      out[(q + 3) * num_rows + i] = s3;
    }
  }
  for (; q < num_queries; ++q) {
    Avx2L2Batch(queries + q * dim, rows, num_rows, dim, out + q * num_rows);
  }
}

/// Rows [i, i + 8 * kGroups) of a column-major block: kGroups
/// independent 8-lane accumulators, each lane one row, d in order.
template <size_t kGroups>
inline void Avx2L2ColsGroups(const float* query, const float* cols,
                             size_t num_cols, size_t dim, size_t i,
                             float* out) {
  __m256 acc[kGroups];
  for (size_t g = 0; g < kGroups; ++g) {
    acc[g] = _mm256_setzero_ps();
  }
  for (size_t d = 0; d < dim; ++d) {
    const __m256 q = _mm256_set1_ps(query[d]);
    const float* col = cols + d * num_cols + i;
    for (size_t g = 0; g < kGroups; ++g) {
      const __m256 diff = _mm256_sub_ps(q, _mm256_loadu_ps(col + 8 * g));
      acc[g] = _mm256_add_ps(acc[g], _mm256_mul_ps(diff, diff));
    }
  }
  for (size_t g = 0; g < kGroups; ++g) {
    _mm256_storeu_ps(out + i + 8 * g, acc[g]);
  }
}

void Avx2L2Cols(const float* query, const float* cols, size_t num_cols,
                size_t dim, float* out) {
  size_t i = 0;
  // 32 rows per pass: four independent add chains hide add latency.
  for (; i + 32 <= num_cols; i += 32) {
    Avx2L2ColsGroups<4>(query, cols, num_cols, dim, i, out);
  }
  for (; i + 8 <= num_cols; i += 8) {
    Avx2L2ColsGroups<1>(query, cols, num_cols, dim, i, out);
  }
  for (; i < num_cols; ++i) {
    float sum = 0.0f;
    for (size_t d = 0; d < dim; ++d) {
      const float diff = query[d] - cols[d * num_cols + i];
      sum += diff * diff;
    }
    out[i] = sum;
  }
}

/// One packed block (32 codes): four 8-lane accumulators. Per
/// subspace the 32 code bytes are one contiguous 32-byte load; lane-
/// wise adds in s order keep results bit-identical to scalar.
inline void Avx2AdcPackedBlock(const float* table, const uint8_t* block,
                               size_t m, float* out) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  for (size_t s = 0; s < m; ++s) {
    const uint8_t* lanes = block + s * kPackedBlock;
    const float* row = table + s * kAdcCentroids;
    const __m256i i0 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes + 0)));
    const __m256i i1 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes + 8)));
    const __m256i i2 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes + 16)));
    const __m256i i3 = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(lanes + 24)));
    acc0 = _mm256_add_ps(acc0, _mm256_i32gather_ps(row, i0, 4));
    acc1 = _mm256_add_ps(acc1, _mm256_i32gather_ps(row, i1, 4));
    acc2 = _mm256_add_ps(acc2, _mm256_i32gather_ps(row, i2, 4));
    acc3 = _mm256_add_ps(acc3, _mm256_i32gather_ps(row, i3, 4));
  }
  _mm256_storeu_ps(out + 0, acc0);
  _mm256_storeu_ps(out + 8, acc1);
  _mm256_storeu_ps(out + 16, acc2);
  _mm256_storeu_ps(out + 24, acc3);
}

void Avx2AdcPacked(const float* table, const uint8_t* packed,
                   size_t num_codes, size_t m, float* out) {
  size_t i = 0;
  for (; i + kPackedBlock <= num_codes; i += kPackedBlock) {
    Avx2AdcPackedBlock(table, packed + i * m, m, out + i);
  }
  if (i < num_codes) {
    // Tail block: the padding lanes are zero bytes (valid table index
    // 0), so the full block computes safely; copy only the real lanes.
    float lanes[kPackedBlock];
    Avx2AdcPackedBlock(table, packed + i * m, m, lanes);
    for (size_t j = 0; i + j < num_codes; ++j) {
      out[i + j] = lanes[j];
    }
  }
}

const KernelTable kAvx2Table = {
    "avx2", Avx2L2Batch, Avx2L2Tile, Avx2L2Cols, Avx2AdcPacked,
};

}  // namespace

const KernelTable&
Avx2Kernels() {
  return kAvx2Table;
}

}  // namespace rago::ann::kernels

#endif  // RAGO_KERNELS_HAVE_AVX2
