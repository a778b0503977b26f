/**
 * @file distance_kernels_avx512.cc
 * AVX-512F/BW distance kernels. Compiled with -mavx512f -mavx512bw only
 * on x86 toolchains that accept the flags (see CMakeLists.txt); callers
 * reach this table through runtime CPUID dispatch, never directly.
 *
 * Determinism notes (mirrors distance_kernels_avx2.cc):
 *  - Each row's accumulation order is fixed: 16-lane FMA chains over
 *    the vector body (one chain per row), one horizontal sum in a fixed
 *    extract/shuffle order, then a sequential scalar remainder. Grouped
 *    (4-row / 4-query) paths perform the exact same per-row operation
 *    sequence, so batch and tile kernels are bit-identical for the same
 *    (query, row) pair regardless of grouping.
 *  - For dim < 16 the vector body is empty and the remainder loop is
 *    the scalar kernel, so tiny dims are bit-identical to scalar (the
 *    TU builds with -ffp-contract=off so the compiler cannot fuse
 *    these scalar loops into FMA and break that identity).
 *  - The column-major kernel puts one row in each lane and runs the
 *    scalar L2Sq sequence per lane (zero start, then a separate
 *    sub / mul / add per dim, never FMA), so it is bit-identical to
 *    scalar at every dim; the final partial group uses masked loads
 *    and stores.
 *  - The packed ADC kernel adds table entries in subspace order with
 *    lane-independent adds, matching scalar summation order
 *    bit-for-bit: it loads each subspace's 32 contiguous code bytes and
 *    gathers in two 16-lane groups, with a masked store for the final
 *    partial block.
 */
#include "retrieval/ann/kernels/avx512_kernels.h"

#if defined(RAGO_KERNELS_HAVE_AVX512)

#include <immintrin.h>

namespace rago::ann::kernels {
namespace {

/// Fixed-order horizontal sum over the four 128-bit quarters q0..q3:
/// ((q0 + q2) + (q1 + q3)), then pairwise within 128 bits in the same
/// shuffle order as the AVX2 TU. Every kernel funnels through this one
/// order. Immediate lane shuffles instead of _mm512_extractf32x4_ps,
/// whose _mm_undefined_ps() operand trips GCC's -Wmaybe-uninitialized
/// under inlining.
inline float HorizontalSum(__m512 v) {
  const __m512 fold2 =
      _mm512_add_ps(v, _mm512_shuffle_f32x4(v, v, _MM_SHUFFLE(1, 0, 3, 2)));
  const __m512 fold1 = _mm512_add_ps(
      fold2, _mm512_shuffle_f32x4(fold2, fold2, _MM_SHUFFLE(2, 3, 0, 1)));
  __m128 sum = _mm512_castps512_ps128(fold1);
  sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
  sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x55));
  return _mm_cvtss_f32(sum);
}

inline float L2Row(const float* query, const float* row, size_t dim) {
  __m512 acc = _mm512_setzero_ps();
  size_t d = 0;
  for (; d + 16 <= dim; d += 16) {
    const __m512 q = _mm512_loadu_ps(query + d);
    const __m512 r = _mm512_loadu_ps(row + d);
    const __m512 diff = _mm512_sub_ps(q, r);
    acc = _mm512_fmadd_ps(diff, diff, acc);
  }
  float sum = HorizontalSum(acc);
  for (; d < dim; ++d) {
    const float diff = query[d] - row[d];
    sum += diff * diff;
  }
  return sum;
}

void Avx512L2Batch(const float* query, const float* rows, size_t num_rows,
                   size_t dim, float* out) {
  size_t i = 0;
  // Four rows per pass: the query load is shared and the four FMA
  // chains are independent, hiding FMA latency behind throughput.
  for (; i + 4 <= num_rows; i += 4) {
    const float* r0 = rows + (i + 0) * dim;
    const float* r1 = rows + (i + 1) * dim;
    const float* r2 = rows + (i + 2) * dim;
    const float* r3 = rows + (i + 3) * dim;
    __m512 a0 = _mm512_setzero_ps();
    __m512 a1 = _mm512_setzero_ps();
    __m512 a2 = _mm512_setzero_ps();
    __m512 a3 = _mm512_setzero_ps();
    size_t d = 0;
    for (; d + 16 <= dim; d += 16) {
      const __m512 q = _mm512_loadu_ps(query + d);
      const __m512 d0 = _mm512_sub_ps(q, _mm512_loadu_ps(r0 + d));
      const __m512 d1 = _mm512_sub_ps(q, _mm512_loadu_ps(r1 + d));
      const __m512 d2 = _mm512_sub_ps(q, _mm512_loadu_ps(r2 + d));
      const __m512 d3 = _mm512_sub_ps(q, _mm512_loadu_ps(r3 + d));
      a0 = _mm512_fmadd_ps(d0, d0, a0);
      a1 = _mm512_fmadd_ps(d1, d1, a1);
      a2 = _mm512_fmadd_ps(d2, d2, a2);
      a3 = _mm512_fmadd_ps(d3, d3, a3);
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

void Avx512L2Tile(const float* queries, size_t num_queries, const float* rows,
                  size_t num_rows, size_t dim, float* out) {
  size_t q = 0;
  // Four queries per pass with rows in the outer loop: each row is
  // streamed from memory once and scored against all four queries.
  for (; q + 4 <= num_queries; q += 4) {
    const float* q0 = queries + (q + 0) * dim;
    const float* q1 = queries + (q + 1) * dim;
    const float* q2 = queries + (q + 2) * dim;
    const float* q3 = queries + (q + 3) * dim;
    for (size_t i = 0; i < num_rows; ++i) {
      const float* row = rows + i * dim;
      __m512 a0 = _mm512_setzero_ps();
      __m512 a1 = _mm512_setzero_ps();
      __m512 a2 = _mm512_setzero_ps();
      __m512 a3 = _mm512_setzero_ps();
      size_t d = 0;
      for (; d + 16 <= dim; d += 16) {
        const __m512 r = _mm512_loadu_ps(row + d);
        const __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(q0 + d), r);
        const __m512 d1 = _mm512_sub_ps(_mm512_loadu_ps(q1 + d), r);
        const __m512 d2 = _mm512_sub_ps(_mm512_loadu_ps(q2 + d), r);
        const __m512 d3 = _mm512_sub_ps(_mm512_loadu_ps(q3 + d), r);
        a0 = _mm512_fmadd_ps(d0, d0, a0);
        a1 = _mm512_fmadd_ps(d1, d1, a1);
        a2 = _mm512_fmadd_ps(d2, d2, a2);
        a3 = _mm512_fmadd_ps(d3, d3, a3);
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
    Avx512L2Batch(queries + q * dim, rows, num_rows, dim, out + q * num_rows);
  }
}

/// Rows [i, i + 16 * kGroups) of a column-major block: kGroups
/// independent 16-lane accumulators, each lane one row, d in order.
/// `tail` masks the loads and the store of the last group (all ones
/// for a full group); masked-off lanes are never read.
template <size_t kGroups>
inline void Avx512L2ColsGroups(const float* query, const float* cols,
                               size_t num_cols, size_t dim, size_t i,
                               __mmask16 tail, float* out) {
  __m512 acc[kGroups];
  for (size_t g = 0; g < kGroups; ++g) {
    acc[g] = _mm512_setzero_ps();
  }
  for (size_t d = 0; d < dim; ++d) {
    const __m512 q = _mm512_set1_ps(query[d]);
    const float* col = cols + d * num_cols + i;
    for (size_t g = 0; g < kGroups; ++g) {
      const __mmask16 mask = g + 1 == kGroups ? tail : __mmask16{0xFFFF};
      const __m512 diff =
          _mm512_sub_ps(q, _mm512_maskz_loadu_ps(mask, col + 16 * g));
      acc[g] = _mm512_add_ps(acc[g], _mm512_mul_ps(diff, diff));
    }
  }
  for (size_t g = 0; g + 1 < kGroups; ++g) {
    _mm512_storeu_ps(out + i + 16 * g, acc[g]);
  }
  _mm512_mask_storeu_ps(out + i + 16 * (kGroups - 1), tail,
                        acc[kGroups - 1]);
}

void Avx512L2Cols(const float* query, const float* cols, size_t num_cols,
                  size_t dim, float* out) {
  size_t i = 0;
  // 64 rows per pass: four independent add chains hide add latency.
  for (; i + 64 <= num_cols; i += 64) {
    Avx512L2ColsGroups<4>(query, cols, num_cols, dim, i, 0xFFFF, out);
  }
  for (; i + 16 <= num_cols; i += 16) {
    Avx512L2ColsGroups<1>(query, cols, num_cols, dim, i, 0xFFFF, out);
  }
  if (i < num_cols) {
    const auto tail =
        static_cast<__mmask16>((1u << (num_cols - i)) - 1u);
    Avx512L2ColsGroups<1>(query, cols, num_cols, dim, i, tail, out);
  }
}

/// One packed block (32 codes): two 16-lane accumulators. Per subspace
/// the 32 code bytes are two contiguous 16-byte loads widened to
/// 32-bit gather indices; lane-wise adds in s order keep results
/// bit-identical to scalar.
inline void Avx512AdcPackedBlock(const float* table, const uint8_t* block,
                                 size_t m, __m512* acc0, __m512* acc1) {
  __m512 a0 = _mm512_setzero_ps();
  __m512 a1 = _mm512_setzero_ps();
  for (size_t s = 0; s < m; ++s) {
    const uint8_t* lanes = block + s * kPackedBlock;
    const float* row = table + s * kAdcCentroids;
    const __m512i i0 = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes + 0)));
    const __m512i i1 = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes + 16)));
    a0 = _mm512_add_ps(a0, _mm512_i32gather_ps(i0, row, 4));
    a1 = _mm512_add_ps(a1, _mm512_i32gather_ps(i1, row, 4));
  }
  *acc0 = a0;
  *acc1 = a1;
}

void Avx512AdcPacked(const float* table, const uint8_t* packed,
                     size_t num_codes, size_t m, float* out) {
  size_t i = 0;
  __m512 acc0;
  __m512 acc1;
  for (; i + kPackedBlock <= num_codes; i += kPackedBlock) {
    Avx512AdcPackedBlock(table, packed + i * m, m, &acc0, &acc1);
    _mm512_storeu_ps(out + i, acc0);
    _mm512_storeu_ps(out + i + 16, acc1);
  }
  if (i < num_codes) {
    // Tail block: the padding lanes are zero bytes (valid table index
    // 0), so the full block computes safely; masked stores write only
    // the real lanes.
    Avx512AdcPackedBlock(table, packed + i * m, m, &acc0, &acc1);
    const size_t rem = num_codes - i;
    if (rem > 16) {
      _mm512_storeu_ps(out + i, acc0);
      _mm512_mask_storeu_ps(
          out + i + 16, static_cast<__mmask16>((1u << (rem - 16)) - 1u),
          acc1);
    } else {
      // Never form out + i + 16 here: with rem <= 16 it could point
      // past one-past-the-end of an exactly-sized output buffer.
      _mm512_mask_storeu_ps(
          out + i, static_cast<__mmask16>((1u << rem) - 1u), acc0);
    }
  }
}

const KernelTable kAvx512Table = {
    "avx512", Avx512L2Batch, Avx512L2Tile, Avx512L2Cols, Avx512AdcPacked,
};

}  // namespace

const KernelTable&
Avx512Kernels() {
  return kAvx512Table;
}

}  // namespace rago::ann::kernels

#endif  // RAGO_KERNELS_HAVE_AVX512
