/**
 * @file distance_kernels.h
 * Batched distance-kernel layer with runtime dispatch.
 *
 * Every ANN hot path in this repo reduces to one of four scan shapes:
 *  - one query against N contiguous database rows (list / leaf scans),
 *  - a micro-tile of Q queries against N contiguous rows (batched
 *    search, k-means assignment) where each row load is amortized over
 *    all Q queries,
 *  - one query against N small-dim rows stored column-major (PQ
 *    codebooks, and k-means centroids below kMinRowSimdDim): dimension
 *    d of row i sits at `cols[d * N + i]`, so each SIMD lane holds one
 *    row and accumulates over d — the codebook transposition PQ kernels
 *    use for ADC table build and encoding, where the row-major kernels
 *    would run only their scalar remainder,
 *  - an ADC pass of N product-quantizer codes against a prebuilt
 *    lookup table, over a blocked subspace-major "packed" code layout
 *    (FAISS-style transposition) where each block of kPackedBlock codes
 *    stores all first-subspace bytes contiguously, then all second-
 *    subspace bytes, and so on — one contiguous load per subspace.
 *
 * This header exposes those shapes as a function-pointer kernel table
 * with three implementations: a portable scalar reference, an AVX2/FMA
 * variant, and an AVX-512F/BW variant, selected at runtime via CPUID
 * with priority scalar < avx2 < avx512. Consumers call the
 * metric-dispatching wrappers (DistanceBatch / DistanceTile /
 * ScanRowsIntoTopK / ...) and automatically run on the fastest
 * compiled-in kernels the host supports. The RAGO_KERNEL_VARIANT
 * environment variable ("scalar", "avx2", or "avx512") caps the
 * dispatched tier for benchmarking a specific variant.
 *
 * Determinism contract:
 *  - Within one variant, the batch and tile kernels produce
 *    bit-identical values for the same (query, row) pair, and the
 *    scalar variant is bit-identical to the legacy sequential loops in
 *    distance.h. TopK keeps the k smallest candidates under the total
 *    `(dist, id)` order, so a scan's top-k is order-independent: it
 *    depends only on the distances, never on the order a scan offers
 *    them in (distances finite or +inf; NaN has no place in the order).
 *  - Across variants, SIMD reassociates the per-dimension accumulation
 *    of the *float* kernels (l2sq/dot batch and tile), so those
 *    distances may differ in the last few ulps. Exact search paths
 *    therefore return the same top-k *ids* under every variant unless
 *    two distinct rows' true distances differ by less than that
 *    reassociation error (sub-ulp near-ties); identical rows always
 *    compute identical distances within a variant, so duplicate
 *    tie-breaks never diverge. Approximate paths are pinned by recall
 *    parity. For guaranteed bit-exact cross-architecture
 *    reproducibility, force the scalar kernels via
 *    SetForceScalar(true) or the RAGO_FORCE_SCALAR_KERNELS=1
 *    environment variable.
 *  - The ulp caveat never applies to the column-major kernel: each
 *    lane accumulates its row over d = 0..dim-1 in order with a
 *    separate subtract, multiply and add (no FMA), exactly the
 *    sequence of the scalar L2Sq, so its distances are bit-identical to
 *    L2Sq at every dim in every variant. ADC tables built on it (PQ
 *    sub-space distances) are therefore bit-identical across variants
 *    at every sub_dim, and so are PQ codes and PQ codebooks.
 *  - Nor does it apply to ADC: the ADC kernel accumulates table
 *    entries in subspace order s = 0..m-1 with lane-independent adds in
 *    every variant, so ADC distances are bit-identical across variants
 *    — and to the sequential sum over a strided code — given the same
 *    table.
 *  - Degenerate ADC shapes are well-defined in every variant:
 *    num_codes == 0 writes nothing, m == 0 writes 0.0f per code.
 */
#ifndef RAGO_RETRIEVAL_ANN_KERNELS_DISTANCE_KERNELS_H
#define RAGO_RETRIEVAL_ANN_KERNELS_DISTANCE_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "retrieval/ann/distance.h"
#include "retrieval/ann/topk.h"

namespace rago::ann::kernels {

/// Centroids per PQ subspace the ADC kernels assume (8-bit codes).
inline constexpr size_t kAdcCentroids = 256;

/**
 * Smallest dim at which any variant's row-major float kernels run a
 * SIMD body (the AVX2 width). Below it every variant computes the
 * scalar remainder alone, so the column-major kernel gives the same
 * bits, faster.
 */
inline constexpr size_t kMinRowSimdDim = 8;

/**
 * Codes per block of the packed (subspace-major) ADC layout. Within a
 * block, byte `s * kPackedBlock + j` is subspace `s` of code `j`; the
 * final block of a list is zero-padded to full width. 32 lanes feed
 * the AVX2 variant four 8-lane groups and the AVX-512 variant two
 * 16-lane groups per subspace.
 */
inline constexpr size_t kPackedBlock = 32;

/**
 * One kernel implementation set. All row pointers are float32 and may
 * be unaligned; `rows` is row-major with stride `dim`.
 */
struct KernelTable {
  const char* name;  ///< "scalar", "avx2", or "avx512".

  /// out[i] = squared L2 distance of `query` to row i, i in [0, num_rows).
  void (*l2sq_batch)(const float* query, const float* rows, size_t num_rows,
                     size_t dim, float* out);

  /// out[i] = dot product of `query` with row i.
  void (*dot_batch)(const float* query, const float* rows, size_t num_rows,
                    size_t dim, float* out);

  /// Micro-tile: out[q * num_rows + i] = L2Sq(queries row q, rows row i).
  void (*l2sq_tile)(const float* queries, size_t num_queries,
                    const float* rows, size_t num_rows, size_t dim,
                    float* out);

  /// Micro-tile: out[q * num_rows + i] = Dot(queries row q, rows row i).
  void (*dot_tile)(const float* queries, size_t num_queries,
                   const float* rows, size_t num_rows, size_t dim,
                   float* out);

  /**
   * Column-major rows: out[i] = sum over d in [0, dim) of
   * (query[d] - cols[d * num_cols + i])^2, accumulated in d order with
   * no FMA — bit-identical to L2Sq(query, row i, dim) in every
   * variant. num_cols == 0 writes nothing; dim == 0 writes 0.0f per
   * row.
   */
  void (*l2sq_cols)(const float* query, const float* cols, size_t num_cols,
                    size_t dim, float* out);

  /**
   * ADC scan, packed (blocked subspace-major) layout: `packed` holds
   * ceil(num_codes / kPackedBlock) zero-padded blocks of
   * kPackedBlock * m bytes where byte
   * `block * kPackedBlock * m + s * kPackedBlock + j` is subspace `s`
   * of code `block * kPackedBlock + j`. out[i] = sum over s in [0, m)
   * of table[s * kAdcCentroids + (subspace s of code i)], added in s
   * order with lane-independent adds in every variant. Exactly
   * `num_codes` outputs are written. num_codes == 0 writes nothing;
   * m == 0 writes 0.0f per code.
   */
  void (*adc_packed)(const float* table, const uint8_t* packed,
                     size_t num_codes, size_t m, float* out);
};

/// The portable scalar reference kernels (always available).
const KernelTable& ScalarKernels();

/// True when this binary was compiled with the AVX2/FMA kernel TU.
bool Avx2KernelsCompiled();

/// Runtime CPUID probe: does this host support AVX2 and FMA?
bool CpuSupportsAvx2();

/// True when this binary was compiled with the AVX-512F/BW kernel TU.
bool Avx512KernelsCompiled();

/// Runtime CPUID probe: does this host support AVX-512F and AVX-512BW?
bool CpuSupportsAvx512();

/**
 * The compiled-in, host-supported table for a named variant ("scalar",
 * "avx2", "avx512"), independent of the dispatch state — nullptr when
 * that variant is not compiled in, not supported by this host, or the
 * name is unknown. Lets benches and tests compare specific tiers
 * side by side.
 */
const KernelTable* VariantByName(const char* name);

/**
 * Forces the scalar kernels regardless of CPU support (bit-exact
 * cross-architecture reproducibility). Overrides the
 * RAGO_FORCE_SCALAR_KERNELS environment variable, which seeds the
 * initial state (any value other than empty/"0" forces scalar).
 */
void SetForceScalar(bool force);

/// Current force-scalar state (after env-variable resolution).
bool ForceScalarActive();

/**
 * The active kernel table: the highest-priority variant (scalar <
 * avx2 < avx512) that is compiled in and supported by the host, unless
 * forced off. SetForceScalar / RAGO_FORCE_SCALAR_KERNELS pins scalar;
 * otherwise the RAGO_KERNEL_VARIANT environment variable ("scalar",
 * "avx2", "avx512"; read once on first dispatch, any other value
 * throws ConfigError) caps the tier, falling back to the best
 * available at or below the cap. Cheap enough to call per scan.
 */
const KernelTable& Active();

// ---------------------------------------------------------------------------
// Metric-dispatching conveniences over Active(). Inner-product values
// are negated (smaller = more similar), matching Distance().
// ---------------------------------------------------------------------------

/// Batched Distance(): one query vs `num_rows` contiguous rows.
void DistanceBatch(Metric metric, const float* query, const float* rows,
                   size_t num_rows, size_t dim, float* out);

/// Micro-tiled Distance(): `num_queries` x `num_rows` distance block.
void DistanceTile(Metric metric, const float* queries, size_t num_queries,
                  const float* rows, size_t num_rows, size_t dim, float* out);

/// Single-pair Distance() through the active kernels (so forced-scalar
/// runs are scalar end to end, including one-off evaluations).
float DistanceOne(Metric metric, const float* query, const float* row,
                  size_t dim);

/**
 * Scans `num_rows` contiguous rows and offers every distance to
 * `topk`, whose result is order-independent under the total
 * `(dist, id)` order.
 * Candidate ids are `ids[i]` when `ids` is non-null, else `base_id + i`.
 * Tiles internally; `scratch` is grown as needed and reusable across
 * calls.
 */
void ScanRowsIntoTopK(Metric metric, const float* query, const float* rows,
                      size_t num_rows, size_t dim, const int64_t* ids,
                      int64_t base_id, TopK& topk,
                      std::vector<float>& scratch);

/**
 * ADC-scans `num_codes` codes stored in the packed (blocked
 * subspace-major) layout — see KernelTable::adc_packed for the exact
 * byte layout — against `table` (m x kAdcCentroids, subspace-major)
 * and offers every distance to `topk`. ADC distances are bit-identical
 * across variants and TopK is order-independent under the total
 * `(dist, id)` order, so results (distances, ids, tie-breaks) are the
 * same in every variant.
 * Candidate ids are `ids[i]` when non-null, else `base_id + i`.
 */
void ScanCodesPackedIntoTopK(const float* table, const uint8_t* packed,
                             size_t num_codes, size_t m, const int64_t* ids,
                             int64_t base_id, TopK& topk,
                             std::vector<float>& scratch);

/**
 * Micro-tiled multi-query scan: streams `num_rows` contiguous rows
 * once per query tile through the tile kernel and offers every
 * (query, row) distance to `topks[query]` (candidate ids
 * `base_id + row`). Tile and batch kernels give the same distances and
 * TopK is order-independent under the total `(dist, id)` order, so
 * each result equals a per-query ScanRowsIntoTopK scan exactly.
 * `topks` must hold `num_queries` accumulators. The shared core of
 * FlatIndex::SearchBatch and the IVF coarse-centroid block ranking.
 */
void ScanTileIntoTopK(Metric metric, const float* queries,
                      size_t num_queries, const float* rows,
                      size_t num_rows, size_t dim, int64_t base_id,
                      TopK* topks);

/**
 * Index of the row nearest to `query` by squared L2 (first index wins
 * ties, matching the sequential `d < best` loops this replaces). When
 * `min_dist` is non-null it receives the winning distance.
 * `num_rows` must be positive.
 */
size_t ArgMinL2(const float* query, const float* rows, size_t num_rows,
                size_t dim, std::vector<float>& scratch,
                float* min_dist = nullptr);

/**
 * ArgMinL2 over `num_cols` column-major rows (the l2sq_cols layout),
 * with the same first-index-wins tie-break. `num_cols` must be
 * positive.
 */
size_t ArgMinL2Cols(const float* query, const float* cols, size_t num_cols,
                    size_t dim, std::vector<float>& scratch,
                    float* min_dist = nullptr);

// ---------------------------------------------------------------------------
// Overloads backed by one per-thread reusable scratch buffer. The scan
// helpers never nest (none calls another), so a single thread-local
// buffer suffices and per-query call sites stay allocation-free after
// a thread's first scan. Prefer the explicit-scratch overloads only
// when a caller already owns a buffer (e.g. HnswIndex::Scratch).
// ---------------------------------------------------------------------------

void ScanRowsIntoTopK(Metric metric, const float* query, const float* rows,
                      size_t num_rows, size_t dim, const int64_t* ids,
                      int64_t base_id, TopK& topk);

void ScanCodesPackedIntoTopK(const float* table, const uint8_t* packed,
                             size_t num_codes, size_t m, const int64_t* ids,
                             int64_t base_id, TopK& topk);

size_t ArgMinL2(const float* query, const float* rows, size_t num_rows,
                size_t dim, float* min_dist = nullptr);

size_t ArgMinL2Cols(const float* query, const float* cols, size_t num_cols,
                    size_t dim, float* min_dist = nullptr);

}  // namespace rago::ann::kernels

#endif  // RAGO_RETRIEVAL_ANN_KERNELS_DISTANCE_KERNELS_H
