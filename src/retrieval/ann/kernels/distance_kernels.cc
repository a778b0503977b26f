#include "retrieval/ann/kernels/distance_kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/check.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/kernels/avx2_kernels.h"
#include "retrieval/ann/kernels/avx512_kernels.h"

namespace rago::ann::kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernels. The per-row loops are bit-identical to the
// sequential L2Sq in distance.cc — the batch shape changes only where
// the loop lives, not the accumulation order — so forcing scalar
// reproduces pre-kernel-layer results exactly.
// ---------------------------------------------------------------------------

void ScalarL2Batch(const float* query, const float* rows, size_t num_rows,
                   size_t dim, float* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = L2Sq(query, rows + i * dim, dim);
  }
}

void ScalarL2Tile(const float* queries, size_t num_queries, const float* rows,
                  size_t num_rows, size_t dim, float* out) {
  for (size_t q = 0; q < num_queries; ++q) {
    ScalarL2Batch(queries + q * dim, rows, num_rows, dim, out + q * num_rows);
  }
}

void ScalarL2Cols(const float* __restrict query,
                  const float* __restrict cols, size_t num_cols,
                  size_t dim, float* __restrict out) {
  // d outer, rows inner: each out[i] takes the same zero-start,
  // d-ordered sub/mul/add sequence as L2Sq, and the inner loop runs
  // over independent rows, so the compiler may vectorize it without
  // reassociating anything. __restrict tells it `out` aliases neither
  // input, so no runtime alias check is needed (CMakeLists.txt gives
  // this TU the cost model that vectorizes the loop at -O2).
  for (size_t i = 0; i < num_cols; ++i) {
    out[i] = 0.0f;
  }
  for (size_t d = 0; d < dim; ++d) {
    const float q = query[d];
    const float* col = cols + d * num_cols;
    for (size_t i = 0; i < num_cols; ++i) {
      const float diff = q - col[i];
      out[i] += diff * diff;
    }
  }
}

void ScalarAdcPacked(const float* table, const uint8_t* packed,
                     size_t num_codes, size_t m, float* out) {
  // Per code: walk its lane down the block's subspace-major rows in
  // s order. num_codes == 0 writes nothing and m == 0 yields 0.0f per
  // code by construction — the documented degenerate-shape contract.
  for (size_t i = 0; i < num_codes; ++i) {
    const uint8_t* block =
        packed + (i / kPackedBlock) * kPackedBlock * m;
    const size_t lane = i % kPackedBlock;
    float dist = 0.0f;
    for (size_t s = 0; s < m; ++s) {
      dist += table[s * kAdcCentroids + block[s * kPackedBlock + lane]];
    }
    out[i] = dist;
  }
}

const KernelTable kScalarTable = {
    "scalar", ScalarL2Batch, ScalarL2Tile, ScalarL2Cols, ScalarAdcPacked,
};

// ---------------------------------------------------------------------------
// Dispatch state. The force-scalar flag seeds from the environment on
// first query; SetForceScalar overrides it afterwards.
// ---------------------------------------------------------------------------

// -1 = unresolved (read the environment), 0 = dispatched, 1 = scalar.
std::atomic<int> g_force_scalar{-1};

bool EnvForcesScalar() {
  const char* value = std::getenv("RAGO_FORCE_SCALAR_KERNELS");
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

/// Dispatch priority tiers: scalar < avx2 < avx512.
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The RAGO_KERNEL_VARIANT cap, or the top tier when unset/empty.
Tier EnvTierCap() {
  const char* value = std::getenv("RAGO_KERNEL_VARIANT");
  if (value == nullptr || value[0] == '\0') {
    return Tier::kAvx512;
  }
  if (std::strcmp(value, "scalar") == 0) {
    return Tier::kScalar;
  }
  if (std::strcmp(value, "avx2") == 0) {
    return Tier::kAvx2;
  }
  if (std::strcmp(value, "avx512") == 0) {
    return Tier::kAvx512;
  }
  RAGO_REQUIRE(false, std::string("RAGO_KERNEL_VARIANT must be scalar, "
                                  "avx2, or avx512; got \"") +
                          value + "\"");
  return Tier::kScalar;  // Unreachable.
}

/// The best compiled-in, host-supported table at or below `cap`.
const KernelTable& BestTableUpTo(Tier cap) {
#if defined(RAGO_KERNELS_HAVE_AVX512)
  if (cap >= Tier::kAvx512 && CpuSupportsAvx512()) {
    return Avx512Kernels();
  }
#endif
#if defined(RAGO_KERNELS_HAVE_AVX2)
  if (cap >= Tier::kAvx2 && CpuSupportsAvx2()) {
    return Avx2Kernels();
  }
#endif
  (void)cap;
  return kScalarTable;
}

/// Rows-per-tile for the TopK / argmin scan helpers: big enough to
/// amortize kernel-call overhead, small enough that the distance
/// scratch stays L1/L2-resident for any realistic dim.
constexpr size_t kScanTile = 512;

/// Multi-query tile shape for ScanTileIntoTopK: 8 queries x 1024 rows
/// of distances is a 32 KB scratch block (L1/L2-resident at any dim),
/// and 8 queries per row pass feed the 4-query micro-tile kernel two
/// full groups.
constexpr size_t kQueryTile = 8;
constexpr size_t kRowTile = 1024;

/// The per-thread distance buffer behind the scan helpers.
std::vector<float>& TlsScratch() {
  static thread_local std::vector<float> scratch;
  return scratch;
}

}  // namespace

const KernelTable&
ScalarKernels() {
  return kScalarTable;
}

bool
Avx2KernelsCompiled() {
#if defined(RAGO_KERNELS_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool
CpuSupportsAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool
Avx512KernelsCompiled() {
#if defined(RAGO_KERNELS_HAVE_AVX512)
  return true;
#else
  return false;
#endif
}

bool
CpuSupportsAvx512() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512bw");
  return supported;
#else
  return false;
#endif
}

const KernelTable*
VariantByName(const char* name) {
  if (name == nullptr) {
    return nullptr;
  }
  if (std::strcmp(name, "scalar") == 0) {
    return &kScalarTable;
  }
#if defined(RAGO_KERNELS_HAVE_AVX2)
  if (std::strcmp(name, "avx2") == 0 && CpuSupportsAvx2()) {
    return &Avx2Kernels();
  }
#endif
#if defined(RAGO_KERNELS_HAVE_AVX512)
  if (std::strcmp(name, "avx512") == 0 && CpuSupportsAvx512()) {
    return &Avx512Kernels();
  }
#endif
  return nullptr;
}

void
SetForceScalar(bool force) {
  g_force_scalar.store(force ? 1 : 0, std::memory_order_relaxed);
}

bool
ForceScalarActive() {
  int state = g_force_scalar.load(std::memory_order_relaxed);
  if (state < 0) {
    state = EnvForcesScalar() ? 1 : 0;
    g_force_scalar.store(state, std::memory_order_relaxed);
  }
  return state == 1;
}

const KernelTable&
Active() {
  if (ForceScalarActive()) {
    return kScalarTable;
  }
  // The env cap is parsed once; the resolved table is immutable for
  // the process lifetime (force-scalar remains the only runtime knob).
  static const KernelTable& dispatched = BestTableUpTo(EnvTierCap());
  return dispatched;
}

void
DistanceBatch(const float* query, const float* rows, size_t num_rows,
              size_t dim, float* out) {
  Active().l2sq_batch(query, rows, num_rows, dim, out);
}

void
DistanceTile(const float* queries, size_t num_queries, const float* rows,
             size_t num_rows, size_t dim, float* out) {
  Active().l2sq_tile(queries, num_queries, rows, num_rows, dim, out);
}

float
DistanceOne(const float* query, const float* row, size_t dim) {
  float out = 0.0f;
  DistanceBatch(query, row, 1, dim, &out);
  return out;
}

void
ScanRowsIntoTopK(const float* query, const float* rows, size_t num_rows,
                 size_t dim, const int64_t* ids, int64_t base_id,
                 TopK& topk) {
  if (num_rows == 0) {
    return;
  }
  const size_t tile = num_rows < kScanTile ? num_rows : kScanTile;
  std::vector<float>& scratch = TlsScratch();
  if (scratch.size() < tile) {
    scratch.resize(tile);
  }
  const KernelTable& kernels = Active();
  for (size_t start = 0; start < num_rows; start += tile) {
    const size_t count =
        num_rows - start < tile ? num_rows - start : tile;
    kernels.l2sq_batch(query, rows + start * dim, count, dim,
                       scratch.data());
    for (size_t i = 0; i < count; ++i) {
      const size_t row = start + i;
      topk.Push(scratch[i],
                ids != nullptr ? ids[row]
                               : base_id + static_cast<int64_t>(row));
    }
  }
}

void
ScanCodesPackedIntoTopK(const float* table, const uint8_t* packed,
                        size_t num_codes, size_t m, const int64_t* ids,
                        int64_t base_id, TopK& topk) {
  if (num_codes == 0) {
    return;
  }
  // kScanTile is a multiple of kPackedBlock, so every tile starts on a
  // block boundary and the packed offset is simply start * m.
  static_assert(kScanTile % kPackedBlock == 0,
                "scan tile must cover whole packed blocks");
  const size_t tile = num_codes < kScanTile ? num_codes : kScanTile;
  std::vector<float>& scratch = TlsScratch();
  if (scratch.size() < tile) {
    scratch.resize(tile);
  }
  const KernelTable& kernels = Active();
  for (size_t start = 0; start < num_codes; start += tile) {
    const size_t count =
        num_codes - start < tile ? num_codes - start : tile;
    kernels.adc_packed(table, packed + start * m, count, m,
                       scratch.data());
    for (size_t i = 0; i < count; ++i) {
      const size_t code = start + i;
      topk.Push(scratch[i],
                ids != nullptr ? ids[code]
                               : base_id + static_cast<int64_t>(code));
    }
  }
}

void
ScanTileIntoTopK(const float* queries, size_t num_queries, const float* rows,
                 size_t num_rows, size_t dim, int64_t base_id, TopK* topks) {
  // Rows in the outer loop: each row tile is streamed once and scored
  // against every query. TopK is order-independent, so results are
  // bit-identical to a per-query scan for any tiling. Scratch comes
  // from the shared per-thread buffer (this helper never nests with
  // the other scan helpers).
  std::vector<float>& dists = TlsScratch();
  if (dists.size() < kQueryTile * kRowTile) {
    dists.resize(kQueryTile * kRowTile);
  }
  const KernelTable& kernels = Active();
  for (size_t row0 = 0; row0 < num_rows; row0 += kRowTile) {
    const size_t rows_here =
        num_rows - row0 < kRowTile ? num_rows - row0 : kRowTile;
    for (size_t query0 = 0; query0 < num_queries; query0 += kQueryTile) {
      const size_t queries_here = num_queries - query0 < kQueryTile
                                      ? num_queries - query0
                                      : kQueryTile;
      kernels.l2sq_tile(queries + query0 * dim, queries_here,
                        rows + row0 * dim, rows_here, dim, dists.data());
      for (size_t q = 0; q < queries_here; ++q) {
        TopK& topk = topks[query0 + q];
        const float* row_dists = dists.data() + q * rows_here;
        for (size_t i = 0; i < rows_here; ++i) {
          topk.Push(row_dists[i],
                    base_id + static_cast<int64_t>(row0 + i));
        }
      }
    }
  }
}

size_t
ArgMinL2(const float* query, const float* rows, size_t num_rows, size_t dim,
         float* min_dist) {
  RAGO_CHECK(num_rows > 0, "ArgMinL2 requires at least one row");
  const size_t tile = num_rows < kScanTile ? num_rows : kScanTile;
  std::vector<float>& scratch = TlsScratch();
  if (scratch.size() < tile) {
    scratch.resize(tile);
  }
  const KernelTable& kernels = Active();
  size_t best = 0;
  float best_dist = 0.0f;
  bool first = true;
  for (size_t start = 0; start < num_rows; start += tile) {
    const size_t count =
        num_rows - start < tile ? num_rows - start : tile;
    kernels.l2sq_batch(query, rows + start * dim, count, dim,
                       scratch.data());
    for (size_t i = 0; i < count; ++i) {
      // Strict < keeps the first occurrence of the minimum, matching
      // the sequential loops this replaces.
      if (first || scratch[i] < best_dist) {
        best_dist = scratch[i];
        best = start + i;
        first = false;
      }
    }
  }
  if (min_dist != nullptr) {
    *min_dist = best_dist;
  }
  return best;
}

size_t
ArgMinL2Cols(const float* query, const float* cols, size_t num_cols,
             size_t dim, std::vector<float>& scratch, float* min_dist) {
  RAGO_CHECK(num_cols > 0, "ArgMinL2Cols requires at least one row");
  if (scratch.size() < num_cols) {
    scratch.resize(num_cols);
  }
  Active().l2sq_cols(query, cols, num_cols, dim, scratch.data());
  size_t best = 0;
  for (size_t i = 1; i < num_cols; ++i) {
    // Strict < keeps the first occurrence of the minimum.
    if (scratch[i] < scratch[best]) {
      best = i;
    }
  }
  if (min_dist != nullptr) {
    *min_dist = scratch[best];
  }
  return best;
}

size_t
ArgMinL2Cols(const float* query, const float* cols, size_t num_cols,
             size_t dim, float* min_dist) {
  return ArgMinL2Cols(query, cols, num_cols, dim, TlsScratch(), min_dist);
}

}  // namespace rago::ann::kernels
