/**
 * @file kernel_dispatch_selftest.cc
 * Standalone kernel-dispatch selftest (no GTest dependency).
 *
 * Prints the compiled/detected/active kernel variants, then checks the
 * dispatch invariants fast enough for every CI job: scalar/dispatched
 * value agreement across remainder-lane dims, batch-vs-tile
 * bit-identity, column-major (ADC table build) and ADC bit-identity
 * against scalar references, and the force-scalar override.
 * CTest runs it twice — dispatched, and with RAGO_FORCE_SCALAR_KERNELS
 * set — so the scalar fallback path stays green on non-AVX runners.
 * Exits 0 on success, 1 on the first failed check.
 */
#include <cmath>
#include <cstdio>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/packed_codes.h"

namespace {

using rago::Rng;
namespace kernels = rago::ann::kernels;

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<float> RandomBlock(Rng& rng, size_t count) {
  std::vector<float> out(count);
  for (float& x : out) {
    x = static_cast<float>(rng.NextGaussian());
  }
  return out;
}

void CheckVariantAgreement() {
  Rng rng(101);
  for (size_t dim : {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{64},
                     size_t{100}}) {
    const size_t rows = 13;
    const std::vector<float> query = RandomBlock(rng, dim);
    const std::vector<float> data = RandomBlock(rng, rows * dim);
    std::vector<float> scalar_l2(rows);
    std::vector<float> active_l2(rows);
    kernels::ScalarKernels().l2sq_batch(query.data(), data.data(), rows, dim,
                                        scalar_l2.data());
    kernels::Active().l2sq_batch(query.data(), data.data(), rows, dim,
                                 active_l2.data());
    for (size_t i = 0; i < rows; ++i) {
      const float l2_scale = std::fmax(std::fabs(scalar_l2[i]), 1.0f);
      Check(std::fabs(scalar_l2[i] - active_l2[i]) <= 1e-5f * l2_scale,
            "l2sq_batch scalar/active agreement");
    }
    // Tile must be bit-identical to batch within the active variant.
    const size_t queries = 5;
    const std::vector<float> query_block = RandomBlock(rng, queries * dim);
    std::vector<float> tiled(queries * rows);
    std::vector<float> batched(rows);
    kernels::Active().l2sq_tile(query_block.data(), queries, data.data(),
                                rows, dim, tiled.data());
    for (size_t q = 0; q < queries; ++q) {
      kernels::Active().l2sq_batch(query_block.data() + q * dim, data.data(),
                                   rows, dim, batched.data());
      for (size_t i = 0; i < rows; ++i) {
        Check(tiled[q * rows + i] == batched[i],
              "l2sq_tile bit-identical to l2sq_batch");
      }
    }
  }
}

void CheckColumnMajorAgreement() {
  // The ADC table-build shape (256 centroid lanes) plus a partial
  // group, at sub_dims below, at and above the SIMD widths: the active
  // variant must equal the scalar L2Sq bit for bit.
  Rng rng(103);
  for (size_t dim : {size_t{1}, size_t{4}, size_t{8}, size_t{12},
                     size_t{17}}) {
    for (size_t n : {size_t{256}, size_t{21}}) {
      const std::vector<float> query = RandomBlock(rng, dim);
      const std::vector<float> cols = RandomBlock(rng, dim * n);
      std::vector<float> out(n);
      kernels::Active().l2sq_cols(query.data(), cols.data(), n, dim,
                                  out.data());
      std::vector<float> row(dim);
      for (size_t i = 0; i < n; ++i) {
        for (size_t d = 0; d < dim; ++d) {
          row[d] = cols[d * n + i];
        }
        Check(out[i] == rago::ann::L2Sq(query.data(), row.data(), dim),
              "l2sq_cols bit-identical to scalar L2Sq");
      }
    }
  }
}

void CheckAdcAgreement() {
  Rng rng(102);
  const size_t m = 8;
  const size_t codes = 53;  // Partial packed tail block.
  const std::vector<float> table =
      RandomBlock(rng, m * kernels::kAdcCentroids);
  std::vector<uint8_t> code_block(codes * m);
  for (uint8_t& c : code_block) {
    c = static_cast<uint8_t>(rng.NextBounded(kernels::kAdcCentroids));
  }
  const rago::ann::PackedCodes packed(code_block.data(), codes, m);
  std::vector<float> packed_out(codes);
  kernels::Active().adc_packed(table.data(), packed.data(), codes, m,
                               packed_out.data());
  for (size_t i = 0; i < codes; ++i) {
    // Scalar reference: subspace-order sum over the strided code.
    float reference = 0.0f;
    for (size_t s = 0; s < m; ++s) {
      reference +=
          table[s * kernels::kAdcCentroids + code_block[i * m + s]];
    }
    Check(reference == packed_out[i],
          "adc_packed bit-identical to the scalar strided sum");
  }
}

void CheckForceScalarOverride() {
  const bool was_forced = kernels::ForceScalarActive();
  kernels::SetForceScalar(true);
  Check(kernels::ForceScalarActive(), "SetForceScalar(true) sticks");
  Check(std::string_view(kernels::Active().name) == "scalar",
        "forced-scalar dispatch returns the scalar table");
  kernels::SetForceScalar(was_forced);
}

}  // namespace

int main() {
  std::printf("kernel dispatch selftest\n");
  std::printf("  avx2 compiled:    %s\n",
              kernels::Avx2KernelsCompiled() ? "yes" : "no");
  std::printf("  avx2 supported:   %s\n",
              kernels::CpuSupportsAvx2() ? "yes" : "no");
  std::printf("  avx512 compiled:  %s\n",
              kernels::Avx512KernelsCompiled() ? "yes" : "no");
  std::printf("  avx512 supported: %s\n",
              kernels::CpuSupportsAvx512() ? "yes" : "no");
  std::printf("  force scalar:     %s\n",
              kernels::ForceScalarActive() ? "yes" : "no");
  std::printf("  active variant:   %s\n", kernels::Active().name);

  CheckVariantAgreement();
  CheckColumnMajorAgreement();
  CheckAdcAgreement();
  CheckForceScalarOverride();

  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("all checks passed\n");
  return 0;
}
