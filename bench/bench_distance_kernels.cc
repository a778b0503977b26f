/**
 * @file bench_distance_kernels.cc
 * Distance-kernel micro-benchmark: GB/s and distance evals/s per
 * compiled kernel variant (scalar / avx2 / avx512) for the batched
 * L2, multi-query L2 micro-tile, PQ ADC table-build
 * (column-major codebooks) and packed (fast-scan) ADC kernels, plus
 * the headline speedups: batched-AVX2 vs scalar-single-row, and each
 * variant's table build and packed ADC vs scalar. The working set is
 * sized to stay cache-resident so the numbers reflect kernel
 * arithmetic, not DRAM.
 *
 * Accepts `--json out.json` like the other harnesses. The report is
 * printed on any host — including non-AVX or 1-core containers, where
 * the dispatched variant simply equals scalar; speedup-band
 * enforcement lives in multi-core CI, not here (see ROADMAP).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/packed_codes.h"

namespace {

using Clock = std::chrono::steady_clock;
using rago::Rng;
namespace kernels = rago::ann::kernels;

/// Keeps measured loops from being optimized away.
volatile float g_sink = 0.0f;

struct Measurement {
  double seconds = 0.0;
  int64_t reps = 0;
};

/// Runs `body` until ~0.2 s has elapsed (at least 3 reps) and returns
/// total time and rep count.
template <typename Body>
Measurement MeasureFor(Body&& body) {
  constexpr double kTargetSeconds = 0.2;
  Measurement m;
  const Clock::time_point start = Clock::now();
  do {
    body();
    ++m.reps;
    m.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
  } while (m.seconds < kTargetSeconds || m.reps < 3);
  return m;
}

struct KernelResult {
  std::string kernel;
  std::string variant;
  double gb_per_sec = 0.0;
  double evals_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rago;
  using namespace rago::bench;

  // 4096 x 128-d float rows = 2 MB: streams from L2/L3, so variants
  // are compared on kernel arithmetic rather than DRAM bandwidth.
  const size_t rows = 4096;
  const size_t dim = 128;
  const size_t tile_queries = 8;
  const size_t pq_m = 16;
  // ADC table build in the serving benchmark's IVF-PQ shape: 8
  // subspaces x 256 centroids x sub_dim 4, one table per query.
  const size_t build_m = 8;
  const size_t build_sub_dim = 4;
  const size_t build_queries = rows / kernels::kAdcCentroids;
  Rng rng(99);
  std::vector<float> data(rows * dim);
  for (float& x : data) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> queries(tile_queries * dim);
  for (float& x : queries) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> adc_table(pq_m * kernels::kAdcCentroids);
  for (float& x : adc_table) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<uint8_t> codes(rows * pq_m);
  for (uint8_t& c : codes) {
    c = static_cast<uint8_t>(rng.NextBounded(kernels::kAdcCentroids));
  }
  const rago::ann::PackedCodes packed(codes.data(), rows, pq_m);
  std::vector<float> codebooks(build_m * build_sub_dim *
                               kernels::kAdcCentroids);
  for (float& x : codebooks) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> build_queries_data(build_queries * build_m *
                                        build_sub_dim);
  for (float& x : build_queries_data) {
    x = static_cast<float>(rng.NextGaussian());
  }
  std::vector<float> out(tile_queries * rows);

  Banner("Distance-kernel throughput (4096 x 128-d rows, cache-resident)");
  std::printf(
      "avx2 compiled: %s | avx2 supported: %s | avx512 compiled: %s | "
      "avx512 supported: %s | dispatched: %s%s\n",
      kernels::Avx2KernelsCompiled() ? "yes" : "no",
      kernels::CpuSupportsAvx2() ? "yes" : "no",
      kernels::Avx512KernelsCompiled() ? "yes" : "no",
      kernels::CpuSupportsAvx512() ? "yes" : "no", kernels::Active().name,
      kernels::ForceScalarActive() ? " (forced)" : "");

  const double row_bytes = static_cast<double>(rows * dim * sizeof(float));
  const double code_bytes = static_cast<double>(rows * pq_m);
  const double table_entries =
      static_cast<double>(build_queries * build_m * kernels::kAdcCentroids);
  // Each table build streams the whole codebook once.
  const double codebook_bytes = static_cast<double>(
      build_queries * codebooks.size() * sizeof(float));
  std::vector<KernelResult> results;

  // The scalar-single-row baseline the acceptance speedup is defined
  // against: one kernel invocation per row, like the legacy per-row
  // Distance() loops the batched layer replaced.
  double scalar_single_evals_per_sec = 0.0;
  {
    const kernels::KernelTable& scalar = kernels::ScalarKernels();
    const Measurement m = MeasureFor([&] {
      for (size_t i = 0; i < rows; ++i) {
        scalar.l2sq_batch(queries.data(), data.data() + i * dim, 1, dim,
                          out.data() + i);
      }
      g_sink += out[rows / 2];
    });
    const double per_sec = static_cast<double>(m.reps) / m.seconds;
    scalar_single_evals_per_sec = per_sec * static_cast<double>(rows);
    results.push_back({"l2sq_single_row", "scalar", per_sec * row_bytes / 1e9,
                       scalar_single_evals_per_sec});
  }

  struct Variant {
    const char* name;
    const kernels::KernelTable* table;
  };
  // Every compiled-in, host-supported tier side by side.
  std::vector<Variant> variants;
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    if (const kernels::KernelTable* table = kernels::VariantByName(name)) {
      variants.push_back({name, table});
    }
  }

  double avx2_batch_evals_per_sec = 0.0;
  struct Speedups {
    std::string variant;
    double table_build_evals_per_sec = 0.0;
    double adc_packed_evals_per_sec = 0.0;
  };
  std::vector<Speedups> speedups;
  for (const Variant& variant : variants) {
    const kernels::KernelTable& table = *variant.table;
    Speedups row;
    row.variant = variant.name;
    {
      const Measurement m = MeasureFor([&] {
        table.l2sq_batch(queries.data(), data.data(), rows, dim, out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      results.push_back({"l2sq_batch", variant.name,
                         per_sec * row_bytes / 1e9,
                         per_sec * static_cast<double>(rows)});
      if (std::string(variant.name) == "avx2") {
        avx2_batch_evals_per_sec = per_sec * static_cast<double>(rows);
      }
    }
    {
      const Measurement m = MeasureFor([&] {
        table.l2sq_tile(queries.data(), tile_queries, data.data(), rows, dim,
                        out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      // The tile streams each row once for all queries: bytes touched
      // stay one pass, evals multiply by the query count.
      results.push_back(
          {"l2sq_tile_q8", variant.name, per_sec * row_bytes / 1e9,
           per_sec * static_cast<double>(rows * tile_queries)});
    }
    {
      const Measurement m = MeasureFor([&] {
        for (size_t q = 0; q < build_queries; ++q) {
          for (size_t sub = 0; sub < build_m; ++sub) {
            table.l2sq_cols(
                build_queries_data.data() +
                    (q * build_m + sub) * build_sub_dim,
                codebooks.data() +
                    sub * build_sub_dim * kernels::kAdcCentroids,
                kernels::kAdcCentroids, build_sub_dim,
                out.data() + (q * build_m + sub) * kernels::kAdcCentroids);
          }
        }
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      row.table_build_evals_per_sec = per_sec * table_entries;
      results.push_back({"pq_table_build_m8", variant.name,
                         per_sec * codebook_bytes / 1e9,
                         row.table_build_evals_per_sec});
    }
    {
      const Measurement m = MeasureFor([&] {
        table.adc_packed(adc_table.data(), packed.data(), rows, pq_m,
                         out.data());
        g_sink += out[rows / 2];
      });
      const double per_sec = static_cast<double>(m.reps) / m.seconds;
      row.adc_packed_evals_per_sec = per_sec * static_cast<double>(rows);
      results.push_back({"adc_packed_m16", variant.name,
                         per_sec * code_bytes / 1e9,
                         row.adc_packed_evals_per_sec});
    }
    speedups.push_back(row);
  }

  TextTable table_out;
  table_out.SetHeader({"kernel", "variant", "GB/s", "evals/s"});
  for (const KernelResult& r : results) {
    table_out.AddRow({r.kernel, r.variant, TextTable::Num(r.gb_per_sec, 4),
                      TextTable::Num(r.evals_per_sec, 4)});
  }
  table_out.Print();

  const double speedup =
      avx2_batch_evals_per_sec > 0.0
          ? avx2_batch_evals_per_sec / scalar_single_evals_per_sec
          : 0.0;
  if (avx2_batch_evals_per_sec > 0.0) {
    std::printf(
        "\nAVX2 batched L2 vs scalar single-row: %.2fx "
        "(acceptance band: >= 4x on AVX2 hosts; enforced in CI, "
        "reported everywhere)\n",
        speedup);
  } else {
    std::printf(
        "\nAVX2 kernels unavailable on this host; scalar-only report "
        "(speedup band deferred to AVX2 CI runners)\n");
  }
  // The scalar variant always runs first, so speedups[0] is the base.
  auto ratio = [](double value, double base) {
    return base > 0.0 ? value / base : 0.0;
  };
  const Speedups& scalar_row = speedups.front();
  for (size_t v = 1; v < speedups.size(); ++v) {
    const Speedups& row = speedups[v];
    std::printf("%s vs scalar: ADC table build %.2fx, packed ADC %.2fx\n",
                row.variant.c_str(),
                ratio(row.table_build_evals_per_sec,
                      scalar_row.table_build_evals_per_sec),
                ratio(row.adc_packed_evals_per_sec,
                      scalar_row.adc_packed_evals_per_sec));
  }

  JsonWriter json = StartBenchJson("distance_kernels");
  json.Key("rows").Int(static_cast<int64_t>(rows));
  json.Key("dim").Int(static_cast<int64_t>(dim));
  json.Key("tile_queries").Int(static_cast<int64_t>(tile_queries));
  json.Key("pq_subspaces").Int(static_cast<int64_t>(pq_m));
  json.Key("avx2_compiled").Bool(kernels::Avx2KernelsCompiled());
  json.Key("avx2_supported").Bool(kernels::CpuSupportsAvx2());
  json.Key("avx512_compiled").Bool(kernels::Avx512KernelsCompiled());
  json.Key("avx512_supported").Bool(kernels::CpuSupportsAvx512());
  json.Key("avx2_batch_vs_scalar_single_speedup").Number(speedup);
  json.Key("pq_table_build_shape").BeginObject();
  json.Key("queries").Int(static_cast<int64_t>(build_queries));
  json.Key("subspaces").Int(static_cast<int64_t>(build_m));
  json.Key("sub_dim").Int(static_cast<int64_t>(build_sub_dim));
  json.EndObject();
  json.Key("speedups_vs_scalar").BeginArray();
  for (const Speedups& row : speedups) {
    json.BeginObject();
    json.Key("variant").String(row.variant);
    json.Key("pq_table_build")
        .Number(ratio(row.table_build_evals_per_sec,
                      scalar_row.table_build_evals_per_sec));
    json.Key("adc_packed")
        .Number(ratio(row.adc_packed_evals_per_sec,
                      scalar_row.adc_packed_evals_per_sec));
    json.EndObject();
  }
  json.EndArray();
  json.Key("results").BeginArray();
  for (const KernelResult& r : results) {
    json.BeginObject();
    json.Key("kernel").String(r.kernel);
    json.Key("variant").String(r.variant);
    json.Key("gb_per_sec").Number(r.gb_per_sec);
    json.Key("evals_per_sec").Number(r.evals_per_sec);
    json.EndObject();
  }
  json.EndArray();
  FinishBenchJson(json, JsonOutputPath(argc, argv));
  return 0;
}
