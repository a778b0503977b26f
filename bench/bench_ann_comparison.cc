/**
 * @file bench_ann_comparison.cc
 * Substrate study (paper §2's algorithm discussion): IVF-PQ versus a
 * graph index (HNSW) versus the ScaNN-style tree on the same synthetic
 * corpus. The paper argues IVF-PQ wins at RAG hyperscale because of
 * memory efficiency even though graphs do less work per query; this
 * harness quantifies both sides: recall, distance evaluations /
 * scanned bytes per query, and index memory.
 */
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/hnsw_index.h"
#include "retrieval/ann/ivfpq_index.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/recall.h"
#include "retrieval/ann/scann_tree.h"

int main(int argc, char** argv) {
  using namespace rago;
  using namespace rago::bench;
  using namespace rago::ann;

  const size_t n = 20'000;
  const size_t dim = 64;
  Rng rng(77);
  const Matrix data = GenClustered(n, dim, 64, 0.3f, rng);
  const Matrix queries = GenQueriesNear(data, 32, 0.1f, rng);

  const FlatIndex flat(data.Clone());
  const std::vector<std::vector<Neighbor>> truth =
      flat.SearchBatch(queries, 10);

  // Every scan below runs through the dispatched distance kernels;
  // record which variant priced this run so perf trajectories across
  // hosts stay comparable.
  const char* kernel_variant = kernels::Active().name;

  Banner("ANN algorithm comparison (20K x 64-d clustered vectors)");
  TextTable table;
  table.SetHeader({"index", "setting", "kernel", "recall@10", "work/query",
                   "index bytes/vector"});

  JsonWriter json = StartBenchJson("ann_comparison");
  json.Key("rows").Int(static_cast<int64_t>(n));
  json.Key("dim").Int(static_cast<int64_t>(dim));
  json.Key("kernel_variant").String(kernel_variant);
  json.Key("results").BeginArray();
  // One record per table row; `work_per_query` is scanned bytes for
  // the PQ-based indexes and distance evaluations for the graph.
  auto record = [&json, kernel_variant](
                    const char* index, const std::string& setting,
                    double recall, double work, const char* work_unit,
                    double bytes_per_vector) {
    json.BeginObject();
    json.Key("index").String(index);
    json.Key("setting").String(setting);
    json.Key("kernel").String(kernel_variant);
    json.Key("recall_at_10").Number(recall);
    json.Key("work_per_query").Number(work);
    json.Key("work_unit").String(work_unit);
    json.Key("index_bytes_per_vector").Number(bytes_per_vector);
    json.EndObject();
  };

  // IVF-PQ: 8-byte codes + coarse centroids.
  {
    IvfPqOptions options;
    options.nlist = 128;
    options.pq_subspaces = 8;
    Rng build_rng(1);
    const IvfPqIndex index(data.Clone(), options, build_rng);
    for (int nprobe : {4, 16, 64}) {
      const auto results = index.SearchBatch(queries, 10, nprobe, 100);
      const double recall = MeanRecallAtK(results, truth, 10);
      const double bytes_per_vector = 8.0 + 128.0 * dim * 4 / n;
      table.AddRow({"IVF-PQ", "nprobe=" + std::to_string(nprobe),
                    kernel_variant, TextTable::Num(recall, 3),
                    TextTable::Num(index.ExpectedScannedBytes(nprobe), 4) +
                        " B scanned",
                    TextTable::Num(bytes_per_vector, 3)});
      record("IVF-PQ", "nprobe=" + std::to_string(nprobe), recall,
             index.ExpectedScannedBytes(nprobe), "bytes", bytes_per_vector);
    }
  }

  // ScaNN-style tree.
  {
    ScannTreeOptions options;
    options.levels = 2;
    options.fanout = 16;
    options.pq_subspaces = 8;
    Rng build_rng(2);
    const ScannTree tree(data.Clone(), options, build_rng);
    for (int beam : {4, 16, 64}) {
      const auto results = tree.SearchBatch(queries, 10, beam, 100);
      const double recall = MeanRecallAtK(results, truth, 10);
      table.AddRow({"ScaNN-tree", "beam=" + std::to_string(beam),
                    kernel_variant, TextTable::Num(recall, 3),
                    TextTable::Num(tree.ExpectedLeafBytesScanned(beam), 4) +
                        " B scanned",
                    "8 (+tree)"});
      record("ScaNN-tree", "beam=" + std::to_string(beam), recall,
             tree.ExpectedLeafBytesScanned(beam), "bytes", 8.0);
    }
  }

  // HNSW graph: full-precision vectors + links.
  {
    Rng build_rng(3);
    const HnswIndex index(data.Clone(), HnswOptions{}, build_rng);
    const double bytes_per_vector =
        dim * 4.0 +
        static_cast<double>(index.GraphBytes()) / static_cast<double>(n);
    for (int ef : {16, 64, 128}) {
      int64_t evals = 0;
      const auto results = index.SearchBatch(queries, 10, ef, &evals);
      const double recall = MeanRecallAtK(results, truth, 10);
      const double evals_per_query = static_cast<double>(evals) /
                                     static_cast<double>(queries.rows());
      table.AddRow({"HNSW", "ef=" + std::to_string(ef),
                    kernel_variant, TextTable::Num(recall, 3),
                    TextTable::Num(evals_per_query, 4) + " dists",
                    TextTable::Num(bytes_per_vector, 4)});
      record("HNSW", "ef=" + std::to_string(ef), recall, evals_per_query,
             "distance_evals", bytes_per_vector);
    }
  }
  table.Print();
  json.EndArray();
  FinishBenchJson(json, JsonOutputPath(argc, argv));
  std::printf(
      "(paper 2: PQ stores ~8 B/vector vs ~%zu B/vector for the graph -\n"
      " a ~%zux memory gap that decides hyperscale feasibility, while the\n"
      " graph needs orders of magnitude fewer distance evaluations)\n",
      static_cast<size_t>(dim * 4 + 100), static_cast<size_t>(dim / 2));
  return 0;
}
