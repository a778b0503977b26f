/**
 * @file vector_search_demo.cc
 * Scenario: the retrieval substrate by itself. Builds the functional
 * ANN indexes (flat, IVF, IVF-PQ, ScaNN-style tree) over a synthetic
 * corpus and walks the recall-vs-scanned-bytes trade-off that the
 * paper's P_scan knob controls (Fig. 7b), then prices the same
 * trade-off at 64B-vector scale with the analytical ScaNN model.
 */
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "hardware/cpu_server.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/ivfpq_index.h"
#include "retrieval/ann/recall.h"
#include "retrieval/ann/scann_tree.h"
#include "retrieval/perf/scann_model.h"

int main() {
  using namespace rago;

  // Synthetic clustered corpus: 20K vectors of 64 dims.
  Rng rng(2024);
  ann::Matrix data = ann::GenClustered(20'000, 64, 64, 0.3f, rng);
  const ann::Matrix queries = ann::GenQueriesNear(data, 32, 0.1f, rng);

  // Ground truth from the exact index.
  ann::Matrix copy(data.rows(), data.dim());
  for (size_t i = 0; i < data.rows(); ++i) {
    copy.CopyRowFrom(data, i, i);
  }
  const ann::FlatIndex flat(std::move(copy));
  std::vector<std::vector<ann::Neighbor>> truth;
  for (size_t q = 0; q < queries.rows(); ++q) {
    truth.push_back(flat.Search(queries.Row(q), 10));
  }

  // IVF-PQ: the paper's workhorse algorithm (IVF lists of PQ codes).
  {
    ann::IvfPqOptions options;
    options.nlist = 128;
    options.pq_subspaces = 8;
    ann::Matrix ivf_data(data.rows(), data.dim());
    for (size_t i = 0; i < data.rows(); ++i) {
      ivf_data.CopyRowFrom(data, i, i);
    }
    const ann::IvfPqIndex index(std::move(ivf_data), options, rng);
    std::printf("IVF-PQ (nlist=128, 8-byte codes):\n");
    std::printf("  %-8s %-14s %s\n", "nprobe", "scanned bytes", "recall@10");
    for (int nprobe : {1, 4, 16, 64, 128}) {
      std::vector<std::vector<ann::Neighbor>> results;
      for (size_t q = 0; q < queries.rows(); ++q) {
        results.push_back(index.Search(queries.Row(q), 10, nprobe, 100));
      }
      std::printf("  %-8d %-14.0f %.3f\n", nprobe,
                  index.ExpectedScannedBytes(nprobe),
                  ann::MeanRecallAtK(results, truth, 10));
    }
  }

  // ScaNN-style tree, as used for the hyperscale database.
  {
    ann::ScannTreeOptions options;
    options.levels = 2;
    options.fanout = 16;
    options.pq_subspaces = 8;
    const ann::ScannTree tree(std::move(data), options, rng);
    std::printf("\nScaNN-style tree (%zu leaves):\n", tree.NumLeaves());
    std::printf("  %-8s %-14s %s\n", "beam", "leaf bytes", "recall@10");
    for (int beam : {1, 2, 8, 32, 128}) {
      std::vector<std::vector<ann::Neighbor>> results;
      for (size_t q = 0; q < queries.rows(); ++q) {
        results.push_back(tree.Search(queries.Row(q), 10, beam, 100));
      }
      std::printf("  %-8d %-14.0f %.3f\n", beam,
                  tree.ExpectedLeafBytesScanned(beam),
                  ann::MeanRecallAtK(results, truth, 10));
    }
  }

  // The same trade-off at production scale, priced analytically.
  std::printf("\nhyperscale pricing (64B vectors, 16 EPYC servers):\n");
  std::printf("  %-10s %-16s %-14s %s\n", "P_scan", "bytes/query",
              "latency b=1", "max QPS");
  for (double scan : {0.0001, 0.001, 0.01}) {
    retrieval::DatabaseSpec spec;
    spec.scan_fraction = scan;
    const retrieval::ScannModel model(spec, DefaultCpuServer(), 16);
    std::printf("  %-10.4f %-16.3e %-11.1f ms %.0f\n", scan,
                model.BytesScannedPerQuery(),
                ToMillis(model.Search(1).latency),
                model.Search(4096).throughput);
  }
  std::printf("\nlesson: P_scan buys recall linearly in scanned bytes - "
              "the\nsame bytes the serving cost model charges for.\n");
  return 0;
}
