/**
 * @file test_ann_indexes.cc
 * Tests for the functional ANN indexes: flat, IVF, IVF-PQ, and the
 * ScaNN-style tree — including the recall-vs-scanned-work trade-off
 * that drives the paper's P_scan knob (Fig. 7b).
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/ivf_index.h"
#include "retrieval/ann/ivfpq_index.h"
#include "retrieval/ann/recall.h"
#include "retrieval/ann/scann_tree.h"
#include "tests/testing/test_support.h"

namespace rago::ann {
namespace {

// The substrate defaults (seed 17, 32 clusters, 0.3 spread, 0.1 query
// noise) are exactly this file's historical bed parameters.
using TestBed = rago::testing::AnnTestBed;
using rago::testing::MakeAnnTestBed;

TestBed MakeBed(size_t n = 4000, size_t dim = 16, size_t num_queries = 32,
                uint64_t seed = 17) {
  return MakeAnnTestBed(n, dim, num_queries, seed);
}

Matrix Copy(const Matrix& m) { return rago::testing::CopyMatrix(m); }

TEST(FlatIndex, ReturnsExactSortedNeighbors) {
  Rng rng(1);
  const Matrix data = GenUniform(100, 4, rng);
  const FlatIndex index(Copy(data));
  const Matrix queries = GenUniform(5, 4, rng);
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto result = index.Search(queries.Row(q), 10);
    ASSERT_EQ(result.size(), 10u);
    for (size_t i = 1; i < result.size(); ++i) {
      EXPECT_LE(result[i - 1].dist, result[i].dist);
    }
    // Brute-force verify the top hit.
    float best = 1e30f;
    int64_t best_id = -1;
    for (size_t i = 0; i < data.rows(); ++i) {
      const float d = L2Sq(queries.Row(q), data.Row(i), 4);
      if (d < best) {
        best = d;
        best_id = static_cast<int64_t>(i);
      }
    }
    EXPECT_EQ(result[0].id, best_id);
  }
}

TEST(FlatIndex, SelfQueryFindsSelf) {
  Rng rng(2);
  const Matrix data = GenUniform(50, 8, rng);
  const FlatIndex index(Copy(data));
  for (size_t i = 0; i < 10; ++i) {
    const auto result = index.Search(data.Row(i), 1);
    EXPECT_EQ(result[0].id, static_cast<int64_t>(i));
    EXPECT_NEAR(result[0].dist, 0.0f, 1e-9f);
  }
}

TEST(TopK, KeepsSmallestAndBreaksTiesDeterministically) {
  TopK topk(3);
  topk.Push(5.0f, 1);
  topk.Push(2.0f, 2);
  topk.Push(9.0f, 3);
  topk.Push(1.0f, 4);
  topk.Push(2.0f, 5);
  const auto out = topk.SortedTake();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 4);
  EXPECT_EQ(out[1].id, 2);  // dist 2.0, lower id first
  EXPECT_EQ(out[2].id, 5);
}

TEST(IvfIndex, FullProbeMatchesExactSearch) {
  const TestBed bed = MakeBed(1000, 8, 8);
  Rng rng(3);
  IvfOptions options;
  options.nlist = 16;
  const IvfIndex ivf(Copy(bed.data), options, rng);
  const FlatIndex flat(Copy(bed.data));
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    const auto approx = ivf.Search(bed.queries.Row(q), 5, /*nprobe=*/16);
    const auto exact = flat.Search(bed.queries.Row(q), 5);
    ASSERT_EQ(approx.size(), exact.size());
    for (size_t i = 0; i < approx.size(); ++i) {
      EXPECT_EQ(approx[i].id, exact[i].id);
    }
  }
}

TEST(IvfIndex, RecallImprovesWithNprobe) {
  const TestBed bed = MakeBed();
  Rng rng(4);
  IvfOptions options;
  options.nlist = 64;
  const IvfIndex ivf(Copy(bed.data), options, rng);
  std::vector<double> recalls;
  for (int nprobe : {1, 4, 16, 64}) {
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(ivf.Search(bed.queries.Row(q), 10, nprobe));
    }
    recalls.push_back(MeanRecallAtK(results, bed.truth, 10));
  }
  for (size_t i = 1; i < recalls.size(); ++i) {
    EXPECT_GE(recalls[i], recalls[i - 1] - 1e-9);
  }
  EXPECT_NEAR(recalls.back(), 1.0, 1e-9);  // nprobe = nlist is exact.
  EXPECT_LT(recalls.front(), 1.0);         // Tiny probe misses some.
}

TEST(IvfIndex, ExpectedScannedVectorsScalesWithProbe) {
  const TestBed bed = MakeBed(2000, 8, 4);
  Rng rng(5);
  IvfOptions options;
  options.nlist = 20;
  const IvfIndex ivf(Copy(bed.data), options, rng);
  EXPECT_NEAR(ivf.ExpectedScannedVectors(5), 500.0, 1e-9);
  EXPECT_NEAR(ivf.ExpectedScannedVectors(20), 2000.0, 1e-9);
  EXPECT_NEAR(ivf.ExpectedScannedVectors(40), 2000.0, 1e-9);  // Clamped.
}

TEST(IvfPq, RecallReasonableAndImprovesWithRerank) {
  const TestBed bed = MakeBed();
  Rng rng(6);
  IvfPqOptions options;
  options.nlist = 32;
  options.pq_subspaces = 8;
  const IvfPqIndex index(Copy(bed.data), options, rng);
  std::vector<std::vector<Neighbor>> plain;
  std::vector<std::vector<Neighbor>> reranked;
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    plain.push_back(index.Search(bed.queries.Row(q), 10, /*nprobe=*/8));
    reranked.push_back(
        index.Search(bed.queries.Row(q), 10, /*nprobe=*/8, /*rerank=*/50));
  }
  const double recall_plain = MeanRecallAtK(plain, bed.truth, 10);
  const double recall_reranked = MeanRecallAtK(reranked, bed.truth, 10);
  EXPECT_GT(recall_plain, 0.5);
  EXPECT_GE(recall_reranked, recall_plain - 1e-9);
  EXPECT_GT(recall_reranked, 0.8);
}

TEST(IvfPq, ScannedBytesMatchCodeGeometry) {
  const TestBed bed = MakeBed(1000, 16, 4);
  Rng rng(7);
  IvfPqOptions options;
  options.nlist = 10;
  options.pq_subspaces = 4;
  const IvfPqIndex index(Copy(bed.data), options, rng);
  // nprobe=1 scans ~1/10 of 1000 vectors at 4 bytes each.
  EXPECT_NEAR(index.ExpectedScannedBytes(1), 400.0, 1e-9);
  EXPECT_NEAR(index.ExpectedScannedBytes(10), 4000.0, 1e-9);
}

TEST(ScannTree, RecallImprovesWithBeamWidth) {
  const TestBed bed = MakeBed();
  Rng rng(9);
  ScannTreeOptions options;
  options.levels = 2;
  options.fanout = 8;  // 64 leaves over 4000 vectors.
  options.pq_subspaces = 8;
  const ScannTree tree(Copy(bed.data), options, rng);
  std::vector<double> recalls;
  for (int beam : {1, 4, 16, 64}) {
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(
          tree.Search(bed.queries.Row(q), 10, beam, /*rerank=*/50));
    }
    recalls.push_back(MeanRecallAtK(results, bed.truth, 10));
  }
  for (size_t i = 1; i < recalls.size(); ++i) {
    EXPECT_GE(recalls[i], recalls[i - 1] - 0.05);
  }
  EXPECT_GT(recalls.back(), 0.9);
}

TEST(ScannTree, LeafBytesScaleWithBeam) {
  const TestBed bed = MakeBed(2000, 8, 2);
  Rng rng(10);
  ScannTreeOptions options;
  options.levels = 2;
  options.fanout = 8;
  options.pq_subspaces = 4;
  const ScannTree tree(Copy(bed.data), options, rng);
  EXPECT_GT(tree.NumLeaves(), 8u);
  const double one = tree.ExpectedLeafBytesScanned(1);
  const double four = tree.ExpectedLeafBytesScanned(4);
  EXPECT_NEAR(four / one, 4.0, 1e-9);
}

TEST(ScannTree, ThreeLevelTreeMirrorsPaperShape) {
  // The paper's hyperscale index is a balanced 3-level tree; verify a
  // miniature 3-level build searches correctly.
  const TestBed bed = MakeBed(3000, 8, 8);
  Rng rng(11);
  ScannTreeOptions options;
  options.levels = 3;
  options.fanout = 6;
  options.pq_subspaces = 4;
  const ScannTree tree(Copy(bed.data), options, rng);
  std::vector<std::vector<Neighbor>> results;
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    results.push_back(tree.Search(bed.queries.Row(q), 10, /*beam=*/12,
                                  /*rerank=*/60));
  }
  EXPECT_GT(MeanRecallAtK(results, bed.truth, 10), 0.6);
}

TEST(Recall, ComputesFractionOfTruthFound) {
  std::vector<Neighbor> truth = {{0.1f, 1}, {0.2f, 2}, {0.3f, 3}};
  std::vector<Neighbor> approx = {{0.1f, 1}, {0.4f, 9}, {0.3f, 3}};
  EXPECT_NEAR(RecallAtK(approx, truth, 3), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(RecallAtK(approx, truth, 1), 1.0, 1e-12);
  EXPECT_THROW(RecallAtK(approx, truth, 0), rago::ConfigError);
}

}  // namespace
}  // namespace rago::ann
