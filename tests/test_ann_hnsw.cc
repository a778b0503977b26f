/**
 * @file test_ann_hnsw.cc
 * Tests for the HNSW graph index: recall behavior, beam-width
 * trade-off, determinism, and the memory/work accounting used by the
 * IVF-PQ-vs-graph comparison bench.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/hnsw_index.h"
#include "retrieval/ann/recall.h"
#include "tests/testing/test_support.h"

namespace rago::ann {
namespace {

using Bed = rago::testing::AnnTestBed;
using rago::testing::CopyMatrix;

Bed MakeBed(size_t n = 3000, size_t dim = 16, size_t nq = 24) {
  rago::testing::AnnTestBedOptions options;
  options.rows = n;
  options.dim = dim;
  options.num_queries = nq;
  options.seed = 31;
  options.clusters = 24;
  return rago::testing::MakeAnnTestBed(options);
}

TEST(Hnsw, HighRecallAtModerateEf) {
  const Bed bed = MakeBed();
  Rng rng(5);
  const HnswIndex index(CopyMatrix(bed.data), HnswOptions{}, rng);
  std::vector<std::vector<Neighbor>> results;
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    results.push_back(index.Search(bed.queries.Row(q), 10, 64));
  }
  EXPECT_GT(MeanRecallAtK(results, bed.truth, 10), 0.9);
}

TEST(Hnsw, RecallImprovesWithEf) {
  const Bed bed = MakeBed();
  Rng rng(6);
  const HnswIndex index(CopyMatrix(bed.data), HnswOptions{}, rng);
  std::vector<double> recalls;
  for (int ef : {10, 32, 128}) {
    std::vector<std::vector<Neighbor>> results;
    for (size_t q = 0; q < bed.queries.rows(); ++q) {
      results.push_back(index.Search(bed.queries.Row(q), 10, ef));
    }
    recalls.push_back(MeanRecallAtK(results, bed.truth, 10));
  }
  EXPECT_GE(recalls[1], recalls[0] - 0.03);
  EXPECT_GE(recalls[2], recalls[1] - 0.03);
  EXPECT_GT(recalls[2], 0.95);
}

TEST(Hnsw, DistanceEvalsFarBelowBruteForce) {
  // The point of the graph: sublinear work per query.
  const Bed bed = MakeBed(4000, 16, 8);
  Rng rng(7);
  const HnswIndex index(CopyMatrix(bed.data), HnswOptions{}, rng);
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    int64_t evals = 0;
    index.Search(bed.queries.Row(q), 10, 48, &evals);
    EXPECT_LT(evals, 4000 / 2) << "graph search degenerated to a scan";
    EXPECT_GT(evals, 0);
  }
}

TEST(Hnsw, GraphBytesReflectDegreeBound) {
  const Bed bed = MakeBed(1000, 8, 1);
  Rng rng(8);
  HnswOptions options;
  options.max_degree = 8;
  const HnswIndex index(CopyMatrix(bed.data), options, rng);
  EXPECT_GT(index.GraphBytes(), 0);
  // Base layer allows 2M links per node (plus sparse upper layers).
  EXPECT_LT(index.GraphBytes(),
            static_cast<int64_t>(1000) * (2 * 8 + 8) * 4);
}

TEST(Hnsw, DeterministicForSeed) {
  const Bed bed = MakeBed(800, 8, 4);
  Rng a(9);
  Rng b(9);
  const HnswIndex ia(CopyMatrix(bed.data), HnswOptions{}, a);
  const HnswIndex ib(CopyMatrix(bed.data), HnswOptions{}, b);
  for (size_t q = 0; q < bed.queries.rows(); ++q) {
    const auto ra = ia.Search(bed.queries.Row(q), 5, 32);
    const auto rb = ib.Search(bed.queries.Row(q), 5, 32);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
    }
  }
}

TEST(Hnsw, SelfQueryFindsSelf) {
  const Bed bed = MakeBed(500, 8, 1);
  Rng rng(10);
  const HnswIndex index(CopyMatrix(bed.data), HnswOptions{}, rng);
  for (size_t i = 0; i < 20; ++i) {
    const auto result = index.Search(bed.data.Row(i), 1, 32);
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(result[0].id, static_cast<int64_t>(i));
  }
}

TEST(Hnsw, RejectsDegenerateOptions) {
  Rng rng(11);
  Matrix data = GenUniform(100, 4, rng);
  HnswOptions options;
  options.max_degree = 1;
  EXPECT_THROW(HnswIndex(CopyMatrix(data), options, rng),
               rago::ConfigError);
  options = HnswOptions{};
  options.ef_construction = 2;
  EXPECT_THROW(HnswIndex(CopyMatrix(data), options, rng),
               rago::ConfigError);
}

TEST(Hnsw, HandlesTinyDatabases) {
  Rng rng(12);
  Matrix data = GenUniform(3, 4, rng);
  const HnswIndex index(CopyMatrix(data), HnswOptions{}, rng);
  const auto result = index.Search(data.Row(0), 3, 8);
  EXPECT_EQ(result.size(), 3u);
}

}  // namespace
}  // namespace rago::ann
