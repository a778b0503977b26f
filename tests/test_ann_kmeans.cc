/**
 * @file test_ann_kmeans.cc
 * Tests for the k-means trainer underlying all ANN indexes.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/kmeans.h"

namespace rago::ann {
namespace {

TEST(KMeans, RecoverWellSeparatedClusters) {
  Rng rng(42);
  // Three tight, well-separated blobs.
  const Matrix data = GenClustered(600, 8, 3, /*spread=*/0.01f, rng);
  Rng train_rng(7);
  const KMeansResult result = TrainKMeans(data, 3, train_rng);
  // Every point should be within a tiny distance of its centroid.
  double max_dist = 0.0;
  for (size_t i = 0; i < data.rows(); ++i) {
    const auto c = static_cast<size_t>(result.assignments[i]);
    max_dist = std::max(
        max_dist,
        static_cast<double>(L2Sq(data.Row(i), result.centroids.Row(c), 8)));
  }
  EXPECT_LT(max_dist, 0.1);
}

TEST(KMeans, InertiaNonIncreasingAcrossRuns) {
  Rng rng(1);
  const Matrix data = GenUniform(500, 16, rng);
  Rng r1(3);
  Rng r2(3);
  KMeansOptions one_iter;
  one_iter.max_iterations = 1;
  KMeansOptions many_iter;
  many_iter.max_iterations = 25;
  const double early = TrainKMeans(data, 10, r1, one_iter).inertia;
  const double late = TrainKMeans(data, 10, r2, many_iter).inertia;
  EXPECT_LE(late, early * 1.0001);
}

TEST(KMeans, DeterministicGivenSeed) {
  Rng rng(9);
  const Matrix data = GenUniform(300, 4, rng);
  Rng a(5);
  Rng b(5);
  const KMeansResult ra = TrainKMeans(data, 8, a);
  const KMeansResult rb = TrainKMeans(data, 8, b);
  EXPECT_EQ(ra.assignments, rb.assignments);
  EXPECT_DOUBLE_EQ(ra.inertia, rb.inertia);
}

TEST(KMeans, SmallDimTrainingBitIdenticalScalarVsDispatched) {
  // Below kernels::kMinRowSimdDim the assignment step runs the
  // column-major kernel, which is bit-identical to scalar L2Sq in every
  // variant: PQ-codebook-shaped training (4-d, 256 centroids) and a
  // duplicate-heavy set must give the same centroid bits and
  // assignments dispatched and forced-scalar.
  Rng data_rng(31);
  Matrix clustered = GenClustered(3000, 4, 40, 0.3f, data_rng);
  Matrix duplicates(600, 4);
  for (size_t i = 0; i < duplicates.rows(); ++i) {
    duplicates.CopyRowFrom(clustered, i % 50, i);
  }
  struct Case {
    const Matrix* data;
    int k;
  };
  for (const Case& c : {Case{&clustered, 256}, Case{&duplicates, 64}}) {
    auto train = [&](bool force_scalar) {
      const bool previous = kernels::ForceScalarActive();
      kernels::SetForceScalar(force_scalar);
      Rng rng(8);
      KMeansResult result = TrainKMeans(*c.data, c.k, rng);
      kernels::SetForceScalar(previous);
      return result;
    };
    const KMeansResult scalar = train(true);
    const KMeansResult dispatched = train(false);
    EXPECT_EQ(scalar.assignments, dispatched.assignments);
    EXPECT_EQ(scalar.iterations_run, dispatched.iterations_run);
    EXPECT_EQ(scalar.inertia, dispatched.inertia);
    ASSERT_EQ(scalar.centroids.rows(), dispatched.centroids.rows());
    EXPECT_EQ(std::memcmp(scalar.centroids.data(),
                          dispatched.centroids.data(),
                          scalar.centroids.rows() * 4 * sizeof(float)),
              0);
  }
}

TEST(KMeans, CentroidsAreClusterMeans) {
  Rng rng(2);
  const Matrix data = GenUniform(200, 3, rng);
  Rng train_rng(4);
  const KMeansResult result = TrainKMeans(data, 5, train_rng);
  // Recompute means from the final assignment; should match emitted
  // centroids for non-empty clusters.
  for (int c = 0; c < 5; ++c) {
    double sum[3] = {0, 0, 0};
    int count = 0;
    for (size_t i = 0; i < data.rows(); ++i) {
      if (result.assignments[i] == c) {
        for (int d = 0; d < 3; ++d) {
          sum[d] += data.Row(i)[d];
        }
        ++count;
      }
    }
    if (count == 0) {
      continue;
    }
    // Centroids come from the update step of the last full iteration;
    // allow slack for the final assignment step moving points.
    for (int d = 0; d < 3; ++d) {
      EXPECT_NEAR(result.centroids.Row(static_cast<size_t>(c))[d],
                  sum[d] / count, 0.2);
    }
  }
}

TEST(KMeans, AllAssignmentsInRange) {
  Rng rng(6);
  const Matrix data = GenUniform(100, 5, rng);
  Rng train_rng(8);
  const KMeansResult result = TrainKMeans(data, 7, train_rng);
  ASSERT_EQ(result.assignments.size(), 100u);
  for (int32_t a : result.assignments) {
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 7);
  }
}

TEST(KMeans, HandlesDuplicatePointsWithoutCrash) {
  // All points identical: k-means++ falls back to random picks and the
  // empty-cluster reseed keeps k centroids alive.
  Matrix data(64, 4);
  for (size_t i = 0; i < 64; ++i) {
    for (size_t d = 0; d < 4; ++d) {
      data.Row(i)[d] = 1.0f;
    }
  }
  Rng rng(3);
  const KMeansResult result = TrainKMeans(data, 4, rng);
  EXPECT_NEAR(result.inertia, 0.0, 1e-9);
}

TEST(KMeans, KEqualsNGivesZeroInertia) {
  Rng rng(10);
  const Matrix data = GenUniform(16, 4, rng);
  Rng train_rng(11);
  KMeansOptions options;
  options.max_iterations = 30;
  const KMeansResult result = TrainKMeans(data, 16, train_rng, options);
  EXPECT_NEAR(result.inertia, 0.0, 1e-6);
}

TEST(KMeans, RejectsInvalidK) {
  Rng rng(1);
  const Matrix data = GenUniform(10, 2, rng);
  Rng train_rng(2);
  EXPECT_THROW(TrainKMeans(data, 0, train_rng), rago::ConfigError);
  EXPECT_THROW(TrainKMeans(data, 11, train_rng), rago::ConfigError);
}

TEST(KMeans, ArgMinL2PicksTrueNearest) {
  Matrix centroids(3, 2);
  centroids.Row(0)[0] = 0.0f;
  centroids.Row(1)[0] = 5.0f;
  centroids.Row(2)[0] = 10.0f;
  const float q1[2] = {1.0f, 0.0f};
  const float q2[2] = {6.0f, 0.0f};
  const float q3[2] = {100.0f, 0.0f};
  // The assignment kernel k-means and every centroid lookup rank with.
  auto nearest = [&](const float* q) {
    return kernels::ArgMinL2(q, centroids.data(), centroids.rows(),
                             centroids.dim());
  };
  EXPECT_EQ(nearest(q1), 0u);
  EXPECT_EQ(nearest(q2), 1u);
  EXPECT_EQ(nearest(q3), 2u);
}

TEST(Distance, KernelsMatchManualComputation) {
  const float a[3] = {1.0f, 2.0f, 3.0f};
  const float b[3] = {4.0f, 6.0f, 3.0f};
  EXPECT_FLOAT_EQ(L2Sq(a, b, 3), 9.0f + 16.0f);
}

TEST(Dataset, GeneratorsAreDeterministic) {
  Rng a(12);
  Rng b(12);
  const Matrix da = GenClustered(50, 6, 4, 0.3f, a);
  const Matrix db = GenClustered(50, 6, 4, 0.3f, b);
  for (size_t i = 0; i < da.rows(); ++i) {
    for (size_t d = 0; d < da.dim(); ++d) {
      EXPECT_FLOAT_EQ(da.Row(i)[d], db.Row(i)[d]);
    }
  }
}

TEST(Dataset, QueriesNearDataAreClose) {
  Rng rng(13);
  const Matrix data = GenUniform(100, 8, rng);
  const Matrix queries = GenQueriesNear(data, 20, 0.001f, rng);
  // Each query should be extremely close to at least one data point.
  for (size_t q = 0; q < queries.rows(); ++q) {
    float best = 1e30f;
    for (size_t i = 0; i < data.rows(); ++i) {
      best = std::min(best, L2Sq(queries.Row(q), data.Row(i), 8));
    }
    EXPECT_LT(best, 0.01f);
  }
}

TEST(Matrix, RowAccessAndBounds) {
  Matrix m(3, 2);
  m.Row(1)[0] = 7.0f;
  EXPECT_FLOAT_EQ(m.Row(1)[0], 7.0f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.dim(), 2u);
  EXPECT_THROW(m.Row(3), rago::InternalError);
}

}  // namespace
}  // namespace rago::ann
