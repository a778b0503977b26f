/**
 * @file test_distance.cc
 * Tests for the scalar L2 reference: correctness, the dispatched
 * single-pair wrapper, the unit-sphere identity against an
 * independently computed inner product, and degenerate inputs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "tests/testing/test_support.h"

namespace rago::ann {
namespace {

TEST(Distance, L2SqMatchesManualExpansion) {
  const float a[3] = {1.0f, 2.0f, 3.0f};
  const float b[3] = {4.0f, 6.0f, 3.0f};
  // (1-4)^2 + (2-6)^2 + 0 = 9 + 16 = 25.
  EXPECT_FLOAT_EQ(L2Sq(a, b, 3), 25.0f);
  EXPECT_FLOAT_EQ(L2Sq(a, a, 3), 0.0f);
  EXPECT_FLOAT_EQ(L2Sq(a, b, 3), L2Sq(b, a, 3));  // Symmetric.
}

TEST(Distance, ZeroDimIsDegenerateButDefined) {
  const float a[1] = {1.0f};
  EXPECT_FLOAT_EQ(L2Sq(a, a, 0), 0.0f);
}

using DistanceSeeded = rago::testing::SeededTest;

TEST_F(DistanceSeeded, DispatchMatchesKernels) {
  Rng& rng = this->rng();
  std::vector<float> a(16);
  std::vector<float> b(16);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.NextGaussian());
    b[i] = static_cast<float>(rng.NextGaussian());
  }
  // The single-pair wrapper runs the active kernels; forced scalar it
  // is the reference loop bit for bit.
  const bool was_forced = kernels::ForceScalarActive();
  kernels::SetForceScalar(true);
  EXPECT_EQ(kernels::DistanceOne(a.data(), b.data(), a.size()),
            L2Sq(a.data(), b.data(), a.size()));
  kernels::SetForceScalar(was_forced);
}

/// Inner product in double precision, independent of the library.
double Dot(const std::vector<float>& a, const std::vector<float>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

/// Normalizes `v` to unit L2 norm (skips near-zero vectors).
bool Normalize(std::vector<float>& v) {
  double norm_sq = 0.0;
  for (const float x : v) {
    norm_sq += static_cast<double>(x) * x;
  }
  if (norm_sq < 1e-12) {
    return false;
  }
  const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq));
  for (float& x : v) {
    x *= inv;
  }
  return true;
}

TEST(Distance, L2AndIpAgreeOnUnitVectors) {
  // On the unit sphere, ||a-b||^2 = 2 - 2<a,b>, so ranking by squared
  // L2 distance must equal ranking by descending inner product.
  Rng rng(7);
  constexpr size_t kDim = 12;
  constexpr size_t kNumVectors = 64;
  std::vector<std::vector<float>> points;
  while (points.size() < kNumVectors) {
    std::vector<float> v(kDim);
    for (float& x : v) {
      x = static_cast<float>(rng.NextGaussian());
    }
    if (Normalize(v)) {
      points.push_back(std::move(v));
    }
  }
  std::vector<float> query(kDim);
  for (float& x : query) {
    x = static_cast<float>(rng.NextGaussian());
  }
  ASSERT_TRUE(Normalize(query));

  // Pointwise identity.
  for (const auto& p : points) {
    const float l2 = L2Sq(query.data(), p.data(), kDim);
    EXPECT_NEAR(l2, 2.0 - 2.0 * Dot(query, p), 1e-4);
  }

  // Rank identity.
  std::vector<size_t> by_l2(points.size());
  std::vector<size_t> by_ip(points.size());
  std::iota(by_l2.begin(), by_l2.end(), 0);
  std::iota(by_ip.begin(), by_ip.end(), 0);
  std::sort(by_l2.begin(), by_l2.end(), [&](size_t i, size_t j) {
    const float di = L2Sq(query.data(), points[i].data(), kDim);
    const float dj = L2Sq(query.data(), points[j].data(), kDim);
    return di != dj ? di < dj : i < j;
  });
  std::sort(by_ip.begin(), by_ip.end(), [&](size_t i, size_t j) {
    const double di = Dot(query, points[i]);
    const double dj = Dot(query, points[j]);
    return di != dj ? di > dj : i < j;
  });
  // Floating-point rounding can swap near-equal mid-ranks; the head of
  // the ranking (what retrieval consumes) must agree exactly.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(by_l2[i], by_ip[i]) << "rank " << i;
  }
}

TEST(Distance, DuplicateVectorsShareDistances) {
  const float a[4] = {0.5f, -1.5f, 2.0f, 0.0f};
  const float b[4] = {0.5f, -1.5f, 2.0f, 0.0f};
  const float q[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  EXPECT_EQ(L2Sq(q, a, 4), L2Sq(q, b, 4));
}

}  // namespace
}  // namespace rago::ann
