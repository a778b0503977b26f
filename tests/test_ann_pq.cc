/**
 * @file test_ann_pq.cc
 * Tests for the product quantizer: code sizes, reconstruction quality,
 * and ADC distance consistency.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/pq.h"

namespace rago::ann {
namespace {

Matrix TrainData(size_t n = 1024, size_t dim = 16, uint64_t seed = 3) {
  Rng rng(seed);
  return GenClustered(n, dim, 8, 0.4f, rng);
}

/// Restores the force-scalar state on scope exit.
class ForceScalarGuard {
 public:
  explicit ForceScalarGuard(bool force)
      : previous_(kernels::ForceScalarActive()) {
    kernels::SetForceScalar(force);
  }
  ~ForceScalarGuard() { kernels::SetForceScalar(previous_); }

 private:
  bool previous_;
};

/// Centroid c of subspace s, read back through Decode.
std::vector<float> CentroidOf(const ProductQuantizer& pq, int s, int c) {
  std::vector<uint8_t> code(pq.CodeBytes(), static_cast<uint8_t>(c));
  std::vector<float> decoded(pq.dim());
  pq.Decode(code.data(), decoded.data());
  const auto begin =
      decoded.begin() + static_cast<std::ptrdiff_t>(s * pq.sub_dim());
  return {begin, begin + static_cast<std::ptrdiff_t>(pq.sub_dim())};
}

TEST(Pq, CodeBytesEqualSubspaceCount) {
  const Matrix data = TrainData();
  Rng rng(1);
  const ProductQuantizer pq(data, 4, rng);
  EXPECT_EQ(pq.m(), 4);
  EXPECT_EQ(pq.CodeBytes(), 4u);
  EXPECT_EQ(pq.sub_dim(), 4u);
}

TEST(Pq, RequiresDivisibleDimension) {
  const Matrix data = TrainData(512, 10);
  Rng rng(1);
  EXPECT_THROW(ProductQuantizer(data, 3, rng), rago::ConfigError);
  EXPECT_NO_THROW(ProductQuantizer(data, 5, rng));
}

TEST(Pq, RequiresEnoughTrainingData) {
  const Matrix data = TrainData(100, 8);
  Rng rng(1);
  EXPECT_THROW(ProductQuantizer(data, 2, rng), rago::ConfigError);
}

TEST(Pq, EncodeDecodeReconstructsApproximately) {
  const Matrix data = TrainData();
  Rng rng(2);
  const ProductQuantizer pq(data, 8, rng);
  std::vector<uint8_t> code(pq.CodeBytes());
  std::vector<float> decoded(data.dim());
  const std::vector<float> zero(data.dim(), 0.0f);
  double total_err = 0.0;
  double total_norm = 0.0;
  for (size_t i = 0; i < 64; ++i) {
    pq.Encode(data.Row(i), code.data());
    pq.Decode(code.data(), decoded.data());
    total_err += L2Sq(data.Row(i), decoded.data(), data.dim());
    total_norm += L2Sq(data.Row(i), zero.data(), data.dim());
  }
  // Relative reconstruction error small on clustered data.
  EXPECT_LT(total_err / total_norm, 0.05);
}

TEST(Pq, MoreSubspacesReduceReconstructionError) {
  const Matrix data = TrainData(2048, 16, 5);
  Rng rng_a(7);
  Rng rng_b(7);
  const ProductQuantizer coarse(data, 2, rng_a);
  const ProductQuantizer fine(data, 8, rng_b);
  auto recon_error = [&](const ProductQuantizer& pq) {
    std::vector<uint8_t> code(pq.CodeBytes());
    std::vector<float> decoded(data.dim());
    double err = 0.0;
    for (size_t i = 0; i < 128; ++i) {
      pq.Encode(data.Row(i), code.data());
      pq.Decode(code.data(), decoded.data());
      err += L2Sq(data.Row(i), decoded.data(), data.dim());
    }
    return err;
  };
  EXPECT_LT(recon_error(fine), recon_error(coarse));
}

TEST(Pq, AdcDistanceEqualsDecodedDistance) {
  // ADC(q, code) must equal the exact L2 between q and Decode(code):
  // both sum the same per-subspace squared distances.
  const Matrix data = TrainData();
  Rng rng(4);
  const ProductQuantizer pq(data, 4, rng);
  Rng qrng(9);
  const Matrix queries = GenQueriesNear(data, 8, 0.2f, qrng);
  std::vector<uint8_t> code(pq.CodeBytes());
  std::vector<float> decoded(data.dim());
  for (size_t q = 0; q < queries.rows(); ++q) {
    std::vector<float> table;
    pq.BuildAdcTable(queries.Row(q), table);
    for (size_t i = 0; i < 16; ++i) {
      pq.Encode(data.Row(i), code.data());
      pq.Decode(code.data(), decoded.data());
      const float adc = pq.AdcDistance(table, code.data());
      const float exact = L2Sq(queries.Row(q), decoded.data(), data.dim());
      EXPECT_NEAR(adc, exact, 1e-3f * std::max(1.0f, exact));
    }
  }
}

TEST(Pq, AdcTableBitIdenticalToPerCentroidL2Sq) {
  // Every table entry is exactly L2Sq(sub-query, centroid), dispatched
  // and forced-scalar — also at sub_dim 8 and 12, where the row-major
  // SIMD kernels would reassociate the sum.
  for (size_t sub_dim : {4u, 8u, 12u}) {
    const Matrix data = TrainData(512, 4 * sub_dim, 11);
    Rng rng(12);
    const ProductQuantizer pq(data, 4, rng, /*kmeans_iterations=*/3);
    ASSERT_EQ(pq.sub_dim(), sub_dim);
    Rng qrng(13);
    const Matrix queries = GenQueriesNear(data, 3, 0.2f, qrng);
    std::vector<float> reference(4 * ProductQuantizer::kCentroids);
    for (size_t q = 0; q < queries.rows(); ++q) {
      const float* query = queries.Row(q);
      for (int s = 0; s < pq.m(); ++s) {
        for (int c = 0; c < ProductQuantizer::kCentroids; ++c) {
          const std::vector<float> centroid = CentroidOf(pq, s, c);
          reference[static_cast<size_t>(s * ProductQuantizer::kCentroids +
                                        c)] =
              L2Sq(query + static_cast<size_t>(s) * sub_dim,
                   centroid.data(), sub_dim);
        }
      }
      for (bool force_scalar : {true, false}) {
        ForceScalarGuard guard(force_scalar);
        std::vector<float> table;
        pq.BuildAdcTable(query, table);
        ASSERT_EQ(table.size(), reference.size());
        for (size_t i = 0; i < table.size(); ++i) {
          EXPECT_EQ(table[i], reference[i])
              << "sub_dim " << sub_dim << " entry " << i
              << (force_scalar ? " scalar" : " dispatched");
        }
      }
    }
  }
}

/// Trains a 4-subspace PQ on `data`, then checks Encode against a
/// first-wins argmin of L2Sq over Decode'd centroids, dispatched and
/// forced-scalar.
void ExpectEncodeIsFirstWinsArgMin(const Matrix& data) {
  Rng rng(15);
  const ProductQuantizer pq(data, 4, rng, /*kmeans_iterations=*/3);
  for (size_t i = 0; i < 40; ++i) {
    const float* vec = data.Row(i);
    std::vector<uint8_t> expected(pq.CodeBytes());
    for (int s = 0; s < pq.m(); ++s) {
      const float* sub_vec = vec + static_cast<size_t>(s) * pq.sub_dim();
      int best = 0;
      float best_dist = 0.0f;
      for (int c = 0; c < ProductQuantizer::kCentroids; ++c) {
        const std::vector<float> centroid = CentroidOf(pq, s, c);
        const float dist = L2Sq(sub_vec, centroid.data(), pq.sub_dim());
        if (c == 0 || dist < best_dist) {
          best = c;
          best_dist = dist;
        }
      }
      expected[static_cast<size_t>(s)] = static_cast<uint8_t>(best);
    }
    for (bool force_scalar : {true, false}) {
      ForceScalarGuard guard(force_scalar);
      std::vector<uint8_t> code(pq.CodeBytes());
      pq.Encode(vec, code.data());
      EXPECT_EQ(code, expected)
          << "row " << i << (force_scalar ? " scalar" : " dispatched");
    }
  }
}

TEST(Pq, EncodeIsFirstWinsArgMinOfL2Sq) {
  // The second training set has only 100 distinct rows, so its 256
  // centroids repeat and encoding meets exact ties.
  const Matrix clustered = TrainData(512, 16, 14);
  Matrix duplicates(300, 16);
  for (size_t i = 0; i < duplicates.rows(); ++i) {
    duplicates.CopyRowFrom(clustered, i % 100, i);
  }
  ExpectEncodeIsFirstWinsArgMin(clustered);
  ExpectEncodeIsFirstWinsArgMin(duplicates);
}

TEST(Pq, EncodeAllMatchesIndividualEncode) {
  const Matrix data = TrainData(512, 8);
  Rng rng(6);
  const ProductQuantizer pq(data, 4, rng);
  const std::vector<uint8_t> all = pq.EncodeAll(data);
  ASSERT_EQ(all.size(), data.rows() * pq.CodeBytes());
  std::vector<uint8_t> one(pq.CodeBytes());
  for (size_t i = 0; i < 32; ++i) {
    pq.Encode(data.Row(i), one.data());
    for (size_t b = 0; b < pq.CodeBytes(); ++b) {
      EXPECT_EQ(all[i * pq.CodeBytes() + b], one[b]);
    }
  }
}

TEST(Pq, PaperCompressionGeometry) {
  // The paper compresses 768-dim vectors to 96 bytes = 1 byte per 8
  // dims. Verify the geometry is expressible.
  Rng rng(8);
  const Matrix data = GenClustered(512, 768, 4, 0.5f, rng);
  Rng train_rng(9);
  const ProductQuantizer pq(data, 96, train_rng, /*kmeans_iterations=*/2);
  EXPECT_EQ(pq.CodeBytes(), 96u);
  EXPECT_EQ(pq.sub_dim(), 8u);
  // Compression ratio vs fp32: 32x.
  const double raw_bytes = 768 * 4.0;
  EXPECT_DOUBLE_EQ(raw_bytes / pq.CodeBytes(), 32.0);
}

}  // namespace
}  // namespace rago::ann
