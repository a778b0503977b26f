#include "retrieval/ann/pq.h"

#include <algorithm>

#include "common/check.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/kmeans.h"

namespace rago::ann {

static_assert(ProductQuantizer::kCentroids ==
                  static_cast<int>(kernels::kAdcCentroids),
              "ADC kernels assume the PQ codebook width");

ProductQuantizer::ProductQuantizer(const Matrix& data, int m, Rng& rng,
                                   int kmeans_iterations)
    : m_(m), dim_(data.dim()) {
  RAGO_REQUIRE(m > 0, "PQ requires at least one subspace");
  RAGO_REQUIRE(dim_ % static_cast<size_t>(m) == 0,
               "vector dim must be divisible by the subspace count");
  RAGO_REQUIRE(data.rows() >= kCentroids,
               "PQ training needs at least 256 vectors");
  sub_dim_ = dim_ / static_cast<size_t>(m);
  codebooks_.resize(static_cast<size_t>(m_) * kCentroids * sub_dim_);

  // Train an independent k-means codebook per subspace.
  KMeansOptions options;
  options.max_iterations = kmeans_iterations;
  for (int s = 0; s < m_; ++s) {
    Matrix sub(data.rows(), sub_dim_);
    for (size_t i = 0; i < data.rows(); ++i) {
      const float* row = data.Row(i) + static_cast<size_t>(s) * sub_dim_;
      float* dst = sub.Row(i);
      std::copy(row, row + sub_dim_, dst);
    }
    const KMeansResult trained = TrainKMeans(sub, kCentroids, rng, options);
    float* block = codebooks_.data() +
                   static_cast<size_t>(s) * sub_dim_ * kCentroids;
    for (size_t c = 0; c < kCentroids; ++c) {
      const float* centroid = trained.centroids.Row(c);
      for (size_t d = 0; d < sub_dim_; ++d) {
        block[d * kCentroids + c] = centroid[d];
      }
    }
  }
}

void
ProductQuantizer::Encode(const float* vec, uint8_t* out) const {
  for (int s = 0; s < m_; ++s) {
    // First-wins argmin over the subspace's 256 centroid lanes.
    out[s] = static_cast<uint8_t>(kernels::ArgMinL2Cols(
        vec + static_cast<size_t>(s) * sub_dim_, Codebook(s), kCentroids,
        sub_dim_));
  }
}

std::vector<uint8_t>
ProductQuantizer::EncodeAll(const Matrix& data) const {
  RAGO_REQUIRE(data.dim() == dim_, "dimensionality mismatch");
  std::vector<uint8_t> codes(data.rows() * CodeBytes());
  for (size_t i = 0; i < data.rows(); ++i) {
    Encode(data.Row(i), codes.data() + i * CodeBytes());
  }
  return codes;
}

void
ProductQuantizer::Decode(const uint8_t* code, float* out) const {
  for (int s = 0; s < m_; ++s) {
    const float* block = Codebook(s);
    float* dst = out + static_cast<size_t>(s) * sub_dim_;
    for (size_t d = 0; d < sub_dim_; ++d) {
      dst[d] = block[d * kCentroids + code[s]];
    }
  }
}

void
ProductQuantizer::BuildAdcTable(const float* query,
                                std::vector<float>& table) const {
  table.resize(static_cast<size_t>(m_) * kCentroids);
  const kernels::KernelTable& active = kernels::Active();
  for (int s = 0; s < m_; ++s) {
    active.l2sq_cols(query + static_cast<size_t>(s) * sub_dim_, Codebook(s),
                     kCentroids, sub_dim_,
                     table.data() + static_cast<size_t>(s) * kCentroids);
  }
}

float
ProductQuantizer::AdcDistance(const std::vector<float>& table,
                              const uint8_t* code) const {
  RAGO_CHECK(table.size() == static_cast<size_t>(m_) * kCentroids,
             "ADC table size mismatch");
  // Subspace-order sum: the same bits as the packed ADC kernel.
  float dist = 0.0f;
  for (int s = 0; s < m_; ++s) {
    dist += table[static_cast<size_t>(s) * kCentroids + code[s]];
  }
  return dist;
}

}  // namespace rago::ann
