/**
 * @file pq.h
 * Product quantization (PQ) codec with asymmetric distance computation.
 *
 * PQ splits each vector into `m` subspaces and quantizes each to one
 * of 256 per-subspace centroids, so a vector becomes `m` bytes. The
 * paper's hyperscale database compresses 768-dim vectors to 96 bytes;
 * queries scan codes via ADC lookup tables, which is exactly the
 * byte-stream workload the ScaNN cost model prices.
 *
 * Codebook layout: each subspace's codebook is stored transposed,
 * `[s][d][256]` — float `(s * sub_dim + d) * 256 + c` is dimension d of
 * centroid c of subspace s. Centroids are the lanes, so ADC table
 * build and encoding run the column-major kernel
 * (kernels::KernelTable::l2sq_cols), which is bit-identical to the
 * scalar L2Sq in every kernel variant at every sub_dim. Decode reads a
 * centroid back with a stride of 256. Only this one layout is kept.
 */
#ifndef RAGO_RETRIEVAL_ANN_PQ_H
#define RAGO_RETRIEVAL_ANN_PQ_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/matrix.h"

namespace rago::ann {

/// Trained product quantizer: m subspaces x 256 centroids each.
class ProductQuantizer {
 public:
  /// Number of centroids per subspace (8-bit codes).
  static constexpr int kCentroids = 256;

  /**
   * Trains codebooks over `data`.
   *
   * @param data training vectors (dim divisible by m).
   * @param m number of subspaces (= code bytes per vector).
   * @param rng seeding for the per-subspace k-means.
   * @param kmeans_iterations Lloyd iterations per subspace.
   */
  ProductQuantizer(const Matrix& data, int m, Rng& rng,
                   int kmeans_iterations = 10);

  /// Encodes one vector into m code bytes appended to `out`.
  void Encode(const float* vec, uint8_t* out) const;

  /// Encodes all rows; returns rows*m bytes.
  std::vector<uint8_t> EncodeAll(const Matrix& data) const;

  /// Reconstructs an approximation of a coded vector.
  void Decode(const uint8_t* code, float* out) const;

  /**
   * Builds the ADC lookup table for `query` into `table`: m*256
   * partial squared distances, laid out subspace-major. `table` is
   * resized to m*256, so a buffer reused across calls is allocated
   * once.
   */
  void BuildAdcTable(const float* query, std::vector<float>& table) const;

  /// ADC distance of one code against a prebuilt table.
  float AdcDistance(const std::vector<float>& table,
                    const uint8_t* code) const;

  int m() const { return m_; }
  size_t dim() const { return dim_; }
  size_t sub_dim() const { return sub_dim_; }

  /// Bytes per encoded vector (== m).
  size_t CodeBytes() const { return static_cast<size_t>(m_); }

 private:
  int m_ = 0;
  size_t dim_ = 0;
  size_t sub_dim_ = 0;
  /// Transposed codebooks, `[s][d][kCentroids]` (see the file comment).
  std::vector<float> codebooks_;

  /// Subspace `s`'s sub_dim x kCentroids column-major block.
  const float* Codebook(int subspace) const {
    return codebooks_.data() +
           static_cast<size_t>(subspace) * sub_dim_ * kCentroids;
  }
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_PQ_H
