/**
 * @file ivfpq_index.h
 * IVF-PQ: inverted lists of product-quantized codes.
 *
 * The workhorse algorithm for hyperscale RAG retrieval (paper §2):
 * memory-efficient PQ codes (96 bytes for 768 dims at 1 byte per 8
 * dims) scanned with ADC lookup tables inside the probed IVF lists.
 * Codes quantize each vector's residual against its list centroid;
 * the raw vectors are kept so the top PQ candidates can optionally be
 * re-ranked with exact distances.
 */
#ifndef RAGO_RETRIEVAL_ANN_IVFPQ_INDEX_H
#define RAGO_RETRIEVAL_ANN_IVFPQ_INDEX_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/ivf_index.h"
#include "retrieval/ann/packed_codes.h"
#include "retrieval/ann/pq.h"

namespace rago::ann {

/// IVF-PQ build parameters.
struct IvfPqOptions {
  int nlist = 64;
  int pq_subspaces = 8;  ///< Code bytes per vector.
  int kmeans_iterations = 10;
};

/// IVF index whose lists store PQ codes instead of raw vectors.
class IvfPqIndex {
 public:
  IvfPqIndex(Matrix data, const IvfPqOptions& options, Rng& rng);

  /**
   * Approximate top-k via ADC scan of `nprobe` lists.
   *
   * @param rerank if positive, the top `rerank` PQ candidates are
   *   re-scored with exact distances.
   */
  std::vector<Neighbor> Search(const float* query, size_t k, int nprobe,
                               int rerank = 0) const;

  /**
   * Batched Search over every row of `queries`. Coarse centroids are
   * ranked for the whole block through the micro-tile kernel
   * (coarse_rank.h); results are exactly per-query Search's.
   */
  std::vector<std::vector<Neighbor>> SearchBatch(const Matrix& queries,
                                                 size_t k, int nprobe,
                                                 int rerank = 0) const;

  /// Bytes of PQ codes scanned by a query with `nprobe` (average).
  double ExpectedScannedBytes(int nprobe) const;

  int nlist() const { return nlist_; }
  size_t size() const { return num_vectors_; }
  const ProductQuantizer& pq() const { return *pq_; }

 private:
  /// ADC-scans the given ranked clusters' lists for one query.
  std::vector<Neighbor> SearchLists(
      const float* query, size_t k, int rerank,
      const std::vector<int32_t>& clusters) const;

  size_t num_vectors_ = 0;
  int nlist_ = 0;
  Matrix centroids_;
  Matrix raw_;  ///< Exact vectors for re-ranking.
  std::unique_ptr<ProductQuantizer> pq_;
  /// Per-list vector ids and codes in the packed fast-scan layout.
  std::vector<std::vector<int64_t>> ids_;
  std::vector<PackedCodes> codes_;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_IVFPQ_INDEX_H
