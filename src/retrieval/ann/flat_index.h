/**
 * @file flat_index.h
 * Exact (brute-force) nearest-neighbor index.
 *
 * Serves two roles: the retrieval engine for small per-request
 * databases (paper Case II uses brute-force kNN), and the ground-truth
 * oracle for recall evaluation of the approximate indexes.
 */
#ifndef RAGO_RETRIEVAL_ANN_FLAT_INDEX_H
#define RAGO_RETRIEVAL_ANN_FLAT_INDEX_H

#include <vector>

#include "retrieval/ann/matrix.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

/// Exact k-nearest-neighbor search over an in-memory matrix.
class FlatIndex {
 public:
  explicit FlatIndex(Matrix data);

  /// Exact top-k neighbors of `query`, sorted by ascending distance.
  std::vector<Neighbor> Search(const float* query, size_t k) const;

  /// Exact top-k for every row of `queries` (one result per query).
  std::vector<std::vector<Neighbor>> SearchBatch(const Matrix& queries,
                                                 size_t k) const;

  size_t size() const { return data_.rows(); }
  size_t dim() const { return data_.dim(); }
  const Matrix& data() const { return data_; }

 private:
  Matrix data_;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_FLAT_INDEX_H
