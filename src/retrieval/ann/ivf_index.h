/**
 * @file ivf_index.h
 * Inverted-file (IVF) index with exact in-list distances.
 *
 * Vectors are partitioned into `nlist` clusters by a trained coarse
 * quantizer; a query scans only the `nprobe` nearest clusters. This is
 * the uncompressed building block beneath IVF-PQ.
 *
 * Storage is list-contiguous: at build time the database rows are
 * regrouped so each inverted list occupies one contiguous block, and
 * in-list scans run through the batched distance kernels
 * (kernels/distance_kernels.h) instead of per-row pointer chasing.
 */
#ifndef RAGO_RETRIEVAL_ANN_IVF_INDEX_H
#define RAGO_RETRIEVAL_ANN_IVF_INDEX_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/kmeans.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

/// IVF build parameters.
struct IvfOptions {
  int nlist = 64;          ///< Number of coarse clusters.
  int kmeans_iterations = 10;
};

/// Inverted-file index over an in-memory database.
class IvfIndex {
 public:
  IvfIndex(Matrix data, const IvfOptions& options, Rng& rng);

  /**
   * Approximate top-k: scans the `nprobe` clusters whose centroids are
   * nearest to the query.
   */
  std::vector<Neighbor> Search(const float* query, size_t k,
                               int nprobe) const;

  /**
   * Batched Search over every row of `queries`. Coarse centroids are
   * ranked for the whole block through the micro-tile kernel
   * (coarse_rank.h); results are exactly per-query Search's.
   */
  std::vector<std::vector<Neighbor>> SearchBatch(const Matrix& queries,
                                                 size_t k, int nprobe) const;

  /// Number of database vectors a query with `nprobe` scans on average.
  double ExpectedScannedVectors(int nprobe) const;

  int nlist() const { return nlist_; }
  size_t size() const { return num_rows_; }
  size_t dim() const { return dim_; }
  const Matrix& centroids() const { return centroids_; }
  const std::vector<int64_t>& list(int cluster) const {
    return lists_[static_cast<size_t>(cluster)];
  }

 private:
  std::vector<int32_t> NearestClusters(const float* query, int nprobe) const;

  /// Scans the given ranked clusters' lists for one query.
  std::vector<Neighbor> SearchLists(
      const float* query, size_t k,
      const std::vector<int32_t>& clusters) const;

  int nlist_ = 0;
  size_t num_rows_ = 0;
  size_t dim_ = 0;
  Matrix centroids_;
  /// Per-list original row ids, ascending within each list.
  std::vector<std::vector<int64_t>> lists_;
  /// Database rows regrouped list-contiguously: list c occupies rows
  /// [list_offsets_[c], list_offsets_[c + 1]) of reordered_, in the
  /// same order as lists_[c].
  Matrix reordered_;
  std::vector<size_t> list_offsets_;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_IVF_INDEX_H
