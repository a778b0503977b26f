/**
 * @file scann_tree.h
 * Multi-level k-means tree with PQ-coded leaves (ScaNN-style).
 *
 * The paper's hyperscale database uses a balanced three-level tree
 * with a ~4K fanout per node (§4). This functional counterpart builds
 * the same shape at laptop scale: `levels` of k-means partitioning
 * with a configurable fanout, leaves storing product-quantized codes
 * scanned via ADC. Beam width per level plays the role of the
 * centroid-selection fraction in the analytical cost model.
 */
#ifndef RAGO_RETRIEVAL_ANN_SCANN_TREE_H
#define RAGO_RETRIEVAL_ANN_SCANN_TREE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/ann/packed_codes.h"
#include "retrieval/ann/pq.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

/// Tree build parameters.
struct ScannTreeOptions {
  int levels = 2;        ///< Internal (centroid) levels above the leaves.
  int fanout = 16;       ///< Children per internal node.
  int pq_subspaces = 8;  ///< PQ code bytes per vector.
  int kmeans_iterations = 8;
};

/// Hierarchical centroid tree over PQ-coded leaves.
class ScannTree {
 public:
  ScannTree(Matrix data, const ScannTreeOptions& options, Rng& rng);

  /**
   * Beam search: keeps the `beam` closest nodes per internal level,
   * then ADC-scans the codes in the selected leaves.
   *
   * @param rerank if positive, exact re-rank of the top candidates.
   */
  std::vector<Neighbor> Search(const float* query, size_t k, int beam,
                               int rerank = 0) const;

  /// Batched Search over every row of `queries`.
  std::vector<std::vector<Neighbor>> SearchBatch(const Matrix& queries,
                                                 size_t k, int beam,
                                                 int rerank = 0) const;

  /// Average leaf code bytes scanned by a query with beam width `beam`.
  double ExpectedLeafBytesScanned(int beam) const;

  /// Number of leaves in the tree.
  size_t NumLeaves() const { return leaf_count_; }
  size_t size() const { return num_vectors_; }

 private:
  struct Node {
    Matrix centroids;  ///< One row per child (internal nodes only).
    std::vector<std::unique_ptr<Node>> children;
    std::vector<int64_t> ids;  ///< Leaf payload.
    PackedCodes codes;         ///< Leaf payload, packed fast-scan layout.

    bool IsLeaf() const { return children.empty(); }
  };

  std::unique_ptr<Node> BuildNode(const Matrix& data,
                                  const std::vector<int64_t>& ids, int level,
                                  Rng& rng);

  ScannTreeOptions options_;
  size_t num_vectors_ = 0;
  size_t leaf_count_ = 0;
  std::unique_ptr<Node> root_;
  std::unique_ptr<ProductQuantizer> pq_;
  Matrix raw_;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_SCANN_TREE_H
