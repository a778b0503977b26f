/**
 * @file hnsw_index.h
 * Hierarchical Navigable Small World (HNSW) graph index.
 *
 * The paper motivates IVF-PQ over graph-based ANN for hyperscale RAG
 * because PQ codes are far more memory-efficient (§2), while graphs
 * win on per-query work at small-to-medium scale. This functional
 * HNSW implementation makes that trade-off measurable in the
 * benchmarks: recall vs distance computations vs bytes of index.
 *
 * Implements the standard algorithm [Malkov & Yashunin, TPAMI'18]:
 * exponentially distributed layer assignment, greedy descent through
 * the upper layers, and beam search (ef) with bidirectional link
 * insertion and degree pruning at the base layer.
 */
#ifndef RAGO_RETRIEVAL_ANN_HNSW_INDEX_H
#define RAGO_RETRIEVAL_ANN_HNSW_INDEX_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

/// HNSW build parameters.
struct HnswOptions {
  int max_degree = 16;           ///< M: links per node above layer 0.
  int ef_construction = 64;      ///< Beam width during insertion.
};

/// In-memory HNSW graph over an owned vector matrix.
class HnswIndex {
 public:
  /**
   * Builds the graph by inserting every row of `data` in order.
   * Deterministic given `rng`'s seed.
   */
  HnswIndex(Matrix data, const HnswOptions& options, Rng& rng);

  /**
   * Approximate top-k with beam width `ef_search` (>= k for sensible
   * recall). Returns ascending-distance neighbors. When
   * `distance_evals` is non-null the search adds its distance
   * computations to it; the index itself is never written, so
   * concurrent searches are safe (the sharded tier runs
   * (shard x query-block) tasks against one index).
   */
  std::vector<Neighbor> Search(const float* query, size_t k, int ef_search,
                               int64_t* distance_evals = nullptr) const;

  /// Batched Search over every row of `queries`; a non-null
  /// `distance_evals` gains the whole batch's distance computations.
  std::vector<std::vector<Neighbor>> SearchBatch(
      const Matrix& queries, size_t k, int ef_search,
      int64_t* distance_evals = nullptr) const;

  /// Total link-storage bytes (the graph's memory overhead).
  int64_t GraphBytes() const;

  size_t size() const { return data_.rows(); }
  int max_level() const { return max_level_; }

 private:
  struct Node {
    int level = 0;
    /// links[l] = neighbor ids at layer l (0 <= l <= level).
    std::vector<std::vector<int32_t>> links;
  };

  /**
   * Gather buffers reused across one search (or the whole build):
   * graph neighbors are scattered through the database, so each hop
   * stages its candidates into `rows` and scores the block with one
   * batched kernel call. One instance per top-level call keeps the
   * index immutable and concurrent searches independent.
   */
  struct Scratch {
    std::vector<int32_t> ids;  ///< Candidate ids, in link order.
    std::vector<float> rows;   ///< Their gathered vectors.
    std::vector<float> dists;  ///< Batched distance outputs.
  };

  /// Distance to one node; bumps the caller-owned eval counter.
  float Dist(const float* query, int32_t id, int64_t& evals) const;

  /// Gathers the first `count` ids of scratch.ids into scratch.rows,
  /// batch-computes their distances into scratch.dists, and bumps
  /// `evals` by `count`.
  void BatchDist(const float* query, size_t count, Scratch& scratch,
                 int64_t& evals) const;

  /// Greedy descent to the closest node at `layer`.
  int32_t GreedyStep(const float* query, int32_t entry, int layer,
                     int64_t& evals, Scratch& scratch) const;

  /// Beam search at one layer; returns up to `ef` closest candidates.
  std::vector<Neighbor> SearchLayer(const float* query, int32_t entry,
                                    int ef, int layer, int64_t& evals,
                                    Scratch& scratch) const;

  /// Selects up to `m` diverse neighbors from candidates (heuristic).
  std::vector<int32_t> SelectNeighbors(const std::vector<Neighbor>& found,
                                       int m) const;

  int DrawLevel(Rng& rng) const;

  Matrix data_;
  HnswOptions options_;
  double level_multiplier_ = 0.0;  ///< 1/ln(M), the standard choice.
  std::vector<Node> nodes_;
  int32_t entry_point_ = -1;
  int max_level_ = -1;
};

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_HNSW_INDEX_H
