#include "retrieval/ann/scann_tree.h"

#include <algorithm>

#include "common/check.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/kmeans.h"
#include "retrieval/ann/rerank.h"

namespace rago::ann {

ScannTree::ScannTree(Matrix data, const ScannTreeOptions& options, Rng& rng)
    : options_(options), num_vectors_(data.rows()) {
  RAGO_REQUIRE(!data.empty(), "tree requires a non-empty database");
  RAGO_REQUIRE(options.levels >= 1, "tree needs at least one centroid level");
  RAGO_REQUIRE(options.fanout > 1, "fanout must exceed one");

  // A single global PQ codebook (non-residual) keeps the ADC table
  // per-query instead of per-leaf, matching ScaNN's flat scoring path.
  pq_ = std::make_unique<ProductQuantizer>(data, options.pq_subspaces, rng,
                                           options.kmeans_iterations);

  std::vector<int64_t> all_ids(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    all_ids[i] = static_cast<int64_t>(i);
  }
  root_ = BuildNode(data, all_ids, /*level=*/0, rng);
  raw_ = std::move(data);
}

std::unique_ptr<ScannTree::Node>
ScannTree::BuildNode(const Matrix& data, const std::vector<int64_t>& ids,
                     int level, Rng& rng) {
  auto node = std::make_unique<Node>();

  // Leaf: encode members with the global PQ codebook.
  const bool too_small =
      ids.size() <= static_cast<size_t>(options_.fanout);
  if (level == options_.levels || (too_small && level > 0)) {
    node->ids = ids;
    node->codes = PackedCodes(pq_->CodeBytes());
    std::vector<uint8_t> code(pq_->CodeBytes());
    for (size_t i = 0; i < ids.size(); ++i) {
      pq_->Encode(data.Row(static_cast<size_t>(ids[i])), code.data());
      node->codes.Append(code.data());
    }
    ++leaf_count_;
    return node;
  }

  // Internal: partition members into `fanout` clusters.
  Matrix subset(ids.size(), data.dim());
  for (size_t i = 0; i < ids.size(); ++i) {
    subset.CopyRowFrom(data, static_cast<size_t>(ids[i]), i);
  }
  const int k = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(options_.fanout), ids.size()));
  KMeansOptions kmeans_options;
  kmeans_options.max_iterations = options_.kmeans_iterations;
  KMeansResult trained = TrainKMeans(subset, k, rng, kmeans_options);

  std::vector<std::vector<int64_t>> partitions(static_cast<size_t>(k));
  for (size_t i = 0; i < ids.size(); ++i) {
    partitions[static_cast<size_t>(trained.assignments[i])].push_back(ids[i]);
  }

  // Drop empty partitions while keeping centroid rows aligned with
  // children.
  std::vector<size_t> live;
  for (size_t p = 0; p < partitions.size(); ++p) {
    if (!partitions[p].empty()) {
      live.push_back(p);
    }
  }
  node->centroids = Matrix(live.size(), data.dim());
  for (size_t i = 0; i < live.size(); ++i) {
    node->centroids.CopyRowFrom(trained.centroids, live[i], i);
    node->children.push_back(
        BuildNode(data, partitions[live[i]], level + 1, rng));
  }
  return node;
}

std::vector<Neighbor>
ScannTree::Search(const float* query, size_t k, int beam, int rerank) const {
  RAGO_REQUIRE(beam > 0, "beam width must be positive");

  // Beam search down the centroid levels; each node's centroid block is
  // contiguous, so scoring a frontier is one batched scan per node.
  std::vector<const Node*> frontier = {root_.get()};
  while (!frontier.empty() && !frontier.front()->IsLeaf()) {
    // Score all children of the frontier, keep the `beam` closest.
    TopK best(static_cast<size_t>(beam));
    std::vector<const Node*> child_nodes;
    for (const Node* node : frontier) {
      kernels::ScanRowsIntoTopK(
          query, node->centroids.data(), node->centroids.rows(),
          node->centroids.dim(), /*ids=*/nullptr,
          /*base_id=*/static_cast<int64_t>(child_nodes.size()), best);
      for (const auto& child : node->children) {
        child_nodes.push_back(child.get());
      }
    }
    std::vector<const Node*> next;
    for (const Neighbor& nb : best.SortedTake()) {
      next.push_back(child_nodes[static_cast<size_t>(nb.id)]);
    }
    frontier = std::move(next);
  }

  // ADC scan of the selected leaves.
  std::vector<float> table;
  pq_->BuildAdcTable(query, table);
  const size_t pool = std::max(k, static_cast<size_t>(rerank));
  TopK candidates(pool);
  for (const Node* leaf : frontier) {
    kernels::ScanCodesPackedIntoTopK(table.data(), leaf->codes.data(),
                                     leaf->ids.size(), pq_->CodeBytes(),
                                     leaf->ids.data(), /*base_id=*/0,
                                     candidates);
  }

  std::vector<Neighbor> approx = candidates.SortedTake();
  if (rerank <= 0) {
    if (approx.size() > k) {
      approx.resize(k);
    }
    return approx;
  }
  return RerankExactL2(approx, query, raw_, k);
}

double
ScannTree::ExpectedLeafBytesScanned(int beam) const {
  RAGO_CHECK(leaf_count_ > 0, "tree has no leaves");
  const double leaves_visited =
      std::min<double>(beam, static_cast<double>(leaf_count_));
  const double avg_leaf_vectors =
      static_cast<double>(num_vectors_) / static_cast<double>(leaf_count_);
  return leaves_visited * avg_leaf_vectors *
         static_cast<double>(pq_->CodeBytes());
}

std::vector<std::vector<Neighbor>>
ScannTree::SearchBatch(const Matrix& queries, size_t k, int beam,
                       int rerank) const {
  RAGO_REQUIRE(queries.dim() == pq_->dim(),
               "query dimensionality mismatch");
  std::vector<std::vector<Neighbor>> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    out[q] = Search(queries.Row(q), k, beam, rerank);
  }
  return out;
}

}  // namespace rago::ann
