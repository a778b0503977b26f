#include "retrieval/ann/ivf_index.h"

#include <algorithm>

#include "common/check.h"
#include "retrieval/ann/coarse_rank.h"
#include "retrieval/ann/kernels/distance_kernels.h"

namespace rago::ann {

IvfIndex::IvfIndex(Matrix data, Metric metric, const IvfOptions& options,
                   Rng& rng)
    : metric_(metric), nlist_(options.nlist), num_rows_(data.rows()),
      dim_(data.dim()) {
  RAGO_REQUIRE(!data.empty(), "IVF requires a non-empty database");
  RAGO_REQUIRE(options.nlist > 0, "nlist must be positive");
  RAGO_REQUIRE(static_cast<size_t>(options.nlist) <= data.rows(),
               "nlist cannot exceed the database size");

  KMeansOptions kmeans_options;
  kmeans_options.max_iterations = options.kmeans_iterations;
  KMeansResult trained = TrainKMeans(data, nlist_, rng, kmeans_options);
  centroids_ = std::move(trained.centroids);

  lists_.resize(static_cast<size_t>(nlist_));
  for (size_t i = 0; i < num_rows_; ++i) {
    lists_[static_cast<size_t>(trained.assignments[i])].push_back(
        static_cast<int64_t>(i));
  }

  // Regroup rows list-contiguously so each probe scans one block with
  // the batched kernels; each row keeps its id, and TopK ranks by
  // `(dist, id)` whatever the scan order, so results match the old
  // scattered scan.
  reordered_ = Matrix(num_rows_, dim_);
  list_offsets_.resize(static_cast<size_t>(nlist_) + 1);
  size_t next = 0;
  for (size_t c = 0; c < lists_.size(); ++c) {
    list_offsets_[c] = next;
    for (int64_t id : lists_[c]) {
      reordered_.CopyRowFrom(data, static_cast<size_t>(id), next++);
    }
  }
  list_offsets_[lists_.size()] = next;
}

std::vector<int32_t>
IvfIndex::NearestClusters(const float* query, int nprobe) const {
  // Rank all centroids by distance and take the closest nprobe.
  TopK topk(static_cast<size_t>(std::min(nprobe, nlist_)));
  kernels::ScanRowsIntoTopK(Metric::kL2, query, centroids_.data(),
                            centroids_.rows(), centroids_.dim(),
                            /*ids=*/nullptr, /*base_id=*/0, topk);
  std::vector<int32_t> out;
  for (const Neighbor& nb : topk.SortedTake()) {
    out.push_back(static_cast<int32_t>(nb.id));
  }
  return out;
}

std::vector<Neighbor>
IvfIndex::SearchLists(const float* query, size_t k,
                      const std::vector<int32_t>& clusters) const {
  TopK topk(k);
  for (int32_t cluster : clusters) {
    const auto c = static_cast<size_t>(cluster);
    const size_t begin = list_offsets_[c];
    const size_t count = list_offsets_[c + 1] - begin;
    if (count == 0) {
      continue;
    }
    kernels::ScanRowsIntoTopK(metric_, query, reordered_.Row(begin), count,
                              dim_, lists_[c].data(), /*base_id=*/0, topk);
  }
  return topk.SortedTake();
}

std::vector<Neighbor>
IvfIndex::Search(const float* query, size_t k, int nprobe) const {
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  return SearchLists(query, k, NearestClusters(query, nprobe));
}

std::vector<std::vector<Neighbor>>
IvfIndex::SearchBatch(const Matrix& queries, size_t k, int nprobe) const {
  RAGO_REQUIRE(queries.dim() == dim_, "query dimensionality mismatch");
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  // Rank coarse centroids for the whole block at once (micro-tile
  // kernel); bit-identical to the per-query ranking, so batched and
  // per-query search return the same ids.
  const std::vector<std::vector<int32_t>> ranked =
      RankCentroidsBatch(queries, centroids_, nprobe);
  std::vector<std::vector<Neighbor>> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    out[q] = SearchLists(queries.Row(q), k, ranked[q]);
  }
  return out;
}

double
IvfIndex::ExpectedScannedVectors(int nprobe) const {
  const double probed = std::min(nprobe, nlist_);
  return static_cast<double>(num_rows_) * probed / nlist_;
}

}  // namespace rago::ann
