#include "retrieval/ann/ivfpq_index.h"

#include <algorithm>

#include "common/check.h"
#include "retrieval/ann/coarse_rank.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/kmeans.h"
#include "retrieval/ann/rerank.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

IvfPqIndex::IvfPqIndex(Matrix data, const IvfPqOptions& options, Rng& rng)
    : num_vectors_(data.rows()), nlist_(options.nlist) {
  RAGO_REQUIRE(!data.empty(), "IVF-PQ requires a non-empty database");
  RAGO_REQUIRE(options.nlist > 0, "nlist must be positive");
  RAGO_REQUIRE(static_cast<size_t>(options.nlist) <= data.rows(),
               "nlist cannot exceed the database size");

  const size_t dim = data.dim();

  KMeansOptions kmeans_options;
  kmeans_options.max_iterations = options.kmeans_iterations;
  KMeansResult coarse = TrainKMeans(data, nlist_, rng, kmeans_options);
  centroids_ = std::move(coarse.centroids);

  // Training material for PQ: residuals against the assigned centroid
  // (tighter codebooks than the raw vectors).
  Matrix train(data.rows(), dim);
  for (size_t i = 0; i < data.rows(); ++i) {
    const float* row = data.Row(i);
    const float* centroid =
        centroids_.Row(static_cast<size_t>(coarse.assignments[i]));
    float* dst = train.Row(i);
    for (size_t d = 0; d < dim; ++d) {
      dst[d] = row[d] - centroid[d];
    }
  }
  pq_ = std::make_unique<ProductQuantizer>(train, options.pq_subspaces, rng,
                                           options.kmeans_iterations);

  ids_.resize(static_cast<size_t>(nlist_));
  codes_.assign(static_cast<size_t>(nlist_), PackedCodes(pq_->CodeBytes()));
  std::vector<uint8_t> code(pq_->CodeBytes());
  for (size_t i = 0; i < data.rows(); ++i) {
    const auto cluster = static_cast<size_t>(coarse.assignments[i]);
    pq_->Encode(train.Row(i), code.data());
    ids_[cluster].push_back(static_cast<int64_t>(i));
    codes_[cluster].Append(code.data());
  }
  raw_ = std::move(data);
}

std::vector<Neighbor>
IvfPqIndex::SearchLists(const float* query, size_t k, int rerank,
                        const std::vector<int32_t>& clusters) const {
  const size_t dim = centroids_.dim();

  // ADC scan inside probed lists. The candidate pool is max(k, rerank)
  // wide so re-ranking has material to work with.
  const size_t pool = std::max(k, static_cast<size_t>(rerank));
  TopK candidates(pool);
  std::vector<float> shifted(dim);
  // One table buffer for every probed list of this query.
  std::vector<float> table;
  for (int32_t cluster : clusters) {
    const auto c = static_cast<size_t>(cluster);
    const float* centroid = centroids_.Row(c);
    for (size_t d = 0; d < dim; ++d) {
      shifted[d] = query[d] - centroid[d];
    }
    pq_->BuildAdcTable(shifted.data(), table);
    const std::vector<int64_t>& list_ids = ids_[c];
    kernels::ScanCodesPackedIntoTopK(table.data(), codes_[c].data(),
                                     list_ids.size(), pq_->CodeBytes(),
                                     list_ids.data(), /*base_id=*/0,
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

std::vector<Neighbor>
IvfPqIndex::Search(const float* query, size_t k, int nprobe,
                   int rerank) const {
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  // Rank coarse clusters.
  TopK cluster_rank(static_cast<size_t>(std::min(nprobe, nlist_)));
  kernels::ScanRowsIntoTopK(query, centroids_.data(), centroids_.rows(),
                            centroids_.dim(), /*ids=*/nullptr, /*base_id=*/0,
                            cluster_rank);
  std::vector<int32_t> clusters;
  for (const Neighbor& cluster : cluster_rank.SortedTake()) {
    clusters.push_back(static_cast<int32_t>(cluster.id));
  }
  return SearchLists(query, k, rerank, clusters);
}

std::vector<std::vector<Neighbor>>
IvfPqIndex::SearchBatch(const Matrix& queries, size_t k, int nprobe,
                        int rerank) const {
  RAGO_REQUIRE(queries.dim() == pq_->dim(),
               "query dimensionality mismatch");
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  // Whole-block coarse ranking through the micro-tile kernel;
  // bit-identical to per-query Search's ranking.
  const std::vector<std::vector<int32_t>> ranked =
      RankCentroidsBatch(queries, centroids_, nprobe);
  std::vector<std::vector<Neighbor>> out(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    out[q] = SearchLists(queries.Row(q), k, rerank, ranked[q]);
  }
  return out;
}

double
IvfPqIndex::ExpectedScannedBytes(int nprobe) const {
  const double probed = std::min(nprobe, nlist_);
  return static_cast<double>(num_vectors_) * probed / nlist_ *
         static_cast<double>(pq_->CodeBytes());
}

}  // namespace rago::ann
