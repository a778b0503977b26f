#include "retrieval/ann/coarse_rank.h"

#include <algorithm>

#include "common/check.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

std::vector<std::vector<int32_t>>
RankCentroidsBatch(const Matrix& queries, const Matrix& centroids,
                   int nprobe) {
  RAGO_REQUIRE(nprobe > 0, "nprobe must be positive");
  RAGO_REQUIRE(queries.dim() == centroids.dim(),
               "query/centroid dimensionality mismatch");
  const size_t num_queries = queries.rows();
  const size_t num_centroids = centroids.rows();
  const size_t keep = std::min<size_t>(static_cast<size_t>(nprobe),
                                       num_centroids);

  std::vector<TopK> topks;
  topks.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    topks.emplace_back(keep);
  }
  // Shared micro-tiled scan; TopK is order-independent, so the
  // ranking matches the per-query one exactly.
  kernels::ScanTileIntoTopK(queries.data(), num_queries, centroids.data(),
                            num_centroids, centroids.dim(), /*base_id=*/0,
                            topks.data());

  std::vector<std::vector<int32_t>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<int32_t>& ranked = out[q];
    ranked.reserve(keep);
    for (const Neighbor& neighbor : topks[q].SortedTake()) {
      ranked.push_back(static_cast<int32_t>(neighbor.id));
    }
  }
  return out;
}

}  // namespace rago::ann
