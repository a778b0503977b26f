#include "retrieval/ann/flat_index.h"

#include "common/check.h"
#include "retrieval/ann/kernels/distance_kernels.h"

namespace rago::ann {

FlatIndex::FlatIndex(Matrix data) : data_(std::move(data)) {
  RAGO_REQUIRE(!data_.empty(), "flat index requires a non-empty database");
}

std::vector<Neighbor>
FlatIndex::Search(const float* query, size_t k) const {
  TopK topk(k);
  kernels::ScanRowsIntoTopK(query, data_.data(), data_.rows(), data_.dim(),
                            /*ids=*/nullptr, /*base_id=*/0, topk);
  return topk.SortedTake();
}

std::vector<std::vector<Neighbor>>
FlatIndex::SearchBatch(const Matrix& queries, size_t k) const {
  RAGO_REQUIRE(queries.dim() == data_.dim(), "query dimensionality mismatch");
  const size_t num_queries = queries.rows();
  std::vector<TopK> topks;
  topks.reserve(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    topks.emplace_back(k);
  }
  // Shared micro-tiled scan: every database row is streamed once per
  // query tile, and TopK is order-independent, so results are
  // bit-identical to per-query Search.
  kernels::ScanTileIntoTopK(queries.data(), num_queries, data_.data(),
                            data_.rows(), data_.dim(), /*base_id=*/0,
                            topks.data());
  std::vector<std::vector<Neighbor>> out(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    out[q] = topks[q].SortedTake();
  }
  return out;
}

}  // namespace rago::ann
