/**
 * @file rerank.h
 * Exact re-ranking of an approximate-search shortlist.
 *
 * Shared by the PQ-based indexes (IVF-PQ, ScaNN tree): the shortlist
 * rows are scattered across the raw database, so they are gathered
 * into one contiguous block and scored with the batched L2 kernel.
 */
#ifndef RAGO_RETRIEVAL_ANN_RERANK_H
#define RAGO_RETRIEVAL_ANN_RERANK_H

#include <vector>

#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/ann/topk.h"

namespace rago::ann {

/**
 * Re-scores `shortlist` (ids into `raw`) with exact L2 distances to
 * `query` and returns the top `k`. The result is order-independent
 * under the total `(dist, id)` order (exact distances finite; NaN has
 * no place in it), so equal exact distances resolve to the lower id
 * whatever the shortlist order.
 */
inline std::vector<Neighbor> RerankExactL2(
    const std::vector<Neighbor>& shortlist, const float* query,
    const Matrix& raw, size_t k) {
  Matrix gathered(shortlist.size(), raw.dim());
  for (size_t i = 0; i < shortlist.size(); ++i) {
    gathered.CopyRowFrom(raw, static_cast<size_t>(shortlist[i].id), i);
  }
  std::vector<float> dists(shortlist.size());
  kernels::DistanceBatch(query, gathered.data(), shortlist.size(), raw.dim(),
                         dists.data());
  TopK exact(k);
  for (size_t i = 0; i < shortlist.size(); ++i) {
    exact.Push(dists[i], shortlist[i].id);
  }
  return exact.SortedTake();
}

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_RERANK_H
