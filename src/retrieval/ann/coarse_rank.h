/**
 * @file coarse_rank.h
 * Batched coarse-centroid ranking for inverted-file indexes.
 *
 * The IVF and IVF-PQ batched entry points used to rank coarse
 * centroids once per query with the one-query batch kernel; this
 * helper ranks a whole query block through the multi-query micro-tile
 * kernel instead, streaming each centroid row once per query tile
 * (the same row-outer tiling FlatIndex::SearchBatch uses).
 *
 * Parity contract: within one kernel variant the batch and tile
 * kernels are bit-identical for the same (query, row) pair, and TopK
 * is order-independent under the total `(dist, id)` order, so the
 * returned ranking — ids, order, and tie-breaks — is exactly the
 * per-query ScanRowsIntoTopK ranking (pinned in
 * tests/test_distance_kernels.cc).
 */
#ifndef RAGO_RETRIEVAL_ANN_COARSE_RANK_H
#define RAGO_RETRIEVAL_ANN_COARSE_RANK_H

#include <cstdint>
#include <vector>

#include "retrieval/ann/matrix.h"

namespace rago::ann {

/**
 * For every row of `queries`, the indexes of the `nprobe` nearest
 * `centroids` rows by squared L2, ascending by (distance, id). Caps
 * nprobe at the centroid count; `nprobe` must be positive.
 */
std::vector<std::vector<int32_t>> RankCentroidsBatch(
    const Matrix& queries, const Matrix& centroids, int nprobe);

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_COARSE_RANK_H
