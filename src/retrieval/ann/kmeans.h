/**
 * @file kmeans.h
 * Lloyd's k-means with k-means++ seeding.
 *
 * Used to train IVF coarse quantizers, product-quantizer codebooks,
 * and the hierarchical ScaNN-style tree. Deterministic given the Rng
 * seed.
 */
#ifndef RAGO_RETRIEVAL_ANN_KMEANS_H
#define RAGO_RETRIEVAL_ANN_KMEANS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "retrieval/ann/matrix.h"

namespace rago::ann {

/// k-means training output.
struct KMeansResult {
  Matrix centroids;                  ///< k x dim centroid matrix.
  std::vector<int32_t> assignments;  ///< Per-input nearest centroid.
  double inertia = 0.0;              ///< Sum of squared distances.
  int iterations_run = 0;
};

/// Tuning knobs for k-means training.
struct KMeansOptions {
  int max_iterations = 20;
};

/**
 * Trains k centroids over `data`, seeded by k-means++. Stops after
 * `max_iterations` or once an iteration improves inertia by less than
 * 1e-4 relative.
 *
 * Empty clusters are re-seeded from the point farthest from its
 * centroid, so exactly k non-degenerate centroids are returned even on
 * adversarial data (k must not exceed the number of rows).
 */
KMeansResult TrainKMeans(const Matrix& data, int k, Rng& rng,
                         const KMeansOptions& options = {});

}  // namespace rago::ann

#endif  // RAGO_RETRIEVAL_ANN_KMEANS_H
