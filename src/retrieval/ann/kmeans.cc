#include "retrieval/ann/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "retrieval/ann/kernels/distance_kernels.h"

namespace rago::ann {
namespace {

/// Points per assignment micro-tile: two 4-query kernel groups, so the
/// centroid block is streamed once per 8 points.
constexpr size_t kAssignTile = 8;

/// Training stops once an iteration improves inertia by less than this
/// fraction.
constexpr double kConvergenceTolerance = 1e-4;

/// Writes `rows` column-major into `cols` (the l2sq_cols layout):
/// dimension d of row i lands at `cols[d * rows.rows() + i]`.
void TransposeInto(const Matrix& rows, std::vector<float>& cols) {
  const size_t n = rows.rows();
  cols.resize(rows.dim() * n);
  for (size_t i = 0; i < n; ++i) {
    const float* row = rows.Row(i);
    for (size_t d = 0; d < rows.dim(); ++d) {
      cols[d * n + i] = row[d];
    }
  }
}

/// k-means++ seeding: each new centroid is drawn proportionally to the
/// squared distance from the nearest already-chosen centroid.
Matrix SeedPlusPlus(const Matrix& data, int k, Rng& rng) {
  const size_t n = data.rows();
  const size_t dim = data.dim();
  Matrix centroids(static_cast<size_t>(k), dim);

  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  std::vector<float> dist(n);
  size_t first = rng.NextBounded(n);
  centroids.CopyRowFrom(data, first, 0);

  // Below kMinRowSimdDim the row-major batch kernel runs its scalar
  // remainder alone; a transposed copy of the data gives the column-
  // major kernel one point per SIMD lane and the same bits.
  const bool column_major = dim < kernels::kMinRowSimdDim;
  std::vector<float> data_cols;
  if (column_major) {
    TransposeInto(data, data_cols);
  }
  const kernels::KernelTable& active = kernels::Active();

  for (int c = 1; c < k; ++c) {
    const float* last = centroids.Row(static_cast<size_t>(c - 1));
    // One batched scan of the whole database against the newest
    // centroid replaces n single-row distance calls.
    if (column_major) {
      active.l2sq_cols(last, data_cols.data(), n, dim, dist.data());
    } else {
      kernels::DistanceBatch(last, data.data(), n, dim, dist.data());
    }
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], dist[i]);
      total += min_dist[i];
    }
    size_t chosen = 0;
    if (total > 0.0) {
      double target = rng.NextDouble() * total;
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) {
        acc += min_dist[i];
        if (acc >= target) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.NextBounded(n);  // All points identical.
    }
    centroids.CopyRowFrom(data, chosen, static_cast<size_t>(c));
  }
  return centroids;
}

}  // namespace

KMeansResult
TrainKMeans(const Matrix& data, int k, Rng& rng, const KMeansOptions& options) {
  RAGO_REQUIRE(k > 0, "k must be positive");
  RAGO_REQUIRE(static_cast<size_t>(k) <= data.rows(),
               "k-means requires at least k input rows");
  const size_t n = data.rows();
  const size_t dim = data.dim();
  const auto num_centroids = static_cast<size_t>(k);

  KMeansResult result;
  result.centroids = SeedPlusPlus(data, k, rng);
  result.assignments.assign(n, 0);

  std::vector<double> sums(num_centroids * dim);
  std::vector<int64_t> counts(num_centroids);
  std::vector<float> tile_dists(kAssignTile * num_centroids);
  // Below kMinRowSimdDim every variant's tile kernel runs its scalar
  // remainder alone; the column-major kernel gives the same bits with
  // one centroid per SIMD lane.
  const bool column_major = dim < kernels::kMinRowSimdDim;
  std::vector<float> centroid_cols;
  double prev_inertia = std::numeric_limits<double>::max();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations_run = iter + 1;
    // Assignment step: argmin each point's distances to the centroid
    // block (first index wins ties, like the sequential scan this
    // replaces).
    double inertia = 0.0;
    std::vector<size_t> farthest_per_cluster(num_centroids, 0);
    std::vector<float> farthest_dist(num_centroids, -1.0f);
    auto assign = [&](size_t i, size_t c, float d) {
      result.assignments[i] = static_cast<int32_t>(c);
      inertia += d;
      if (d > farthest_dist[c]) {
        farthest_dist[c] = d;
        farthest_per_cluster[c] = i;
      }
    };
    if (column_major) {
      TransposeInto(result.centroids, centroid_cols);
      for (size_t i = 0; i < n; ++i) {
        float d = 0.0f;
        const size_t c =
            kernels::ArgMinL2Cols(data.Row(i), centroid_cols.data(),
                                  num_centroids, dim, tile_dists, &d);
        assign(i, c, d);
      }
    } else {
      // Micro-tile the points against the centroid block.
      for (size_t start = 0; start < n; start += kAssignTile) {
        const size_t count =
            n - start < kAssignTile ? n - start : kAssignTile;
        kernels::DistanceTile(data.Row(start), count, result.centroids.data(),
                              num_centroids, dim, tile_dists.data());
        for (size_t j = 0; j < count; ++j) {
          const float* dists = tile_dists.data() + j * num_centroids;
          size_t c = 0;
          for (size_t cc = 1; cc < num_centroids; ++cc) {
            if (dists[cc] < dists[c]) {
              c = cc;
            }
          }
          assign(start + j, c, dists[c]);
        }
      }
    }
    result.inertia = inertia;

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      const auto c = static_cast<size_t>(result.assignments[i]);
      const float* row = data.Row(i);
      for (size_t d = 0; d < dim; ++d) {
        sums[c * dim + d] += row[d];
      }
      ++counts[c];
    }
    for (size_t c = 0; c < num_centroids; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster from the globally farthest point of
        // the largest cluster to keep k live centroids.
        size_t donor = 0;
        float worst = -1.0f;
        for (size_t cc = 0; cc < num_centroids; ++cc) {
          if (farthest_dist[cc] > worst) {
            worst = farthest_dist[cc];
            donor = cc;
          }
        }
        result.centroids.CopyRowFrom(data, farthest_per_cluster[donor], c);
        continue;
      }
      float* centroid = result.centroids.Row(c);
      for (size_t d = 0; d < dim; ++d) {
        centroid[d] =
            static_cast<float>(sums[c * dim + d] / counts[c]);
      }
    }

    // Convergence check on relative inertia improvement.
    if (prev_inertia < std::numeric_limits<double>::max()) {
      const double rel =
          (prev_inertia - inertia) / std::max(prev_inertia, 1e-30);
      if (rel >= 0.0 && rel < kConvergenceTolerance) {
        break;
      }
    }
    prev_inertia = inertia;
  }
  return result;
}

}  // namespace rago::ann
