#include "retrieval/serving/partitioner.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/kmeans.h"

namespace rago::serving {
namespace {

/// splitmix64 finalizer: decorrelates consecutive row ids.
uint64_t HashId(uint64_t id, uint64_t seed) {
  uint64_t z = id + seed + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Partition MakeEmpty(int num_shards) {
  Partition partition;
  partition.shard_rows.resize(static_cast<size_t>(num_shards));
  return partition;
}

Partition RoundRobin(size_t rows, int num_shards) {
  Partition partition = MakeEmpty(num_shards);
  for (size_t i = 0; i < rows; ++i) {
    partition.shard_rows[i % static_cast<size_t>(num_shards)].push_back(
        static_cast<int64_t>(i));
  }
  return partition;
}

Partition HashRows(size_t rows, int num_shards, uint64_t seed) {
  Partition partition = MakeEmpty(num_shards);
  for (size_t i = 0; i < rows; ++i) {
    const auto shard =
        HashId(i, seed) % static_cast<uint64_t>(num_shards);
    partition.shard_rows[shard].push_back(static_cast<int64_t>(i));
  }
  return partition;
}

/**
 * k-means with `num_shards` centroids, then capacity-bounded placement:
 * each row (in ascending id order) goes to its nearest centroid whose
 * shard is below ceil(rows / num_shards), spilling to the next-nearest
 * otherwise. Keeps cluster locality without the unbounded skew of raw
 * nearest-centroid assignment.
 */
Partition KMeansBalanced(const ann::Matrix& data, int num_shards,
                         uint64_t seed) {
  Partition partition = MakeEmpty(num_shards);
  const size_t capacity = static_cast<size_t>(
      CeilDiv(static_cast<int64_t>(data.rows()), num_shards));
  Rng rng(seed);
  const ann::KMeansResult trained =
      ann::TrainKMeans(data, num_shards, rng);

  std::vector<int> order(static_cast<size_t>(num_shards));
  std::vector<float> dist(static_cast<size_t>(num_shards));
  for (size_t i = 0; i < data.rows(); ++i) {
    // The shard centroids are one contiguous block: rank them with a
    // single batched scan per row.
    ann::kernels::DistanceBatch(data.Row(i), trained.centroids.data(),
                                static_cast<size_t>(num_shards), data.dim(),
                                dist.data());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const float da = dist[static_cast<size_t>(a)];
      const float db = dist[static_cast<size_t>(b)];
      return da != db ? da < db : a < b;
    });
    for (int shard : order) {
      auto& rows = partition.shard_rows[static_cast<size_t>(shard)];
      if (rows.size() < capacity) {
        rows.push_back(static_cast<int64_t>(i));
        break;
      }
    }
  }
  return partition;
}

}  // namespace

const char*
PartitionerName(PartitionerKind kind) {
  switch (kind) {
    case PartitionerKind::kRoundRobin: return "round-robin";
    case PartitionerKind::kHash: return "hash";
    case PartitionerKind::kKMeansBalanced: return "kmeans";
  }
  RAGO_CHECK(false, "unknown partitioner kind");
}

size_t
Partition::TotalRows() const {
  size_t total = 0;
  for (const auto& rows : shard_rows) {
    total += rows.size();
  }
  return total;
}

Partition
PartitionRows(const ann::Matrix& data, int num_shards, PartitionerKind kind,
              uint64_t seed) {
  RAGO_REQUIRE(num_shards >= 1, "need at least one shard");
  RAGO_REQUIRE(!data.empty(), "cannot partition an empty database");
  RAGO_REQUIRE(static_cast<size_t>(num_shards) <= data.rows(),
               "more shards than database rows");
  switch (kind) {
    case PartitionerKind::kRoundRobin:
      return RoundRobin(data.rows(), num_shards);
    case PartitionerKind::kHash:
      return HashRows(data.rows(), num_shards, seed);
    case PartitionerKind::kKMeansBalanced:
      return KMeansBalanced(data, num_shards, seed);
  }
  RAGO_CHECK(false, "unknown partitioner kind");
}

}  // namespace rago::serving
