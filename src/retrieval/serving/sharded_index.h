/**
 * @file sharded_index.h
 * Scatter-gather ANN search over a sharded in-memory database.
 *
 * Functional counterpart of the paper's multi-server retrieval tier
 * (§3.3): the database is partitioned across N logical servers, every
 * query fans out to all shards (each shard searched by any of the
 * existing functional backends), and per-shard top-k lists are merged
 * into globally ranked results under TopK's total `(dist, id)` order.
 * With the flat backend the merged results are bit-identical to a
 * single-index search — the property the exactness tests pin — and
 * per-shard timing instrumentation feeds the measured-cost calibration
 * adapter (serving/calibration.h) so the serving DES can replay real
 * multi-server scans against the analytical ScannModel.
 *
 * Determinism contract: given a fixed options.seed, build and search
 * results are identical for every thread count (block results land in
 * (shard x query-block)-indexed slots; the merge visits shards in
 * order; per-shard build RNG streams derive from Rng::DeriveSeed).
 */
#ifndef RAGO_RETRIEVAL_SERVING_SHARDED_INDEX_H
#define RAGO_RETRIEVAL_SERVING_SHARDED_INDEX_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "hardware/cpu_server.h"
#include "retrieval/ann/distance.h"
#include "retrieval/ann/hnsw_index.h"
#include "retrieval/ann/ivf_index.h"
#include "retrieval/ann/ivfpq_index.h"
#include "retrieval/ann/matrix.h"
#include "retrieval/ann/scann_tree.h"
#include "retrieval/ann/topk.h"
#include "retrieval/perf/scann_model.h"
#include "retrieval/serving/partitioner.h"

namespace rago::serving {

/// Per-shard search engine choice.
enum class ShardBackend {
  kFlat,
  kIvf,
  kIvfPq,
  kHnsw,
  kScannTree,
};

const char* ShardBackendName(ShardBackend backend);

/// Build + search configuration of a sharded index.
struct ShardedIndexOptions {
  int num_shards = 4;
  PartitionerKind partitioner = PartitionerKind::kRoundRobin;
  ShardBackend backend = ShardBackend::kFlat;
  ann::Metric metric = ann::Metric::kL2;
  /// Base seed; per-shard build streams derive deterministically.
  uint64_t seed = 0x5ca77e2;

  /**
   * Worker threads for SearchBatch when the caller passes no pool:
   * 0 = hardware concurrency, 1 = inline. The owned pool is created
   * lazily on first use; an explicitly passed pool always wins.
   */
  int num_threads = 0;
  /**
   * Queries per (shard x query-block) task. Sub-shard splitting keeps
   * workers busy when large batches land on few shards; the block size
   * is a fixed knob (never derived from the thread count) so the task
   * decomposition — and therefore the merged results and scan-byte
   * accounting — is identical for every pool size.
   */
  int query_block = 32;

  // Backend knobs (only the matching backend's fields are read).
  ann::IvfOptions ivf;
  int nprobe = 8;               ///< IVF / IVF-PQ probe width.
  ann::IvfPqOptions ivfpq;
  int rerank = 0;               ///< IVF-PQ / tree exact re-rank depth.
  ann::HnswOptions hnsw;
  int ef_search = 64;           ///< HNSW beam width.
  ann::ScannTreeOptions tree;
  int beam = 8;                 ///< Tree beam width per level.

  /**
   * Optional capacity check: when set, the shard count must cover the
   * modeled database's DRAM footprint
   * (ScannModel::MinServersForCapacity on `modeled_server`), so
   * under-provisioned configurations fail loudly at build time instead
   * of silently mispricing the tier they stand in for.
   */
  std::optional<retrieval::DatabaseSpec> modeled_db;
  CpuServerSpec modeled_server = DefaultCpuServer();
};

/// Instrumentation of one shard during a batch search.
struct ShardStats {
  int64_t rows = 0;           ///< Database vectors held by the shard.
  double scan_bytes = 0.0;    ///< Bytes scanned over the whole batch.
  /**
   * Shard-local busy seconds: the summed durations of this shard's
   * (shard x query-block) tasks. Equals wall time when the batch fits
   * one block (or runs inline); with sub-shard parallelism the blocks
   * overlap, so this upper-bounds the shard's wall-clock contribution.
   */
  double wall_seconds = 0.0;
};

/// Instrumentation of one SearchBatch call.
struct ShardSearchStats {
  std::vector<ShardStats> shards;
  double merge_seconds = 0.0;  ///< Gather + global top-k merge time.
  int64_t num_queries = 0;

  double TotalScanBytes() const;
  /// Mean bytes one query scans within one shard.
  double BytesPerQueryPerShard() const;
  /// Busiest shard's summed task seconds — an upper bound on the
  /// scatter critical path (exact when each shard ran as one block).
  double MaxShardSeconds() const;
};

/**
 * N logical retrieval servers behind one search interface. Immutable
 * after construction; SearchBatch is const and thread-compatible.
 */
class ShardedIndex {
 public:
  /// Partitions `data` and builds one backend index per shard.
  ShardedIndex(ann::Matrix data, const ShardedIndexOptions& options);

  ~ShardedIndex();
  ShardedIndex(ShardedIndex&&) noexcept;
  ShardedIndex& operator=(ShardedIndex&&) noexcept = delete;

  /// Scatter-gather top-k for one query (global ids, ascending dist).
  std::vector<ann::Neighbor> Search(const float* query, size_t k) const;

  /**
   * Batched multi-query scatter-gather, split into (shard x
   * query-block) tasks. Tasks run on `pool` when given, else on the
   * lazily created owned pool (options.num_threads; inline when that
   * resolves to 1); results are identical for any thread count. When
   * `stats` is non-null it receives per-shard instrumentation.
   */
  std::vector<std::vector<ann::Neighbor>> SearchBatch(
      const ann::Matrix& queries, size_t k, ThreadPool* pool = nullptr,
      ShardSearchStats* stats = nullptr) const;

  int num_shards() const { return options_.num_shards; }
  size_t size() const { return total_rows_; }
  size_t dim() const { return dim_; }
  const ShardedIndexOptions& options() const { return options_; }
  const Partition& partition() const { return partition_; }

  /// Estimated bytes one query scans per shard (backend model; the
  /// HNSW backend reports the measured lifetime average over every
  /// query searched so far — block-order independent — 0 before any
  /// search).
  double BytesPerQueryPerShardEstimate() const;

 private:
  struct Shard;

  /// Explicit pool if given, else the lazily built owned pool (null
  /// when options_.num_threads resolves to 1).
  ThreadPool* EffectivePool(ThreadPool* pool) const;

  ShardedIndexOptions options_;
  size_t total_rows_ = 0;
  size_t dim_ = 0;
  Partition partition_;
  std::vector<Shard> shards_;
  mutable std::mutex pool_mutex_;  ///< Guards owned_pool_ creation.
  mutable std::unique_ptr<ThreadPool> owned_pool_;
};

}  // namespace rago::serving

#endif  // RAGO_RETRIEVAL_SERVING_SHARDED_INDEX_H
