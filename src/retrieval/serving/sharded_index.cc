#include "retrieval/serving/sharded_index.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "retrieval/ann/flat_index.h"

namespace rago::serving {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  // Measurement only: feeds ShardSearchStats wall_s for calibration,
  // never control flow or results. rago-lint: allow(wallclock)
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Uniform per-shard search engine. Implementations wrap one functional
 * index, run its batched entry point, and report the (estimated or
 * measured) bytes scanned — the quantity the analytical cost models
 * price, and what calibration feeds back to them.
 */
class ShardEngine {
 public:
  virtual ~ShardEngine() = default;

  /// Shard-local top-k per query; adds scanned bytes to `*scan_bytes`.
  virtual std::vector<std::vector<ann::Neighbor>> SearchBatch(
      const ann::Matrix& queries, size_t k, double* scan_bytes) const = 0;

  /// Estimated bytes one query scans in this shard.
  virtual double BytesPerQuery() const = 0;
};

class FlatEngine : public ShardEngine {
 public:
  FlatEngine(ann::Matrix data, ann::Metric metric)
      : index_(std::move(data), metric) {}

  std::vector<std::vector<ann::Neighbor>> SearchBatch(
      const ann::Matrix& queries, size_t k, double* scan_bytes) const
      override {
    *scan_bytes +=
        BytesPerQuery() * static_cast<double>(queries.rows());
    return index_.SearchBatch(queries, k);
  }

  double BytesPerQuery() const override {
    return static_cast<double>(index_.size()) *
           static_cast<double>(index_.dim()) * sizeof(float);
  }

 private:
  ann::FlatIndex index_;
};

class IvfEngine : public ShardEngine {
 public:
  IvfEngine(ann::Matrix data, ann::Metric metric, ann::IvfOptions options,
            int nprobe, Rng& rng)
      : nprobe_(nprobe), dim_(data.dim()) {
    options.nlist = std::max(
        1, std::min(options.nlist, static_cast<int>(data.rows())));
    index_ = std::make_unique<ann::IvfIndex>(std::move(data), metric,
                                             options, rng);
  }

  std::vector<std::vector<ann::Neighbor>> SearchBatch(
      const ann::Matrix& queries, size_t k, double* scan_bytes) const
      override {
    *scan_bytes += BytesPerQuery() * static_cast<double>(queries.rows());
    return index_->SearchBatch(queries, k, nprobe_);
  }

  double BytesPerQuery() const override {
    // In-list exact distances plus the coarse centroid scan.
    return (index_->ExpectedScannedVectors(nprobe_) + index_->nlist()) *
           static_cast<double>(dim_) * sizeof(float);
  }

 private:
  int nprobe_;
  size_t dim_;
  std::unique_ptr<ann::IvfIndex> index_;
};

class IvfPqEngine : public ShardEngine {
 public:
  IvfPqEngine(ann::Matrix data, ann::IvfPqOptions options, int nprobe,
              int rerank, Rng& rng)
      : nprobe_(nprobe), rerank_(rerank) {
    options.nlist = std::max(
        1, std::min(options.nlist, static_cast<int>(data.rows())));
    index_ =
        std::make_unique<ann::IvfPqIndex>(std::move(data), options, rng);
  }

  std::vector<std::vector<ann::Neighbor>> SearchBatch(
      const ann::Matrix& queries, size_t k, double* scan_bytes) const
      override {
    *scan_bytes += BytesPerQuery() * static_cast<double>(queries.rows());
    return index_->SearchBatch(queries, k, nprobe_, rerank_);
  }

  double BytesPerQuery() const override {
    return index_->ExpectedScannedBytes(nprobe_);
  }

 private:
  int nprobe_;
  int rerank_;
  std::unique_ptr<ann::IvfPqIndex> index_;
};

class HnswEngine : public ShardEngine {
 public:
  HnswEngine(ann::Matrix data, ann::Metric metric,
             const ann::HnswOptions& options, int ef_search, Rng& rng)
      : ef_search_(ef_search), dim_(data.dim()),
        index_(std::move(data), metric, options, rng) {}

  std::vector<std::vector<ann::Neighbor>> SearchBatch(
      const ann::Matrix& queries, size_t k, double* scan_bytes) const
      override {
    // The counted overload keeps the eval tally in a caller-owned
    // slot, so the (shard x query-block) tasks of one batch search
    // this shard concurrently; only the stats fold below serializes.
    int64_t evals = 0;
    auto results = index_.SearchBatch(queries, k, ef_search_, &evals);
    // Graph search has no closed-form scan estimate; charge the
    // measured distance evaluations at full precision.
    *scan_bytes += static_cast<double>(evals) *
                   static_cast<double>(dim_) * sizeof(float);
    // Lifetime integer totals: block completion order cannot change
    // the running average (unlike a "most recent block" snapshot).
    std::lock_guard<std::mutex> guard(mutex_);
    total_evals_ += evals;
    total_queries_ += static_cast<int64_t>(results.size());
    return results;
  }

  double BytesPerQuery() const override {
    // Measured average over every query searched so far; 0 before any.
    std::lock_guard<std::mutex> guard(mutex_);
    if (total_queries_ == 0) {
      return 0.0;
    }
    return static_cast<double>(total_evals_) /
           static_cast<double>(total_queries_) *
           static_cast<double>(dim_) * sizeof(float);
  }

 private:
  int ef_search_;
  size_t dim_;
  ann::HnswIndex index_;
  mutable std::mutex mutex_;
  mutable int64_t total_evals_ = 0;
  mutable int64_t total_queries_ = 0;
};

class ScannTreeEngine : public ShardEngine {
 public:
  ScannTreeEngine(ann::Matrix data, const ann::ScannTreeOptions& options,
                  int beam, int rerank, Rng& rng)
      : beam_(beam), rerank_(rerank),
        index_(std::move(data), options, rng) {}

  std::vector<std::vector<ann::Neighbor>> SearchBatch(
      const ann::Matrix& queries, size_t k, double* scan_bytes) const
      override {
    *scan_bytes += BytesPerQuery() * static_cast<double>(queries.rows());
    return index_.SearchBatch(queries, k, beam_, rerank_);
  }

  double BytesPerQuery() const override {
    return index_.ExpectedLeafBytesScanned(beam_);
  }

 private:
  int beam_;
  int rerank_;
  ann::ScannTree index_;
};

std::unique_ptr<ShardEngine> BuildEngine(ann::Matrix data,
                                         const ShardedIndexOptions& options,
                                         Rng& rng) {
  switch (options.backend) {
    case ShardBackend::kFlat:
      return std::make_unique<FlatEngine>(std::move(data), options.metric);
    case ShardBackend::kIvf:
      return std::make_unique<IvfEngine>(std::move(data), options.metric,
                                         options.ivf, options.nprobe, rng);
    case ShardBackend::kIvfPq:
      return std::make_unique<IvfPqEngine>(std::move(data), options.ivfpq,
                                           options.nprobe, options.rerank,
                                           rng);
    case ShardBackend::kHnsw:
      return std::make_unique<HnswEngine>(std::move(data), options.metric,
                                          options.hnsw, options.ef_search,
                                          rng);
    case ShardBackend::kScannTree:
      return std::make_unique<ScannTreeEngine>(std::move(data), options.tree,
                                               options.beam, options.rerank,
                                               rng);
  }
  RAGO_CHECK(false, "unknown shard backend");
}

}  // namespace

const char*
ShardBackendName(ShardBackend backend) {
  switch (backend) {
    case ShardBackend::kFlat: return "flat";
    case ShardBackend::kIvf: return "ivf";
    case ShardBackend::kIvfPq: return "ivfpq";
    case ShardBackend::kHnsw: return "hnsw";
    case ShardBackend::kScannTree: return "scann-tree";
  }
  RAGO_CHECK(false, "unknown shard backend");
}

double
ShardSearchStats::TotalScanBytes() const {
  double total = 0.0;
  for (const ShardStats& shard : shards) {
    total += shard.scan_bytes;
  }
  return total;
}

double
ShardSearchStats::BytesPerQueryPerShard() const {
  if (shards.empty() || num_queries == 0) {
    return 0.0;
  }
  return TotalScanBytes() /
         (static_cast<double>(num_queries) *
          static_cast<double>(shards.size()));
}

double
ShardSearchStats::MaxShardSeconds() const {
  double worst = 0.0;
  for (const ShardStats& shard : shards) {
    worst = std::max(worst, shard.wall_seconds);
  }
  return worst;
}

/// One logical retrieval server: its global ids and search engine.
struct ShardedIndex::Shard {
  std::vector<int64_t> ids;  ///< Local row -> global id (ascending).
  std::unique_ptr<ShardEngine> engine;  ///< Null for empty shards.
};

ShardedIndex::~ShardedIndex() = default;

// Hand-written because pool_mutex_ pins the implicit move; the moved-to
// index re-creates its owned pool lazily on first use.
ShardedIndex::ShardedIndex(ShardedIndex&& other) noexcept
    : options_(std::move(other.options_)),
      total_rows_(other.total_rows_),
      dim_(other.dim_),
      partition_(std::move(other.partition_)),
      shards_(std::move(other.shards_)) {}

ShardedIndex::ShardedIndex(ann::Matrix data,
                           const ShardedIndexOptions& options)
    : options_(options), total_rows_(data.rows()), dim_(data.dim()) {
  RAGO_REQUIRE(options_.num_shards >= 1, "need at least one shard");
  RAGO_REQUIRE(options_.num_threads >= 0,
               "num_threads must be >= 0 (0 = hardware concurrency)");
  RAGO_REQUIRE(options_.query_block >= 1,
               "query_block must be >= 1");
  if (options_.modeled_db.has_value()) {
    options_.modeled_db->Validate();
    const int min_servers = retrieval::ScannModel::MinServersForCapacity(
        *options_.modeled_db, options_.modeled_server);
    RAGO_REQUIRE(
        options_.num_shards >= min_servers,
        "shard count under-provisions the modeled database: " +
            std::to_string(options_.num_shards) + " shards < " +
            std::to_string(min_servers) +
            " servers required for DRAM capacity");
  }
  partition_ =
      PartitionRows(data, options_.num_shards, options_.partitioner,
                    options_.seed);

  shards_.resize(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    shard.ids = partition_.shard_rows[static_cast<size_t>(s)];
    if (shard.ids.empty()) {
      continue;  // Hash partitions may leave tiny databases uneven.
    }
    ann::Matrix rows(shard.ids.size(), dim_);
    for (size_t i = 0; i < shard.ids.size(); ++i) {
      rows.CopyRowFrom(data, static_cast<size_t>(shard.ids[i]), i);
    }
    // Independent deterministic build stream per shard.
    Rng shard_rng(Rng::DeriveSeed(options_.seed,
                                  static_cast<uint64_t>(s)));
    shard.engine = BuildEngine(std::move(rows), options_, shard_rng);
  }
}

std::vector<ann::Neighbor>
ShardedIndex::Search(const float* query, size_t k) const {
  ann::Matrix one(1, dim_);
  for (size_t d = 0; d < dim_; ++d) {
    one.Row(0)[d] = query[d];
  }
  return SearchBatch(one, k).front();
}

ThreadPool*
ShardedIndex::EffectivePool(ThreadPool* pool) const {
  if (pool != nullptr) {
    return pool;
  }
  const int threads = ResolveNumThreads(options_.num_threads);
  if (threads <= 1) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (owned_pool_ == nullptr) {
    owned_pool_ = std::make_unique<ThreadPool>(threads);
  }
  return owned_pool_.get();
}

std::vector<std::vector<ann::Neighbor>>
ShardedIndex::SearchBatch(const ann::Matrix& queries, size_t k,
                          ThreadPool* pool,
                          ShardSearchStats* stats) const {
  RAGO_REQUIRE(queries.dim() == dim_, "query dimensionality mismatch");
  RAGO_REQUIRE(k >= 1, "top-k requires k >= 1");
  pool = EffectivePool(pool);
  const size_t num_queries = queries.rows();
  const size_t num_shards = shards_.size();

  // --- Scatter: (shard x query-block) tasks into task-indexed slots.
  // Sub-shard blocks keep workers busy when a large batch lands on few
  // shards; the fixed block size makes the decomposition — and all
  // block-ordered accumulation below — thread-count-invariant. ---
  const size_t block = static_cast<size_t>(options_.query_block);
  const size_t num_blocks = (num_queries + block - 1) / block;
  struct BlockResult {
    std::vector<std::vector<ann::Neighbor>> results;
    double scan_bytes = 0.0;
    double wall_seconds = 0.0;
  };
  std::vector<BlockResult> blocks(num_shards * num_blocks);
  std::vector<ShardStats> shard_stats(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shard_stats[s].rows = static_cast<int64_t>(shards_[s].ids.size());
  }
  // Materialize each block's query rows once, shared by every shard
  // (and outside the timed window). The single-block fast path feeds
  // `queries` straight through.
  std::vector<ann::Matrix> chunks;
  if (num_blocks > 1) {
    chunks.reserve(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      const size_t begin = b * block;
      const size_t end = std::min(num_queries, begin + block);
      ann::Matrix chunk(end - begin, dim_);
      for (size_t i = begin; i < end; ++i) {
        chunk.CopyRowFrom(queries, i, i - begin);
      }
      chunks.push_back(std::move(chunk));
    }
  }
  ParallelFor(pool, blocks.size(), [&](size_t t) {
    const size_t s = t / num_blocks;
    const size_t b = t % num_blocks;
    const Shard& shard = shards_[s];
    if (shard.engine == nullptr) {
      return;
    }
    BlockResult& slot = blocks[t];
    const ann::Matrix& chunk = num_blocks == 1 ? queries : chunks[b];
    // Measurement only (per-shard scan wall_s). rago-lint: allow(wallclock)
    const Clock::time_point start = Clock::now();
    std::vector<std::vector<ann::Neighbor>> results =
        shard.engine->SearchBatch(chunk, k, &slot.scan_bytes);
    // Map shard-local row ids to global ids. Rows are assigned in
    // ascending global order, so the mapping is monotone and the
    // merged tie-break matches the single-index one exactly.
    for (auto& result : results) {
      for (ann::Neighbor& neighbor : result) {
        neighbor.id = shard.ids[static_cast<size_t>(neighbor.id)];
      }
    }
    slot.results = std::move(results);
    slot.wall_seconds = SecondsSince(start);
  });

  // Fold block slots into per-shard stats in block order, so the
  // floating-point scan_bytes sum never depends on completion order.
  for (size_t s = 0; s < num_shards; ++s) {
    for (size_t b = 0; b < num_blocks; ++b) {
      const BlockResult& slot = blocks[s * num_blocks + b];
      shard_stats[s].scan_bytes += slot.scan_bytes;
      shard_stats[s].wall_seconds += slot.wall_seconds;
    }
  }

  // --- Gather: merge per-shard result lists. TopK is order-independent
  // under the total (dist, id) order, so the merge never depends on
  // shard or completion order.
  // Measurement only (merge wall_s). rago-lint: allow(wallclock)
  const Clock::time_point merge_start = Clock::now();
  std::vector<std::vector<ann::Neighbor>> merged(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    ann::TopK topk(k);
    const size_t b = q / block;
    const size_t offset = q % block;
    for (size_t s = 0; s < num_shards; ++s) {
      const BlockResult& slot = blocks[s * num_blocks + b];
      if (slot.results.empty()) {
        continue;  // Empty shard produced no result lists.
      }
      for (const ann::Neighbor& neighbor : slot.results[offset]) {
        topk.Push(neighbor.dist, neighbor.id);
      }
    }
    merged[q] = topk.SortedTake();
  }
  const double merge_seconds = SecondsSince(merge_start);

  if (stats != nullptr) {
    stats->shards = std::move(shard_stats);
    stats->merge_seconds = merge_seconds;
    stats->num_queries = static_cast<int64_t>(num_queries);
  }
  return merged;
}

double
ShardedIndex::BytesPerQueryPerShardEstimate() const {
  double total = 0.0;
  int populated = 0;
  for (const Shard& shard : shards_) {
    if (shard.engine != nullptr) {
      total += shard.engine->BytesPerQuery();
      ++populated;
    }
  }
  return populated > 0 ? total / populated : 0.0;
}

}  // namespace rago::serving
