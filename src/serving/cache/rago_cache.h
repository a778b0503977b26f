/**
 * @file rago_cache.h
 * Multi-level RAG serving cache tier (RAGCache-style).
 *
 * Two deterministic LRU levels sit in front of the serving runtime's
 * retrieval and prefix stages:
 *
 *  1. **Retrieval-result cache** (`LruRetrievalCache`): query
 *     fingerprint -> retrieved (doc id, distance) lists. A hit skips
 *     the real ShardedIndex scan entirely and is charged a small
 *     fixed lookup cost, letting the runtime enqueue the prefix
 *     stage immediately — retrieval/prefill overlap that collapses
 *     TTFT for hot queries.
 *  2. **Document/prefix KV cache** (`LruDocCache`): the set of doc ids
 *     whose KV blocks are resident. Each request's retrieved ids are
 *     measured against it, producing a *measured* per-request prefix
 *     cache hit fraction that replaces the assumed
 *     `WorkloadConfig::prefix_cache_hit_rate` knob in prefix pricing.
 *
 * Heavy-tailed query popularity (millions of users) is exactly where
 * this tier pays; the workload library's Zipfian and repeat-neighbor
 * query streams exercise realistic hit rates.
 *
 * Determinism contract: both caches are pure functions of their call
 * sequence — no clocks, no randomization — and the runtime drives them
 * exclusively from its serial virtual-time event loop, so cache state,
 * counters, and every measured hit fraction are bit-identical for any
 * thread count.
 */
#ifndef RAGO_SERVING_CACHE_RAGO_CACHE_H
#define RAGO_SERVING_CACHE_RAGO_CACHE_H

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "retrieval/ann/matrix.h"
#include "retrieval/ann/topk.h"

namespace rago::cache {

/// Virtual seconds charged to a retrieval-cache hit in place of the
/// skipped batch wait + scan (the fast-path lookup cost).
inline constexpr double kLookupSeconds = 20e-6;

/// Configuration of the runtime's cache tier. Zero capacities disable
/// the corresponding level (the default: bit-identical serving to a
/// runtime without a cache tier).
struct CacheOptions {
  /// Retrieval-result cache capacity in entries (requests); 0 = off.
  int64_t retrieval_capacity = 0;
  /// Document/prefix KV cache capacity in documents; 0 = off.
  int64_t doc_capacity = 0;

  /// Throws ConfigError on negative capacities.
  void Validate() const;
};

/// Hit/miss/eviction accounting of one cache level.
struct CacheCounters {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t insertions = 0;

  /// hits / (hits + misses); 0 before any lookup.
  double HitRate() const {
    const int64_t lookups = hits + misses;
    return lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  }
};

/// Cached result of one request's retrieval: the top-k neighbor list
/// of each of its queries_per_retrieval query vectors.
struct CachedRetrieval {
  std::vector<std::vector<ann::Neighbor>> neighbors;
};

/**
 * Deterministic LRU cache of retrieval results keyed on a query
 * fingerprint. A capacity of 0 makes every operation a counted-free
 * no-op (Lookup always misses without counting, Insert discards).
 */
class LruRetrievalCache {
 public:
  explicit LruRetrievalCache(int64_t capacity);

  bool enabled() const { return capacity_ > 0; }
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  const CacheCounters& counters() const { return counters_; }

  /**
   * Returns the cached value and promotes the entry to most-recently
   * used, or nullptr on a miss. Counts a hit or a miss. The pointer is
   * invalidated by the next Insert.
   */
  const CachedRetrieval* Lookup(uint64_t fingerprint);

  /**
   * Inserts (or replaces, promoting to most-recently used) the value
   * for `fingerprint`, evicting the least-recently-used entry when at
   * capacity. Replacement counts an insertion but never an eviction.
   */
  void Insert(uint64_t fingerprint, CachedRetrieval value);

 private:
  using Entry = std::pair<uint64_t, CachedRetrieval>;
  int64_t capacity_ = 0;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<uint64_t, std::list<Entry>::iterator> entries_;
  CacheCounters counters_;
};

/**
 * Deterministic LRU set of resident document ids, modeling a
 * document-level prefix KV cache (RAGCache / CacheBlend-style). The
 * runtime measures each request's retrieved ids against it — the
 * *measured* counterpart of the assumed prefix_cache_hit_rate knob.
 */
class LruDocCache {
 public:
  explicit LruDocCache(int64_t capacity);

  bool enabled() const { return capacity_ > 0; }
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }
  const CacheCounters& counters() const { return counters_; }

  /**
   * Measures the fraction of `doc_ids` (deduplicated, order preserved)
   * already resident, then admits them all (touch on hit, insert +
   * LRU eviction on miss). Returns the measured hit fraction in
   * [0, 1]; 0 for an empty id list or a disabled cache (which also
   * counts nothing).
   */
  double MeasureAndAdmit(const std::vector<int64_t>& doc_ids);

 private:
  void Touch(int64_t doc_id);

  int64_t capacity_ = 0;
  std::list<int64_t> lru_;  ///< Front = most recently used.
  std::unordered_map<int64_t, std::list<int64_t>::iterator> entries_;
  CacheCounters counters_;
};

/**
 * Content-based FNV-1a fingerprint of `queries` consecutive rows of
 * `pool` starting at `start_row` (wrapping), matching the runtime's
 * query-drawing convention. Two requests drawing identical vectors
 * fingerprint identically regardless of request id or arrival order.
 */
uint64_t FingerprintQueries(const ann::Matrix& pool, size_t start_row,
                            int queries);

}  // namespace rago::cache

#endif  // RAGO_SERVING_CACHE_RAGO_CACHE_H
