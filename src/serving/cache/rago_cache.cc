#include "serving/cache/rago_cache.h"

#include "common/check.h"
#include "common/fnv.h"

namespace rago::cache {

void
CacheOptions::Validate() const {
  RAGO_REQUIRE(retrieval_capacity >= 0,
               "retrieval cache capacity must be >= 0 (0 disables)");
  RAGO_REQUIRE(doc_capacity >= 0,
               "doc cache capacity must be >= 0 (0 disables)");
}

LruRetrievalCache::LruRetrievalCache(int64_t capacity)
    : capacity_(capacity) {
  RAGO_REQUIRE(capacity >= 0, "cache capacity must be >= 0");
}

const CachedRetrieval*
LruRetrievalCache::Lookup(uint64_t fingerprint) {
  if (capacity_ == 0) {
    return nullptr;
  }
  const auto it = entries_.find(fingerprint);
  if (it == entries_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  ++counters_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // Promote to MRU.
  return &it->second->second;
}

void
LruRetrievalCache::Insert(uint64_t fingerprint, CachedRetrieval value) {
  if (capacity_ == 0) {
    return;
  }
  ++counters_.insertions;
  const auto it = entries_.find(fingerprint);
  if (it != entries_.end()) {
    it->second->second = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);  // Promote, no evict.
    return;
  }
  if (static_cast<int64_t>(lru_.size()) >= capacity_) {
    entries_.erase(lru_.back().first);
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.emplace_front(fingerprint, std::move(value));
  entries_.emplace(fingerprint, lru_.begin());
}

LruDocCache::LruDocCache(int64_t capacity) : capacity_(capacity) {
  RAGO_REQUIRE(capacity >= 0, "cache capacity must be >= 0");
}

void
LruDocCache::Touch(int64_t doc_id) {
  const auto it = entries_.find(doc_id);
  if (it != entries_.end()) {
    ++counters_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  ++counters_.misses;
  ++counters_.insertions;
  if (static_cast<int64_t>(lru_.size()) >= capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.push_front(doc_id);
  entries_.emplace(doc_id, lru_.begin());
}

double
LruDocCache::MeasureAndAdmit(const std::vector<int64_t>& doc_ids) {
  if (capacity_ == 0 || doc_ids.empty()) {
    return 0.0;
  }
  // Deduplicate preserving first-occurrence order so the measured
  // fraction and the LRU touch sequence are content-determined.
  std::vector<int64_t> unique;
  unique.reserve(doc_ids.size());
  for (int64_t id : doc_ids) {
    bool seen = false;
    for (int64_t u : unique) {
      if (u == id) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      unique.push_back(id);
    }
  }
  const int64_t hits_before = counters_.hits;
  for (int64_t id : unique) {
    Touch(id);
  }
  return static_cast<double>(counters_.hits - hits_before) /
         static_cast<double>(unique.size());
}

uint64_t
FingerprintQueries(const ann::Matrix& pool, size_t start_row,
                   int queries) {
  RAGO_REQUIRE(!pool.empty() && queries > 0,
               "fingerprint needs a non-empty pool and positive count");
  uint64_t hash = kFnvOffset;
  for (int q = 0; q < queries; ++q) {
    const size_t row = (start_row + static_cast<size_t>(q)) % pool.rows();
    const float* values = pool.Row(row);
    for (size_t d = 0; d < pool.dim(); ++d) {
      hash = FnvFold(hash, FloatBits(values[d]));
    }
  }
  return hash;
}

}  // namespace rago::cache
