/**
 * @file test_cache.cc
 * Tests for the multi-level serving cache tier (serving/cache) and its
 * runtime integration: LRU eviction order and counters, measured
 * document-cache hit fractions, content-based query fingerprints,
 * cache-off bit-exactness, top-k parity between cached and cacheless
 * serving, thread-count digest invariance with the cache-hit fast path
 * live, boundary hit rates on repeat-only traces, and the TTFT
 * collapse cached requests must show.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/pipeline_model.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/cache/rago_cache.h"
#include "serving/runtime/runtime.h"
#include "serving/runtime/workload.h"
#include "tests/testing/test_support.h"

namespace rago::cache {
namespace {

using runtime::ArrivalTrace;
using runtime::PoissonTrace;
using runtime::QueryStream;
using runtime::RepeatNeighborOptions;
using runtime::RepeatNeighborQueryStream;
using runtime::RequestOutcome;
using runtime::RuntimeOptions;
using runtime::RuntimeResult;
using runtime::ServingRuntime;
using runtime::UniformTrace;
using runtime::ZipfianQueryStream;

/// Cached value whose single neighbor id doubles as a marker.
CachedRetrieval Marker(int64_t id) {
  CachedRetrieval value;
  value.neighbors = {{ann::Neighbor{0.0f, id}}};
  return value;
}

int64_t MarkerId(const CachedRetrieval* value) {
  return value == nullptr ? -1 : value->neighbors[0][0].id;
}

// ---------------------------------------------------------------------------
// CacheOptions
// ---------------------------------------------------------------------------

TEST(CacheOptionsTest, ValidatesKnobs) {
  CacheOptions options;
  EXPECT_NO_THROW(options.Validate());
  options.retrieval_capacity = -1;
  EXPECT_THROW(options.Validate(), ConfigError);
  options = CacheOptions{};
  options.doc_capacity = -1;
  EXPECT_THROW(options.Validate(), ConfigError);
  // The runtime folds cache validation into its own options.
  RuntimeOptions runtime_options;
  runtime_options.cache.retrieval_capacity = -4;
  EXPECT_THROW(runtime_options.Validate(), ConfigError);
}

// ---------------------------------------------------------------------------
// LruRetrievalCache
// ---------------------------------------------------------------------------

TEST(LruRetrievalCacheTest, EvictsLeastRecentlyUsedUnderPressure) {
  LruRetrievalCache cache(2);
  ASSERT_TRUE(cache.enabled());
  cache.Insert(1, Marker(10));
  cache.Insert(2, Marker(20));
  // Promote 1 to MRU, so the next insert must evict 2, not 1.
  EXPECT_EQ(MarkerId(cache.Lookup(1)), 10);
  cache.Insert(3, Marker(30));
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_EQ(MarkerId(cache.Lookup(1)), 10);
  EXPECT_EQ(MarkerId(cache.Lookup(3)), 30);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.counters().insertions, 3);
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_EQ(cache.counters().hits, 3);
  EXPECT_EQ(cache.counters().misses, 1);
  EXPECT_DOUBLE_EQ(cache.counters().HitRate(), 0.75);
}

TEST(LruRetrievalCacheTest, ReinsertSameFingerprintReplacesWithoutEvict) {
  LruRetrievalCache cache(2);
  cache.Insert(1, Marker(10));
  cache.Insert(2, Marker(20));
  // Equal-fingerprint re-insert: replaces the value, promotes to MRU,
  // counts an insertion but never an eviction.
  cache.Insert(1, Marker(11));
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.counters().insertions, 3);
  EXPECT_EQ(cache.counters().evictions, 0);
  EXPECT_EQ(MarkerId(cache.Lookup(1)), 11);
  // The re-insert promoted 1, so capacity pressure now evicts 2.
  cache.Insert(3, Marker(30));
  EXPECT_EQ(cache.counters().evictions, 1);
  EXPECT_EQ(cache.Lookup(2), nullptr);
  EXPECT_EQ(MarkerId(cache.Lookup(1)), 11);
}

TEST(LruRetrievalCacheTest, ZeroCapacityIsUncountedNoOp) {
  LruRetrievalCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(1, Marker(10));
  EXPECT_EQ(cache.Lookup(1), nullptr);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.counters().hits, 0);
  EXPECT_EQ(cache.counters().misses, 0);
  EXPECT_EQ(cache.counters().evictions, 0);
  EXPECT_EQ(cache.counters().insertions, 0);
  EXPECT_DOUBLE_EQ(cache.counters().HitRate(), 0.0);
}

// ---------------------------------------------------------------------------
// LruDocCache
// ---------------------------------------------------------------------------

TEST(LruDocCacheTest, MeasuresHitFractionOverDedupedIds) {
  LruDocCache cache(8);
  // First sight of {1, 2, 3} (1 repeated in-request): all cold.
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({1, 2, 1, 3}), 0.0);
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.counters().misses, 3);
  // Two of the three unique ids are now resident.
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({1, 2, 4}), 2.0 / 3.0);
  // Empty id lists measure zero without counting anything.
  const int64_t hits = cache.counters().hits;
  const int64_t misses = cache.counters().misses;
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({}), 0.0);
  EXPECT_EQ(cache.counters().hits, hits);
  EXPECT_EQ(cache.counters().misses, misses);
}

TEST(LruDocCacheTest, EvictsLruDocsUnderCapacityPressure) {
  LruDocCache cache(2);
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({1, 2}), 0.0);
  // 1 is the LRU doc; admitting 3 evicts it.
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({3}), 0.0);
  EXPECT_EQ(cache.counters().evictions, 1);
  // Re-admitting 1 misses (evicted) and pushes out 2.
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({1}), 0.0);
  // 3 survived throughout.
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({3}), 1.0);
  EXPECT_EQ(cache.size(), 2);
}

TEST(LruDocCacheTest, ZeroCapacityIsUncountedNoOp) {
  LruDocCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_DOUBLE_EQ(cache.MeasureAndAdmit({1, 2, 3}), 0.0);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.counters().misses, 0);
  EXPECT_EQ(cache.counters().insertions, 0);
}

// ---------------------------------------------------------------------------
// Query fingerprints
// ---------------------------------------------------------------------------

TEST(FingerprintTest, ContentDeterminedAndWrapAware) {
  ann::Matrix pool(4, 3);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t d = 0; d < 3; ++d) {
      pool.Row(r)[d] = static_cast<float>(r * 10 + d);
    }
  }
  // Deterministic, and distinct content fingerprints distinctly.
  EXPECT_EQ(FingerprintQueries(pool, 1, 2), FingerprintQueries(pool, 1, 2));
  EXPECT_NE(FingerprintQueries(pool, 0, 2), FingerprintQueries(pool, 1, 2));
  // Rows with equal *content* fingerprint equally regardless of index.
  for (size_t d = 0; d < 3; ++d) {
    pool.Row(2)[d] = pool.Row(0)[d];
  }
  EXPECT_EQ(FingerprintQueries(pool, 0, 1), FingerprintQueries(pool, 2, 1));
  // Wrapping matches the runtime's drawing convention: starting at the
  // last row with two queries covers rows {3, 0}, identical to a pool
  // whose first two rows hold that content.
  ann::Matrix wrapped(2, 3);
  wrapped.CopyRowFrom(pool, 3, 0);
  wrapped.CopyRowFrom(pool, 0, 1);
  EXPECT_EQ(FingerprintQueries(pool, 3, 2),
            FingerprintQueries(wrapped, 0, 2));
  EXPECT_THROW(FingerprintQueries(pool, 0, 0), ConfigError);
}

// ---------------------------------------------------------------------------
// Runtime integration
// ---------------------------------------------------------------------------

core::Schedule SimpleSchedule(const core::PipelineModel& model,
                              int group_chips, int decode_chips,
                              int64_t batch, int64_t decode_batch) {
  core::Schedule schedule;
  schedule.chain_group.assign(model.chain().size(), 0);
  schedule.group_chips = {group_chips};
  schedule.chain_batch.assign(model.chain().size(), batch);
  schedule.decode_chips = decode_chips;
  schedule.decode_batch = decode_batch;
  schedule.retrieval_servers = model.MinRetrievalServers();
  schedule.retrieval_batch = batch;
  return schedule;
}

/// Live tier with a pool large enough for meaningful Zipf streams.
struct LiveTier {
  serving::ShardedIndex index;
  ann::Matrix queries;
};

LiveTier MakeLiveTier(size_t pool_rows = 256) {
  Rng rng(93);
  ann::Matrix data = ann::GenClustered(2000, 16, 16, 0.3f, rng);
  ann::Matrix queries = ann::GenQueriesNear(data, pool_rows, 0.1f, rng);
  serving::ShardedIndexOptions options;
  options.num_shards = 3;
  options.backend = serving::ShardBackend::kFlat;
  options.num_threads = 1;  // The runtime's pool drives parallelism.
  return LiveTier{serving::ShardedIndex(std::move(data), options),
                  std::move(queries)};
}

double PercentileOf(std::vector<double> values, double p) {
  RAGO_CHECK(!values.empty(), "percentile of empty sample");
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1));
  return values[rank];
}

TEST(CacheRuntimeTest, ZeroCapacityCacheServesBitIdenticallyToDefault) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const ArrivalTrace trace = PoissonTrace(120, 100.0, 41);

  RuntimeOptions base_options;
  base_options.num_threads = 2;
  const ServingRuntime base(model, schedule, tier.index, base_options);

  RuntimeOptions zeroed = base_options;
  zeroed.cache.retrieval_capacity = 0;
  zeroed.cache.doc_capacity = 0;
  const ServingRuntime explicit_off(model, schedule, tier.index, zeroed);

  const RuntimeResult a = base.Serve(trace, tier.queries);
  const RuntimeResult b = explicit_off.Serve(trace, tier.queries);
  EXPECT_EQ(a.outcome_digest, b.outcome_digest);
  EXPECT_EQ(a.retrieval_cache.hits + a.retrieval_cache.misses, 0);
  EXPECT_EQ(a.doc_cache.insertions, 0);
  EXPECT_DOUBLE_EQ(a.measured_prefix_hit_rate, 0.0);

  // The explicit-stream Serve overload with the seed-derived rows is
  // the same computation as the legacy two-argument path.
  QueryStream legacy;
  legacy.rows.reserve(trace.arrivals.size());
  for (size_t i = 0; i < trace.arrivals.size(); ++i) {
    legacy.rows.push_back(static_cast<int64_t>(
        Rng::DeriveSeed(base_options.seed, static_cast<uint64_t>(i)) %
        tier.queries.rows()));
  }
  const RuntimeResult c = base.Serve(trace, tier.queries, legacy);
  EXPECT_EQ(a.outcome_digest, c.outcome_digest);
}

TEST(CacheRuntimeTest, TopKParityBetweenCachedAndCachelessServing) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const int requests = 300;
  const ArrivalTrace trace = PoissonTrace(requests, 120.0, 43);
  const QueryStream stream = ZipfianQueryStream(
      requests, static_cast<int64_t>(tier.queries.rows()), 1.0, 7);

  RuntimeOptions off_options;
  off_options.num_threads = 2;
  RuntimeOptions on_options = off_options;
  on_options.cache.retrieval_capacity = 64;
  on_options.cache.doc_capacity = 2048;
  const ServingRuntime off(model, schedule, tier.index, off_options);
  const ServingRuntime on(model, schedule, tier.index, on_options);

  const RuntimeResult off_result = off.Serve(trace, tier.queries, stream);
  const RuntimeResult on_result = on.Serve(trace, tier.queries, stream);
  // Caching must change *when* results arrive, never *what* they are:
  // a hit serves exactly the neighbors the skipped scan would have.
  EXPECT_GT(on_result.retrieval_cache.hits, 0);
  ASSERT_EQ(off_result.requests.size(), on_result.requests.size());
  for (size_t r = 0; r < off_result.requests.size(); ++r) {
    EXPECT_EQ(off_result.requests[r].first_neighbor,
              on_result.requests[r].first_neighbor)
        << "request " << r;
  }
  EXPECT_EQ(off_result.completed, on_result.completed);
}

TEST(CacheRuntimeTest, DigestInvariantAcrossThreadCountsWithCacheLive) {
  // Satellite of the determinism contract: the cache-hit fast path
  // injects kind-4 events, and their (time, kind, payload) tie-break
  // must keep the outcome digest bit-identical for every pool size.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const int requests = 200;
  const ArrivalTrace trace = PoissonTrace(requests, 300.0, 47);
  const QueryStream stream = ZipfianQueryStream(
      requests, static_cast<int64_t>(tier.queries.rows()), 1.2, 11);

  std::vector<RuntimeResult> results;
  for (int threads : {1, 2, 8}) {
    RuntimeOptions options;
    options.num_threads = threads;
    options.cache.retrieval_capacity = 64;
    options.cache.doc_capacity = 1024;
    const ServingRuntime runtime(model, schedule, tier.index, options);
    results.push_back(runtime.Serve(trace, tier.queries, stream));
  }
  const RuntimeResult& base = results.front();
  EXPECT_GT(base.retrieval_cache.hits, 0);
  for (size_t i = 1; i < results.size(); ++i) {
    const RuntimeResult& other = results[i];
    EXPECT_EQ(base.outcome_digest, other.outcome_digest);
    EXPECT_EQ(base.retrieval_cache.hits, other.retrieval_cache.hits);
    EXPECT_EQ(base.retrieval_cache.misses, other.retrieval_cache.misses);
    EXPECT_EQ(base.retrieval_cache.evictions,
              other.retrieval_cache.evictions);
    EXPECT_EQ(base.doc_cache.hits, other.doc_cache.hits);
    EXPECT_EQ(base.measured_prefix_hit_rate,
              other.measured_prefix_hit_rate);
    ASSERT_EQ(base.requests.size(), other.requests.size());
    for (size_t r = 0; r < base.requests.size(); ++r) {
      EXPECT_EQ(base.requests[r].retrieval_cache_hit,
                other.requests[r].retrieval_cache_hit);
      EXPECT_EQ(base.requests[r].prefix_hit_fraction,
                other.requests[r].prefix_hit_fraction);
      EXPECT_EQ(base.requests[r].ttft, other.requests[r].ttft);
    }
  }
}

TEST(CacheRuntimeTest, RepeatOnlyTraceReachesBoundaryHitRates) {
  // repeat_probability = 1.0 collapses the stream onto one query: the
  // measured hit rates legitimately reach the closed-interval boundary
  // (the schema bug this PR fixes rejected exactly this value), and
  // prefix pricing at hit_rate = 1.0 must stay finite.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const int requests = 200;
  RepeatNeighborOptions repeat;
  repeat.repeat_probability = 1.0;
  const QueryStream stream = RepeatNeighborQueryStream(
      requests, static_cast<int64_t>(tier.queries.rows()), repeat, 13);
  for (int64_t row : stream.rows) {
    EXPECT_EQ(row, stream.rows.front());
  }

  RuntimeOptions options;
  options.num_threads = 2;
  options.cache.retrieval_capacity = 8;
  options.cache.doc_capacity = 1024;
  const ServingRuntime runtime(model, schedule, tier.index, options);
  const RuntimeResult result =
      runtime.Serve(UniformTrace(requests, 50.0), tier.queries, stream);

  EXPECT_EQ(result.completed, requests);
  EXPECT_GT(result.retrieval_cache.HitRate(), 0.9);
  EXPECT_GT(result.measured_prefix_hit_rate, 0.9);
  // Requests that measured a full hit exercised EvalPrefixCached at
  // exactly 1.0 — finite TTFT proves no divide-by-zero pricing.
  int full_hits = 0;
  for (const RequestOutcome& outcome : result.requests) {
    if (outcome.prefix_hit_fraction == 1.0) {
      ++full_hits;
      EXPECT_GE(outcome.ttft, 0.0);
    }
  }
  EXPECT_GT(full_hits, requests / 2);
}

TEST(CacheRuntimeTest, ZipfHitRateAtModerateCapacityAboveHalf) {
  // Acceptance pin: Zipf(1.0) over a 256-row pool against a 128-entry
  // cache must measure a hit rate of at least 0.5.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier(256);
  const int requests = 600;
  const ArrivalTrace trace = PoissonTrace(requests, 150.0, 53);
  const QueryStream stream = ZipfianQueryStream(requests, 256, 1.0, 17);

  RuntimeOptions options;
  options.num_threads = 2;
  options.cache.retrieval_capacity = 128;
  options.cache.doc_capacity = 4096;
  const ServingRuntime runtime(model, schedule, tier.index, options);
  const RuntimeResult result =
      runtime.Serve(trace, tier.queries, stream);
  EXPECT_GE(result.retrieval_cache.HitRate(), 0.5);
  EXPECT_GT(result.measured_prefix_hit_rate, 0.0);
}

TEST(CacheRuntimeTest, CachedRequestsCollapseTtftBelowCachelessBaseline) {
  // The retrieval/prefill overlap: a hit skips batch formation plus
  // the scan's virtual service time, so the cached population's median
  // TTFT must sit strictly below the cache-off baseline's.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const int requests = 400;
  const ArrivalTrace trace = PoissonTrace(requests, 120.0, 59);
  const QueryStream stream = ZipfianQueryStream(
      requests, static_cast<int64_t>(tier.queries.rows()), 1.0, 19);

  RuntimeOptions off_options;
  off_options.num_threads = 2;
  RuntimeOptions on_options = off_options;
  on_options.cache.retrieval_capacity = 128;
  const ServingRuntime off(model, schedule, tier.index, off_options);
  const ServingRuntime on(model, schedule, tier.index, on_options);
  const RuntimeResult off_result = off.Serve(trace, tier.queries, stream);
  const RuntimeResult on_result = on.Serve(trace, tier.queries, stream);

  std::vector<double> baseline;
  std::vector<double> cached;
  for (size_t r = 0; r < off_result.requests.size(); ++r) {
    if (off_result.requests[r].admitted) {
      baseline.push_back(off_result.requests[r].ttft);
    }
    if (on_result.requests[r].retrieval_cache_hit) {
      cached.push_back(on_result.requests[r].ttft);
    }
  }
  ASSERT_GT(cached.size(), 50u);
  EXPECT_LT(PercentileOf(cached, 0.5), PercentileOf(baseline, 0.5));
}

TEST(CacheRuntimeTest, MeasuredDocCachePricingLowersPrefixTtft) {
  // Document-KV level alone (retrieval cache off): a repeat-heavy
  // stream measures a near-1 hit fraction, so prefix batches are
  // priced far below the schema's assumed 0.0 rate and mean TTFT must
  // drop against the cacheless baseline.
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const int requests = 200;
  RepeatNeighborOptions repeat;
  repeat.repeat_probability = 1.0;
  const QueryStream stream = RepeatNeighborQueryStream(
      requests, static_cast<int64_t>(tier.queries.rows()), repeat, 23);
  const ArrivalTrace trace = UniformTrace(requests, 60.0);

  RuntimeOptions off_options;
  off_options.num_threads = 1;
  RuntimeOptions doc_options = off_options;
  doc_options.cache.doc_capacity = 4096;
  const ServingRuntime off(model, schedule, tier.index, off_options);
  const ServingRuntime doc(model, schedule, tier.index, doc_options);
  const RuntimeResult off_result = off.Serve(trace, tier.queries, stream);
  const RuntimeResult doc_result = doc.Serve(trace, tier.queries, stream);

  EXPECT_EQ(doc_result.retrieval_cache.hits, 0);  // Level isolated.
  EXPECT_GT(doc_result.measured_prefix_hit_rate, 0.9);
  EXPECT_LT(doc_result.ttft.Mean(), off_result.ttft.Mean());
  // Results are identical either way; only pricing moved.
  for (size_t r = 0; r < off_result.requests.size(); ++r) {
    EXPECT_EQ(off_result.requests[r].first_neighbor,
              doc_result.requests[r].first_neighbor);
  }
}

TEST(CacheRuntimeTest, RejectsMalformedQueryStreams) {
  const core::PipelineModel model = rago::testing::TinyHyperscaleModel();
  const core::Schedule schedule = SimpleSchedule(model, 8, 8, 4, 64);
  const LiveTier tier = MakeLiveTier();
  const ServingRuntime runtime(model, schedule, tier.index,
                               RuntimeOptions{});
  const ArrivalTrace trace = UniformTrace(10, 100.0);

  QueryStream short_stream;
  short_stream.rows.assign(9, 0);
  EXPECT_THROW(runtime.Serve(trace, tier.queries, short_stream),
               ConfigError);
  QueryStream out_of_range;
  out_of_range.rows.assign(10, 0);
  out_of_range.rows[5] = static_cast<int64_t>(tier.queries.rows());
  EXPECT_THROW(runtime.Serve(trace, tier.queries, out_of_range),
               ConfigError);
  QueryStream negative;
  negative.rows.assign(10, 0);
  negative.rows[3] = -1;
  EXPECT_THROW(runtime.Serve(trace, tier.queries, negative), ConfigError);
}

}  // namespace
}  // namespace rago::cache
