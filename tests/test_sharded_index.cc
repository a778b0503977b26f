/**
 * @file test_sharded_index.cc
 * Tests for the sharded scatter-gather retrieval service: partition
 * coverage, shard/merge exactness against the single-index oracle
 * (including tie-breaks), thread-count invariance, instrumentation,
 * capacity validation, and the calibration adapter.
 */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/serving/calibration.h"
#include "retrieval/serving/partitioner.h"
#include "retrieval/serving/sharded_index.h"
#include "tests/testing/test_support.h"

namespace rago::serving {
namespace {

using rago::testing::AnnTestBed;
using rago::testing::CopyMatrix;
using rago::testing::MakeAnnTestBed;

const std::vector<PartitionerKind> kAllPartitioners = {
    PartitionerKind::kRoundRobin,
    PartitionerKind::kHash,
    PartitionerKind::kKMeansBalanced,
};

TEST(Partitioner, EveryRowInExactlyOneShard) {
  const AnnTestBed bed = MakeAnnTestBed(500, 8, 1);
  for (PartitionerKind kind : kAllPartitioners) {
    const Partition partition = PartitionRows(bed.data, 7, kind, 99);
    ASSERT_EQ(partition.num_shards(), 7) << PartitionerName(kind);
    std::set<int64_t> seen;
    for (const auto& rows : partition.shard_rows) {
      int64_t prev = -1;
      for (int64_t id : rows) {
        EXPECT_GT(id, prev) << "ids must ascend within a shard";
        prev = id;
        EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
      }
    }
    EXPECT_EQ(seen.size(), bed.data.rows()) << PartitionerName(kind);
  }
}

TEST(Partitioner, CapacityBoundedPoliciesBalance) {
  const AnnTestBed bed = MakeAnnTestBed(1000, 8, 1);
  const size_t capacity = (1000 + 7) / 8;  // ceil
  for (PartitionerKind kind :
       {PartitionerKind::kRoundRobin, PartitionerKind::kKMeansBalanced}) {
    const Partition partition = PartitionRows(bed.data, 8, kind, 5);
    for (const auto& rows : partition.shard_rows) {
      EXPECT_LE(rows.size(), capacity) << PartitionerName(kind);
    }
  }
}

TEST(Partitioner, DeterministicInSeed) {
  const AnnTestBed bed = MakeAnnTestBed(400, 8, 1);
  for (PartitionerKind kind : kAllPartitioners) {
    const Partition a = PartitionRows(bed.data, 5, kind, 123);
    const Partition b = PartitionRows(bed.data, 5, kind, 123);
    EXPECT_EQ(a.shard_rows, b.shard_rows) << PartitionerName(kind);
  }
}

TEST(Partitioner, RejectsDegenerateConfigs) {
  const AnnTestBed bed = MakeAnnTestBed(16, 8, 1);
  EXPECT_THROW(PartitionRows(bed.data, 0, PartitionerKind::kRoundRobin, 1),
               ConfigError);
  EXPECT_THROW(PartitionRows(bed.data, 17, PartitionerKind::kRoundRobin, 1),
               ConfigError);
}

/// Merged sharded results must be bit-identical to the single index.
void ExpectExactMatch(const std::vector<std::vector<ann::Neighbor>>& actual,
                      const std::vector<std::vector<ann::Neighbor>>& expected,
                      const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t q = 0; q < actual.size(); ++q) {
    ASSERT_EQ(actual[q].size(), expected[q].size())
        << label << " query " << q;
    for (size_t i = 0; i < actual[q].size(); ++i) {
      EXPECT_EQ(actual[q][i].id, expected[q][i].id)
          << label << " query " << q << " rank " << i;
      EXPECT_EQ(actual[q][i].dist, expected[q][i].dist)
          << label << " query " << q << " rank " << i;
    }
  }
}

TEST(ShardedIndex, FlatShardingIsExactForAllPartitionersAndThreadCounts) {
  // The acceptance property: sharded flat search returns top-k
  // identical (incl. tie-breaks) to the single-index search, for k
  // spanning shard boundaries, for threads {1, 4}.
  const AnnTestBed bed = MakeAnnTestBed(1500, 12, 16);
  const ann::FlatIndex single(CopyMatrix(bed.data));
  for (PartitionerKind kind : kAllPartitioners) {
    ShardedIndexOptions options;
    options.num_shards = 5;
    options.partitioner = kind;
    options.backend = ShardBackend::kFlat;
    const ShardedIndex sharded(CopyMatrix(bed.data), options);
    for (size_t k : {size_t{1}, size_t{7}, size_t{23}}) {
      const auto expected = single.SearchBatch(bed.queries, k);
      for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        const auto actual = sharded.SearchBatch(bed.queries, k, &pool);
        ExpectExactMatch(actual, expected, PartitionerName(kind));
      }
      // And inline, without a pool.
      ExpectExactMatch(sharded.SearchBatch(bed.queries, k), expected,
                       PartitionerName(kind));
    }
  }
}

TEST(ShardedIndex, ExactWithDuplicateVectorTies) {
  // A database of identical vectors: every distance ties, so results
  // are decided purely by the id tie-break. Sharding must preserve it.
  ann::Matrix data(64, 4);
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t d = 0; d < 4; ++d) {
      data.Row(i)[d] = 1.0f;
    }
  }
  const ann::FlatIndex single(CopyMatrix(data));
  ShardedIndexOptions options;
  options.num_shards = 4;
  options.partitioner = PartitionerKind::kHash;
  const ShardedIndex sharded(CopyMatrix(data), options);

  const float query[4] = {1.0f, 1.0f, 1.0f, 1.0f};
  const auto expected = single.Search(query, 10);
  const auto actual = sharded.Search(query, 10);
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << "rank " << i;
    // Ties resolve to the smallest ids: 0..9.
    EXPECT_EQ(actual[i].id, static_cast<int64_t>(i));
  }
}

TEST(ShardedIndex, KLargerThanSomeShardsStillExact) {
  // k larger than every shard's row count: the merge must pull from
  // all shards without padding or truncation artifacts.
  const AnnTestBed bed = MakeAnnTestBed(40, 6, 4);
  const ann::FlatIndex single(CopyMatrix(bed.data));
  ShardedIndexOptions options;
  options.num_shards = 8;  // 5 rows per shard.
  const ShardedIndex sharded(CopyMatrix(bed.data), options);
  const auto expected = single.SearchBatch(bed.queries, 12);
  const auto actual = sharded.SearchBatch(bed.queries, 12);
  ExpectExactMatch(actual, expected, "k>shard");
}

TEST(ShardedIndex, QueryBlockSplitStaysExact) {
  // Sub-shard (shard x query-block) tasks must not change results:
  // block == 1 (one task per query), a block that leaves a ragged
  // tail, and a block far larger than the batch all match the oracle.
  const AnnTestBed bed = MakeAnnTestBed(900, 10, 17);
  const ann::FlatIndex single(CopyMatrix(bed.data));
  const auto expected = single.SearchBatch(bed.queries, 11);
  for (int query_block : {1, 3, 5, 1000}) {
    ShardedIndexOptions options;
    options.num_shards = 4;
    options.query_block = query_block;
    const ShardedIndex sharded(CopyMatrix(bed.data), options);
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      ExpectExactMatch(sharded.SearchBatch(bed.queries, 11, &pool),
                       expected, "query-block");
    }
  }
}

TEST(ShardedIndex, OwnedPoolMatchesExplicitPoolAndInline) {
  // options.num_threads makes SearchBatch parallel without a caller
  // pool; results must equal both the inline run and an explicit pool.
  const AnnTestBed bed = MakeAnnTestBed(800, 8, 12);
  ShardedIndexOptions options;
  options.num_shards = 3;
  options.query_block = 4;

  options.num_threads = 1;
  const ShardedIndex inline_index(CopyMatrix(bed.data), options);
  const auto expected = inline_index.SearchBatch(bed.queries, 7);

  options.num_threads = 4;
  const ShardedIndex pooled(CopyMatrix(bed.data), options);
  ExpectExactMatch(pooled.SearchBatch(bed.queries, 7), expected,
                   "owned pool");
  ThreadPool explicit_pool(2);
  ExpectExactMatch(pooled.SearchBatch(bed.queries, 7, &explicit_pool),
                   expected, "explicit pool overrides owned");
}

TEST(ShardedIndex, RejectsDegenerateThreadingOptions) {
  const AnnTestBed bed = MakeAnnTestBed(50, 4, 1);
  ShardedIndexOptions options;
  options.query_block = 0;
  EXPECT_THROW(ShardedIndex(CopyMatrix(bed.data), options), ConfigError);
  options.query_block = 32;
  options.num_threads = -1;
  EXPECT_THROW(ShardedIndex(CopyMatrix(bed.data), options), ConfigError);
}

TEST(ShardedIndex, DeterministicAcrossThreadCountsForApproxBackends) {
  // Fixed seed => identical merged results regardless of thread count,
  // for a backend whose build is itself randomized.
  const AnnTestBed bed = MakeAnnTestBed(2000, 16, 8);
  ShardedIndexOptions options;
  options.num_shards = 4;
  options.partitioner = PartitionerKind::kKMeansBalanced;
  options.backend = ShardBackend::kIvfPq;
  options.ivfpq.nlist = 16;
  options.nprobe = 4;
  options.rerank = 20;
  options.seed = 77;

  const ShardedIndex a(CopyMatrix(bed.data), options);
  const ShardedIndex b(CopyMatrix(bed.data), options);
  ThreadPool pool(4);
  const auto serial = a.SearchBatch(bed.queries, 10);
  const auto threaded = b.SearchBatch(bed.queries, 10, &pool);
  ExpectExactMatch(threaded, serial, "ivfpq");
}

TEST(ShardedIndex, HnswBlocksSearchConcurrentlyAndStayDeterministic) {
  // HNSW query-blocks of one shard run in parallel and share no
  // state; results and the integer eval-based scan-byte accounting
  // must stay thread-count invariant.
  const AnnTestBed bed = MakeAnnTestBed(1500, 12, 24);
  ShardedIndexOptions options;
  options.num_shards = 2;  // Few shards, many blocks per shard.
  options.query_block = 4;
  options.backend = ShardBackend::kHnsw;
  options.ef_search = 48;
  options.seed = 33;

  const ShardedIndex a(CopyMatrix(bed.data), options);
  const ShardedIndex b(CopyMatrix(bed.data), options);
  ShardSearchStats serial_stats;
  ShardSearchStats threaded_stats;
  const auto serial =
      a.SearchBatch(bed.queries, 8, nullptr, &serial_stats);
  ThreadPool pool(4);
  const auto threaded =
      b.SearchBatch(bed.queries, 8, &pool, &threaded_stats);
  ExpectExactMatch(threaded, serial, "hnsw blocks");
  ASSERT_EQ(serial_stats.shards.size(), threaded_stats.shards.size());
  for (size_t s = 0; s < serial_stats.shards.size(); ++s) {
    EXPECT_EQ(serial_stats.shards[s].scan_bytes,
              threaded_stats.shards[s].scan_bytes)
        << "eval accounting drifted on shard " << s;
  }
}

TEST(ShardedIndex, ApproxBackendsReachUsableRecall) {
  const AnnTestBed bed = MakeAnnTestBed(2000, 16, 16);
  auto recall_of = [&](ShardBackend backend) {
    ShardedIndexOptions options;
    options.num_shards = 4;
    options.partitioner = PartitionerKind::kKMeansBalanced;
    options.backend = backend;
    options.ivf.nlist = 16;
    options.ivfpq.nlist = 16;
    options.nprobe = 8;
    options.rerank = 30;
    options.ef_search = 64;
    options.tree.levels = 1;
    options.tree.fanout = 8;
    options.beam = 6;
    const ShardedIndex sharded(CopyMatrix(bed.data), options);
    const auto results = sharded.SearchBatch(bed.queries, 10);
    double hits = 0.0;
    for (size_t q = 0; q < results.size(); ++q) {
      std::set<int64_t> truth_ids;
      for (const auto& n : bed.truth[q]) {
        truth_ids.insert(n.id);
      }
      for (const auto& n : results[q]) {
        hits += truth_ids.count(n.id) > 0 ? 1.0 : 0.0;
      }
    }
    return hits / (10.0 * static_cast<double>(results.size()));
  };
  EXPECT_GT(recall_of(ShardBackend::kIvf), 0.9);
  EXPECT_GT(recall_of(ShardBackend::kIvfPq), 0.7);
  EXPECT_GT(recall_of(ShardBackend::kHnsw), 0.9);
  EXPECT_GT(recall_of(ShardBackend::kScannTree), 0.7);
}

TEST(ShardedIndex, StatsCoverShardsAndMerge) {
  const AnnTestBed bed = MakeAnnTestBed(1000, 8, 8);
  ShardedIndexOptions options;
  options.num_shards = 4;
  const ShardedIndex sharded(CopyMatrix(bed.data), options);
  ShardSearchStats stats;
  ThreadPool pool(2);
  sharded.SearchBatch(bed.queries, 5, &pool, &stats);

  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(stats.num_queries, 8);
  int64_t rows = 0;
  for (const ShardStats& shard : stats.shards) {
    EXPECT_GT(shard.scan_bytes, 0.0);
    EXPECT_GE(shard.wall_seconds, 0.0);
    rows += shard.rows;
  }
  EXPECT_EQ(rows, 1000);
  EXPECT_GE(stats.merge_seconds, 0.0);
  // Flat shards scan everything: total bytes = n * dim * 4 per query.
  EXPECT_DOUBLE_EQ(stats.TotalScanBytes(),
                   1000.0 * 8 * sizeof(float) * 8 /*queries*/);
  EXPECT_GT(stats.BytesPerQueryPerShard(), 0.0);
  EXPECT_GE(stats.MaxShardSeconds(), 0.0);
}

TEST(ShardedIndex, UnderProvisionedShardCountFailsLoudly) {
  // Satellite: the modeled hyperscale database needs
  // MinServersForCapacity hosts; fewer shards must throw, not
  // silently misprice.
  const AnnTestBed bed = MakeAnnTestBed(200, 8, 1);
  retrieval::DatabaseSpec db;  // Paper default: 64B vectors, 96 B each.
  const CpuServerSpec server;
  const int required =
      retrieval::ScannModel::MinServersForCapacity(db, server);
  ASSERT_GT(required, 1);

  ShardedIndexOptions options;
  options.num_shards = 4;
  options.modeled_db = db;
  options.modeled_server = server;
  try {
    const ShardedIndex sharded(CopyMatrix(bed.data), options);
    FAIL() << "expected ConfigError for under-provisioned shard count";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find(std::to_string(required)),
              std::string::npos)
        << "error should name the required server count: " << error.what();
  }

  // A right-sized modeled database passes.
  retrieval::DatabaseSpec small = db;
  small.num_vectors = 1'000'000;
  options.modeled_db = small;
  const ShardedIndex ok(CopyMatrix(bed.data), options);
  EXPECT_EQ(ok.num_shards(), 4);
}

TEST(Calibration, ProfileReflectsMeasuredStats) {
  const AnnTestBed bed = MakeAnnTestBed(1200, 8, 16);
  ShardedIndexOptions options;
  options.num_shards = 3;
  const ShardedIndex sharded(CopyMatrix(bed.data), options);
  ShardSearchStats stats;
  sharded.SearchBatch(bed.queries, 10, nullptr, &stats);

  const retrieval::MeasuredScanProfile profile = ProfileFromStats(stats);
  EXPECT_GT(profile.scan_bytes_per_core, 0.0);
  EXPECT_GE(profile.merge_seconds_per_query, 0.0);
  RAGO_EXPECT_REL_NEAR(profile.bytes_per_query_per_server,
                       stats.BytesPerQueryPerShard(), 1e-9);

  const retrieval::MeasuredRetrievalModel model(profile, CpuServerSpec{},
                                                sharded.num_shards());
  EXPECT_GT(model.Search(1).latency, 0.0);
  // Full-fleet bytes = per-shard bytes * shards.
  RAGO_EXPECT_REL_NEAR(model.BytesScannedPerQuery(),
                       profile.bytes_per_query_per_server * 3, 1e-9);
}

TEST(Calibration, EndToEndHelperProducesAModel)  {
  const AnnTestBed bed = MakeAnnTestBed(800, 8, 8);
  ShardedIndexOptions options;
  options.num_shards = 2;
  const ShardedIndex sharded(CopyMatrix(bed.data), options);
  ThreadPool pool(2);
  const retrieval::MeasuredRetrievalModel model = CalibrateRetrievalModel(
      sharded, bed.queries, 10, CpuServerSpec{}, &pool);
  EXPECT_EQ(model.num_servers(), 2);
  EXPECT_GT(model.Search(4).latency, 0.0);
  EXPECT_GT(model.Search(4).throughput, 0.0);
}

}  // namespace
}  // namespace rago::serving
