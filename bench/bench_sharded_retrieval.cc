/**
 * @file bench_sharded_retrieval.cc
 * Scatter-gather sweep over the sharded retrieval service: shard
 * counts x partitioners x backends on one synthetic corpus. Reports
 * recall against the exact single-index oracle, estimated scan bytes
 * per query, batch wall time, critical-path (slowest-shard) time, and
 * merge time — the functional counterparts of the quantities the
 * analytical ScannModel prices. `--json out.json` additionally emits
 * the rows machine-readably for perf-trajectory tracking.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/ann/flat_index.h"
#include "retrieval/ann/recall.h"
#include "retrieval/serving/sharded_index.h"

int main(int argc, char** argv) {
  using namespace rago;
  using namespace rago::bench;
  using namespace rago::serving;

  const size_t n = 20'000;
  const size_t dim = 64;
  const size_t num_queries = 32;
  const size_t k = 10;
  Rng rng(31);
  const ann::Matrix data = ann::GenClustered(n, dim, 64, 0.3f, rng);
  const ann::Matrix queries =
      ann::GenQueriesNear(data, num_queries, 0.1f, rng);

  const ann::FlatIndex flat(data.Clone());
  const auto truth = flat.SearchBatch(queries, k);

  Banner("sharded scatter-gather retrieval sweep (20K x 64-d)");
  TextTable table;
  table.SetHeader({"backend", "partitioner", "shards", "recall@10",
                   "KB/query", "batch ms", "slowest shard ms",
                   "merge ms"});

  ThreadPool pool(4);
  JsonWriter json = StartBenchJson("sharded_retrieval");
  json.Key("rows").Int(static_cast<int64_t>(n));
  json.Key("dim").Int(static_cast<int64_t>(dim));
  json.Key("queries").Int(static_cast<int64_t>(num_queries));
  json.Key("results").BeginArray();

  const std::vector<ShardBackend> backends = {
      ShardBackend::kFlat, ShardBackend::kIvfPq,
      ShardBackend::kScannTree};
  const std::vector<PartitionerKind> partitioners = {
      PartitionerKind::kRoundRobin, PartitionerKind::kHash,
      PartitionerKind::kKMeansBalanced};

  for (ShardBackend backend : backends) {
    for (PartitionerKind partitioner : partitioners) {
      for (int shards : {1, 2, 4, 8}) {
        ShardedIndexOptions options;
        options.num_shards = shards;
        options.partitioner = partitioner;
        options.backend = backend;
        options.ivfpq.nlist = 32;
        options.nprobe = 8;
        options.rerank = 50;
        options.tree.levels = 1;
        options.tree.fanout = 16;
        options.beam = 8;
        const ShardedIndex sharded(data.Clone(), options);

        ShardSearchStats stats;
        const auto results =
            sharded.SearchBatch(queries, k, &pool, &stats);
        const double recall = ann::MeanRecallAtK(results, truth, k);
        const double batch_ms =
            (stats.MaxShardSeconds() + stats.merge_seconds) * 1e3;
        const double bytes_per_query =
            stats.TotalScanBytes() / static_cast<double>(num_queries);

        table.AddRow({ShardBackendName(backend),
                      PartitionerName(partitioner),
                      std::to_string(shards), TextTable::Num(recall, 3),
                      TextTable::Num(bytes_per_query / kKiB, 4),
                      TextTable::Num(batch_ms, 4),
                      TextTable::Num(stats.MaxShardSeconds() * 1e3, 4),
                      TextTable::Num(stats.merge_seconds * 1e3, 4)});

        json.BeginObject();
        json.Key("backend").String(ShardBackendName(backend));
        json.Key("partitioner").String(PartitionerName(partitioner));
        json.Key("shards").Int(shards);
        json.Key("recall_at_10").Number(recall);
        json.Key("bytes_per_query").Number(bytes_per_query);
        json.Key("batch_seconds").Number(batch_ms / 1e3);
        json.Key("max_shard_seconds").Number(stats.MaxShardSeconds());
        json.Key("merge_seconds").Number(stats.merge_seconds);
        json.EndObject();
      }
    }
  }
  table.Print();
  json.EndArray();
  FinishBenchJson(json, JsonOutputPath(argc, argv));

  std::printf(
      "(exact flat sharding keeps recall at 1.0 for every partitioner —\n"
      " the merge is lossless; approximate backends trade recall for\n"
      " scanned bytes per shard exactly as the P_scan knob prescribes)\n");
  return 0;
}
