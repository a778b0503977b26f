/**
 * @file retrieval_model.h
 * Abstract retrieval cost model interface.
 *
 * Retrieval in the paper runs on host CPU servers, not XPUs, and is
 * characterized by the bytes of database vectors scanned per query
 * (§3.3). Three concrete models implement this interface: the ScaNN
 * multi-level-tree model for hyperscale ANN search, a brute-force kNN
 * model for the small per-request databases of long-context RAG, and
 * a model replaying measured scan rates. All three price a batch
 * through WaveScanCost; they differ only in the bytes and rate fed in.
 */
#ifndef RAGO_RETRIEVAL_PERF_RETRIEVAL_MODEL_H
#define RAGO_RETRIEVAL_PERF_RETRIEVAL_MODEL_H

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/math_util.h"
#include "hardware/cpu_server.h"

namespace rago::retrieval {

/// Latency/throughput of a retrieval batch.
struct RetrievalCost {
  double latency = 0.0;     ///< Seconds until the whole batch completes.
  double throughput = 0.0;  ///< Sustained queries per second at this batch.
};

/**
 * The retrieval pricing rule, a roofline over one host: ScaNN runs
 * one thread per query, so a batch of `batch_queries` runs in
 * ceil(batch / cores) waves, and each busy core scans at
 * min(`scan_bytes_per_core`, its fair share of derated memory
 * bandwidth). Latency is the waves' scan time plus
 * `merge_seconds_per_query` per query at the aggregator; throughput
 * is queries per second at that latency.
 */
inline RetrievalCost WaveScanCost(int64_t batch_queries,
                                  double bytes_per_query_per_server,
                                  double scan_bytes_per_core,
                                  const CpuServerSpec& server,
                                  double merge_seconds_per_query = 0.0) {
  RAGO_REQUIRE(batch_queries > 0, "batch must be positive");
  const int64_t concurrent = std::min<int64_t>(batch_queries, server.cores);
  const double per_core_rate =
      std::min(scan_bytes_per_core,
               server.EffectiveMemBw() / static_cast<double>(concurrent));
  const int64_t waves = CeilDiv(batch_queries, server.cores);
  RetrievalCost cost;
  cost.latency = static_cast<double>(waves) * bytes_per_query_per_server /
                     per_core_rate +
                 static_cast<double>(batch_queries) * merge_seconds_per_query;
  cost.throughput = static_cast<double>(batch_queries) / cost.latency;
  return cost;
}

/// Cost model for one retrieval tier.
class RetrievalModel {
 public:
  virtual ~RetrievalModel() = default;

  /// Cost of a batch of `batch_queries` query vectors.
  virtual RetrievalCost Search(int64_t batch_queries) const = 0;

  /// Database bytes scanned per query (the paper's B_retrieval).
  virtual double BytesScannedPerQuery() const = 0;
};

}  // namespace rago::retrieval

#endif  // RAGO_RETRIEVAL_PERF_RETRIEVAL_MODEL_H
