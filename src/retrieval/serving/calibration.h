/**
 * @file calibration.h
 * Turns measured shard timings into a RetrievalModel.
 *
 * The bridge between the functional sharded tier and the analytical
 * serving stack: a calibration run over a ShardedIndex yields per-shard
 * scan bytes and wall times; those distill into a MeasuredScanProfile,
 * and the resulting MeasuredRetrievalModel plugs into the serving
 * engine (runtime::RuntimeOptions::retrieval_model, which the DES sets
 * from sim::ServingSimOptions::retrieval_model) wherever the analytical
 * ScannModel would be used — so replayed multi-server scans and the
 * published cost model can be cross-checked against each other.
 */
#ifndef RAGO_RETRIEVAL_SERVING_CALIBRATION_H
#define RAGO_RETRIEVAL_SERVING_CALIBRATION_H

#include "hardware/cpu_server.h"
#include "retrieval/perf/measured_model.h"
#include "retrieval/serving/sharded_index.h"

namespace rago::serving {

/**
 * Distills a calibration run's stats into a scan profile: mean bytes
 * per query per shard, the effective per-core scan rate shards
 * actually achieved (each shard task runs on one worker thread), and
 * the per-query merge overhead.
 */
retrieval::MeasuredScanProfile ProfileFromStats(
    const ShardSearchStats& stats);

/**
 * Convenience calibration: searches `queries` through `index` (top-k
 * `k`) and returns a measured-cost model of its shard fleet on
 * `server`-class hosts.
 */
retrieval::MeasuredRetrievalModel CalibrateRetrievalModel(
    const ShardedIndex& index, const ann::Matrix& queries, size_t k,
    const CpuServerSpec& server, ThreadPool* pool = nullptr);

}  // namespace rago::serving

#endif  // RAGO_RETRIEVAL_SERVING_CALIBRATION_H
