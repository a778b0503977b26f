/**
 * @file measured_model.h
 * Retrieval cost model backed by measured scan timings.
 *
 * The analytical ScannModel prices multi-server retrieval from
 * published constants (18 GB/s/core scan rate, derated DRAM
 * bandwidth). The functional sharded tier (retrieval/serving) produces
 * the same quantities by measurement: bytes scanned and wall time per
 * shard. This adapter feeds a *measured* profile to the same
 * WaveScanCost pricing rule, so the serving DES can cross-check
 * analytical prices against real multi-server scans.
 */
#ifndef RAGO_RETRIEVAL_PERF_MEASURED_MODEL_H
#define RAGO_RETRIEVAL_PERF_MEASURED_MODEL_H

#include <cstdint>

#include "hardware/cpu_server.h"
#include "retrieval/perf/retrieval_model.h"

namespace rago::retrieval {

/// Scan-cost profile distilled from a calibration run (or synthesized
/// from an analytical model for cross-validation).
struct MeasuredScanProfile {
  /// Bytes one query scans within one shard/server.
  double bytes_per_query_per_server = 0.0;
  /// Effective per-core scan throughput achieved, bytes/second.
  double scan_bytes_per_core = 0.0;
  /// Gather/merge seconds charged per query at the aggregator (the
  /// analytical model treats this as negligible; measurement keeps it).
  double merge_seconds_per_query = 0.0;

  /// Throws ConfigError on non-positive rates or bytes.
  void Validate() const;
};

/**
 * RetrievalModel over a measured profile. It prices through the same
 * WaveScanCost as ScannModel, with the measured bytes and per-core
 * rate fed in and the merge term added, so a disagreement between the
 * two isolates calibration error: there is no second formula to drift.
 */
class MeasuredRetrievalModel : public RetrievalModel {
 public:
  MeasuredRetrievalModel(MeasuredScanProfile profile, CpuServerSpec server,
                         int num_servers);

  RetrievalCost Search(int64_t batch_queries) const override;
  double BytesScannedPerQuery() const override;

  const MeasuredScanProfile& profile() const { return profile_; }
  int num_servers() const { return num_servers_; }

 private:
  MeasuredScanProfile profile_;
  CpuServerSpec server_;
  int num_servers_;
};

}  // namespace rago::retrieval

#endif  // RAGO_RETRIEVAL_PERF_MEASURED_MODEL_H
