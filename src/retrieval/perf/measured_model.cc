#include "retrieval/perf/measured_model.h"

#include <utility>

#include "common/check.h"

namespace rago::retrieval {

void
MeasuredScanProfile::Validate() const {
  RAGO_REQUIRE(bytes_per_query_per_server > 0,
               "measured profile needs positive bytes per query");
  RAGO_REQUIRE(scan_bytes_per_core > 0,
               "measured profile needs a positive scan rate");
  RAGO_REQUIRE(merge_seconds_per_query >= 0,
               "merge overhead cannot be negative");
}

MeasuredRetrievalModel::MeasuredRetrievalModel(MeasuredScanProfile profile,
                                               CpuServerSpec server,
                                               int num_servers)
    : profile_(profile), server_(std::move(server)),
      num_servers_(num_servers) {
  profile_.Validate();
  RAGO_REQUIRE(num_servers_ > 0, "need at least one retrieval server");
}

double
MeasuredRetrievalModel::BytesScannedPerQuery() const {
  return profile_.bytes_per_query_per_server * num_servers_;
}

RetrievalCost
MeasuredRetrievalModel::Search(int64_t batch_queries) const {
  return WaveScanCost(batch_queries, profile_.bytes_per_query_per_server,
                      profile_.scan_bytes_per_core, server_,
                      profile_.merge_seconds_per_query);
}

}  // namespace rago::retrieval
