#include "retrieval/perf/bruteforce_model.h"

#include "common/check.h"

namespace rago::retrieval {

BruteForceModel::BruteForceModel(int64_t num_vectors, int dim,
                                 double bytes_per_dim, CpuServerSpec server)
    : num_vectors_(num_vectors),
      dim_(dim),
      bytes_per_dim_(bytes_per_dim),
      server_(server) {
  RAGO_REQUIRE(num_vectors_ > 0, "database must contain vectors");
  RAGO_REQUIRE(dim_ > 0, "dimensionality must be positive");
  RAGO_REQUIRE(bytes_per_dim_ > 0, "bytes per dimension must be positive");
}

double
BruteForceModel::BytesScannedPerQuery() const {
  return static_cast<double>(num_vectors_) * dim_ * bytes_per_dim_;
}

RetrievalCost
BruteForceModel::Search(int64_t batch_queries) const {
  return WaveScanCost(batch_queries, BytesScannedPerQuery(),
                      server_.scan_bytes_per_core, server_);
}

}  // namespace rago::retrieval
