#include "retrieval/perf/scann_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rago::retrieval {

void
DatabaseSpec::Validate() const {
  RAGO_REQUIRE(num_vectors > 0, "database must contain vectors");
  RAGO_REQUIRE(dim > 0, "vector dimensionality must be positive");
  RAGO_REQUIRE(pq_bytes_per_vector > 0, "PQ code size must be positive");
  RAGO_REQUIRE(scan_fraction > 0 && scan_fraction <= 1.0,
               "scan_fraction must be in (0, 1]");
  RAGO_REQUIRE(tree_fanout > 1, "tree fanout must exceed one");
  RAGO_REQUIRE(tree_levels >= 1 && tree_levels <= 4,
               "tree levels must be in [1, 4]");
  RAGO_REQUIRE(centroid_select_fraction > 0 && centroid_select_fraction <= 1,
               "centroid_select_fraction must be in (0, 1]");
}

ScannModel::ScannModel(DatabaseSpec db, CpuServerSpec server, int num_servers)
    : db_(db), server_(server), num_servers_(num_servers) {
  db_.Validate();
  RAGO_REQUIRE(num_servers_ > 0, "need at least one retrieval server");
  RAGO_REQUIRE(num_servers_ >= MinServersForCapacity(),
               "quantized database does not fit in host DRAM: need at least " +
                   std::to_string(MinServersForCapacity()) + " servers");
}

int
ScannModel::MinServersForCapacity() const {
  return MinServersForCapacity(db_, server_);
}

int
ScannModel::MinServersForCapacity(const DatabaseSpec& db,
                                  const CpuServerSpec& server) {
  return static_cast<int>(
      std::ceil(db.QuantizedBytes() / server.dram_bytes));
}

std::vector<ScanOp>
ScannModel::ScanOps() const {
  std::vector<ScanOp> ops;
  // Internal levels hold full-precision centroids. The root level is
  // scanned completely; at deeper internal levels the query scans all
  // children of the selected parents (beam = centroid_select_fraction
  // of the level above).
  double selected_nodes = 1.0;  // Virtual root.
  for (int level = 1; level < db_.tree_levels; ++level) {
    const double scanned = selected_nodes * db_.tree_fanout;
    ScanOp op;
    op.level = level;
    op.bytes = scanned * db_.centroid_bytes_per_vector();
    ops.push_back(op);
    selected_nodes =
        std::max(1.0, scanned * db_.centroid_select_fraction);
  }
  // Leaf level: scan_fraction of all quantized database vectors. This
  // is the paper's B_retrieval ~= N_dbvec * B_vec * P_scan term and
  // dominates total bytes for hyperscale databases.
  ScanOp leaf;
  leaf.level = db_.tree_levels;
  leaf.bytes = static_cast<double>(db_.num_vectors) * db_.scan_fraction *
               db_.pq_bytes_per_vector;
  ops.push_back(leaf);
  return ops;
}

double
ScannModel::BytesScannedPerQuery() const {
  double total = 0.0;
  for (const ScanOp& op : ScanOps()) {
    total += op.bytes;
  }
  return total;
}

double
ScannModel::BytesPerQueryPerServer() const {
  return BytesScannedPerQuery() / num_servers_;
}

RetrievalCost
ScannModel::Search(int64_t batch_queries) const {
  // Every shard scans its slice in parallel, so one server's wave time
  // is the batch's latency.
  return WaveScanCost(batch_queries, BytesPerQueryPerServer(),
                      server_.scan_bytes_per_core, server_);
}

}  // namespace rago::retrieval
