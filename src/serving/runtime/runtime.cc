#include "serving/runtime/runtime.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace rago::runtime {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  // Measurement only: real-scan wall-clock telemetry, never virtual
  // time or control flow. rago-lint: allow(wallclock)
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

ServingRuntime::ServingRuntime(const core::PipelineModel& model,
                               core::Schedule schedule,
                               const serving::ShardedIndex& index,
                               RuntimeOptions options)
    : model_(model), schedule_(std::move(schedule)), index_(index),
      options_(std::move(options)) {
  options_.Validate();
  RAGO_REQUIRE(model_.schema().retrieval_enabled,
               "the serving runtime requires a retrieval stage");
  RAGO_REQUIRE(!model_.schema().IterativeRetrieval(),
               "iterative retrieval is not supported by the runtime "
               "(use SimulateIterativeDecode)");
  schedule_.Validate(model_.chain().size());
  // A dedicated pool (even of one worker) so scan parallelism follows
  // this runtime's knob, not the index's own num_threads default.
  pool_ = std::make_unique<ThreadPool>(
      ResolveNumThreads(options_.num_threads));
}

RuntimeResult
ServingRuntime::Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool) const {
  RAGO_REQUIRE(!workload.arrivals.empty(), "empty arrival trace");
  RAGO_REQUIRE(!query_pool.empty(), "empty query pool");
  // Legacy assignment: each request's starting pool row derives from
  // the seed (uniform over the pool), exactly as before query streams
  // existed.
  std::vector<size_t> row_start(workload.arrivals.size());
  for (size_t i = 0; i < row_start.size(); ++i) {
    row_start[i] = static_cast<size_t>(
        Rng::DeriveSeed(options_.seed, static_cast<uint64_t>(i)) %
        query_pool.rows());
  }
  return ServeImpl(workload, query_pool, row_start);
}

RuntimeResult
ServingRuntime::Serve(const ArrivalTrace& workload,
                      const ann::Matrix& query_pool,
                      const QueryStream& stream) const {
  RAGO_REQUIRE(!workload.arrivals.empty(), "empty arrival trace");
  RAGO_REQUIRE(!query_pool.empty(), "empty query pool");
  RAGO_REQUIRE(stream.rows.size() == workload.arrivals.size(),
               "query stream length must match the arrival trace");
  std::vector<size_t> row_start(stream.rows.size());
  for (size_t i = 0; i < stream.rows.size(); ++i) {
    const int64_t row = stream.rows[i];
    RAGO_REQUIRE(row >= 0 &&
                     row < static_cast<int64_t>(query_pool.rows()),
                 "query stream row out of pool range");
    row_start[i] = static_cast<size_t>(row);
  }
  return ServeImpl(workload, query_pool, row_start);
}

RuntimeResult
ServingRuntime::ServeImpl(const ArrivalTrace& workload,
                          const ann::Matrix& query_pool,
                          const std::vector<size_t>& row_start) const {
  RAGO_REQUIRE(query_pool.dim() == index_.dim(),
               "query pool dimensionality mismatch with the index");
  const auto qpr = static_cast<size_t>(
      model_.schema().retrieval.queries_per_retrieval);

  // Content-based query fingerprints for the retrieval-result cache,
  // computed up front so a lookup in the event loop is O(1).
  std::vector<uint64_t> fingerprints;
  if (options_.cache.retrieval_capacity > 0) {
    fingerprints.resize(row_start.size());
    for (size_t i = 0; i < fingerprints.size(); ++i) {
      fingerprints[i] = cache::FingerprintQueries(
          query_pool, row_start[i], static_cast<int>(qpr));
    }
  }

  // One retrieval batch as a real scatter-gather scan: each member
  // asks its qpr consecutive pool rows (wrapping) for top_k neighbors.
  const RetrievalHook scan = [&](const std::vector<int>& members,
                                 RuntimeResult& result) {
    ann::Matrix batch_queries(members.size() * qpr, query_pool.dim());
    size_t row = 0;
    for (int id : members) {
      const size_t start = row_start[static_cast<size_t>(id)];
      for (size_t q = 0; q < qpr; ++q) {
        batch_queries.CopyRowFrom(query_pool,
                                  (start + q) % query_pool.rows(), row++);
      }
    }
    // Measurement only (real_scan_wall_s). rago-lint: allow(wallclock)
    const Clock::time_point scan_start = Clock::now();
    serving::ShardSearchStats stats;
    auto neighbors = index_.SearchBatch(
        batch_queries, static_cast<size_t>(options_.top_k), pool_.get(),
        &stats);
    result.real_scan_seconds += SecondsSince(scan_start);
    result.real_scan_bytes += stats.TotalScanBytes();
    result.real_queries_scanned +=
        static_cast<int64_t>(batch_queries.rows());

    std::vector<Retrieved> found(members.size());
    auto next = std::make_move_iterator(neighbors.begin());
    for (Retrieved& per_query : found) {
      per_query.assign(next, next + static_cast<long>(qpr));
      next += static_cast<long>(qpr);
    }
    return found;
  };
  return RunServingEngine(model_, schedule_, options_, workload, "serve",
                          scan, fingerprints);
}

}  // namespace rago::runtime
