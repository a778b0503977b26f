/**
 * @file checks.h
 * Correctness checks of a benchmark run.
 *
 * Each check compares the program's output with something computed
 * apart from it (the benchmark's own brute-force search, a direct
 * index query, the DES) or with a property the method must have (the
 * frontier's shape, request conservation, determinism). None compares
 * against a stored copy of earlier output. checks_test.cc shows each
 * one failing on a deliberately corrupted input.
 */
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline_model.h"
#include "rago/optimizer.h"
#include "retrieval/ann/topk.h"
#include "serving/runtime/runtime.h"
#include "serving/runtime/workload.h"
#include "sim/serving_sim.h"

namespace perfbench {

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;  ///< What was compared, or what went wrong.
};

/**
 * Exact k nearest rows (squared L2, accumulated in double, ties to the
 * lower id) of each query, by a plain loop over every database row.
 * Uses none of the repository's distance kernels. Splits the queries
 * over `threads` std::threads.
 */
std::vector<std::vector<int64_t>> ExactTopK(const float* base, size_t rows,
                                            const float* queries,
                                            size_t num_queries, size_t dim,
                                            size_t k, int threads);

/// Mean |exact ∩ found| / k over the queries (first k of each list).
double RecallAtK(const std::vector<std::vector<int64_t>>& exact,
                 const std::vector<std::vector<rago::ann::Neighbor>>& found,
                 size_t k);

/// Recall against the exact top-k stays at or above `floor`.
CheckResult CheckRecall(double recall, double floor);

/**
 * Every completed request's first_neighbor equals the top-1 id a
 * direct search returned for its pool row (`direct[row]`), whether the
 * runtime scanned it or served it from cache.
 */
CheckResult CheckFirstNeighbors(
    const rago::runtime::RuntimeResult& result,
    const rago::runtime::QueryStream& stream,
    const std::vector<std::vector<rago::ann::Neighbor>>& direct);

/// submitted = admitted = completed = `expected`, rejected = 0.
CheckResult CheckConservation(const rago::runtime::RuntimeResult& result,
                              int64_t expected);

/**
 * The DES on the same trace and schedule agrees with the runtime's
 * virtual throughput and mean TTFT and TPOT within `band` (relative).
 */
CheckResult CheckDesAgreement(const rago::runtime::RuntimeResult& live,
                              const rago::sim::ServingSimResult& des,
                              double band);

/**
 * The frontier is non-empty, sorted by rising TTFT with strictly
 * rising QPS/chip, every point feasible, and within `xpu_budget`.
 */
CheckResult CheckFrontier(const rago::opt::OptimizerResult& result,
                          int xpu_budget);

/// Re-evaluating the served schedule reproduces its reported point
/// (TTFT, TPOT, QPS and QPS/chip within a relative 1e-9).
CheckResult CheckEvaluateReproduces(const rago::core::EndToEndPerf& served,
                                    const rago::core::EndToEndPerf& again);

/// RAGO's best QPS/chip is at least the baseline's.
CheckResult CheckBaselineNotBetter(double baseline_best, double rago_best);

/// Two digests of runs that must serve identically are equal.
CheckResult CheckDigestsEqual(const std::string& what, uint64_t a,
                              uint64_t b);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
