/**
 * @file optimizer.h
 * RAGO: exact branch-and-bound search for optimal RAG serving schedules.
 *
 * Implements the paper's Algorithm 1. Given a RAGSchema and resource
 * constraints, RAGO explores:
 *  - task placement: contiguous collocation of prefix-chain stages
 *    (neighbor-only grouping, paper Fig. 13);
 *  - resource allocation: power-of-two XPU counts per group and for
 *    decode, within the cluster budget;
 *  - batching policy: per-group batch sizes, decode continuous batch,
 *    and the iterative retrieval batch where applicable.
 *
 * Step 1 profiles every stage at every (chips, batch) setting once
 * (with optional per-stage Pareto pruning); Steps 2-3 enumerate
 * schedules and assemble end-to-end performance from the profiles,
 * keeping the TTFT x QPS/Chip Pareto frontier.
 *
 * Steps 2-3 run as branch and bound: a pilot pass over every fifth
 * batch size seeds a frontier, then each group assignment and each
 * decode option under it is skipped when an admissible (TTFT lower,
 * QPS/Chip upper) bound is strictly dominated by a schedule already
 * evaluated. The bounds use the enumeration's own arithmetic, so the
 * frontier — points and tie-broken schedules — is bit-identical to the
 * exhaustive enumeration (paper Fig. 16: most plans cannot reach the
 * global frontier). Only keep_plan_frontiers enumerates exhaustively.
 */
#ifndef RAGO_RAGO_OPTIMIZER_H
#define RAGO_RAGO_OPTIMIZER_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline_model.h"

namespace rago::opt {

/// Search-space granularity knobs (paper: user-defined granularity).
struct SearchOptions {
  /// Batch sizes explored for prefix-chain groups (powers of two).
  std::vector<int64_t> batch_sizes = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
  /// Batch sizes explored for the decode stage.
  std::vector<int64_t> decode_batch_sizes = {1,  2,   4,   8,   16,  32,
                                             64, 128, 256, 512, 1024};
  /// XPU budget; 0 means the full cluster.
  int max_total_xpus = 0;
  /// Apply per-stage Pareto pruning after profiling (Algorithm 1
  /// step 1). Disabling is exposed for the pruning ablation bench.
  bool per_stage_pareto_pruning = true;
  /// Keep one Pareto frontier per (placement, allocation) plan for
  /// Pareto-composition plots (paper Fig. 16/18). Costs memory, and
  /// turns off branch-and-bound pruning: a plan frontier needs points
  /// the global bound would skip, so the search enumerates every
  /// schedule (the exhaustive reference the pruned search must match).
  bool keep_plan_frontiers = false;
  /// Restrict the search to one placement (index into
  /// PlacementOptions()); -1 searches all placements.
  int placement_filter = -1;
  /**
   * Worker threads for Search(): Step-1 stage profiling fans out as
   * (stage x chips x batch) tasks and Steps 2-3 enumerate placement /
   * allocation subtrees as independent tasks, each building a local
   * Pareto frontier that is merged with an order-independent,
   * payload-tie-broken reduction. 0 = hardware concurrency, 1 =
   * serial. The reported frontier (points, schedules, counters) is
   * bit-identical for every value (pinned by test_determinism).
   */
  int num_threads = 0;
};

/// A schedule together with its evaluated end-to-end performance.
struct ScheduledPoint {
  core::Schedule schedule;
  core::EndToEndPerf perf;
};

/// Pareto frontier of one (placement, allocation) plan.
struct PlanFrontier {
  std::string plan_label;  ///< e.g. "[encode][prefix] chips=64,16 dec=16".
  std::vector<ScheduledPoint> points;
};

/// Output of one optimizer run.
struct OptimizerResult {
  /// Global Pareto frontier over (TTFT down, QPS/Chip up), TTFT-sorted.
  std::vector<ScheduledPoint> pareto;
  /// Per-plan frontiers (only when keep_plan_frontiers is set).
  std::vector<PlanFrontier> plan_frontiers;
  /// Schedules priced (pilot pass included) and the feasible ones.
  int64_t schedules_evaluated = 0;
  int64_t schedules_feasible = 0;
  /// Group-assignment and decode subtrees skipped by branch and bound
  /// (0 with keep_plan_frontiers). Thread-count-invariant.
  int64_t subtrees_pruned = 0;

  /// Highest-QPS/Chip point on the frontier (requires non-empty).
  const ScheduledPoint& MaxQpsPerChip() const;
  /// Lowest-TTFT point on the frontier (requires non-empty).
  const ScheduledPoint& MinTtft() const;
};

/// The RAGO search engine for one pipeline model.
class Optimizer {
 public:
  Optimizer(const core::PipelineModel& model, SearchOptions options = {});

  /// Full Algorithm 1 search (live model-priced stage costs).
  OptimizerResult Search() const;

  /**
   * Algorithm 1 with externally supplied stage costs: every Step-1
   * profile and the final frontier re-scoring go through `provider`
   * instead of the model's live evaluators, so measured costs — e.g.
   * PipelineModel::ProviderWithRetrievalModel wrapping a
   * MeasuredRetrievalModel calibrated on the serving index — steer
   * which schedules win, not just how they are reported. Lookups must
   * be thread-compatible: Step 1 invokes them concurrently from the
   * profiling fan-out. Search() is this with model.LiveProvider().
   */
  OptimizerResult Search(const core::StagePerfProvider& provider) const;

  /**
   * Baseline from the paper's evaluation (§7.1): all auxiliary stages
   * collocated with the main-LLM prefix partition, prefix:decode chips
   * fixed at 1:1, batching still tuned.
   */
  OptimizerResult SearchBaseline() const;

  /**
   * Placement candidates: every contiguous partition of the prefix
   * chain into collocation groups (2^(k-1) options for k stages).
   * Each entry is a chain_group vector.
   */
  std::vector<std::vector<int>> PlacementOptions() const;

  /// Human-readable label of a placement option.
  std::string PlacementLabel(const std::vector<int>& chain_group) const;

  /// XPU budget used by this optimizer instance.
  int Budget() const;

 private:
  const core::PipelineModel& model_;
  SearchOptions options_;
};

}  // namespace rago::opt

#endif  // RAGO_RAGO_OPTIMIZER_H
