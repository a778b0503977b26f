/**
 * @file bench_ablation_pruning.cc
 * Ablation (DESIGN.md): the two kinds of pruning in Algorithm 1.
 * Per-stage Pareto pruning cuts each stage's (chips, batch) options to
 * their 3-objective frontier before schedule enumeration; branch and
 * bound skips subtrees whose bound a seen schedule strictly dominates.
 * Neither may move a frontier point — only the work. This harness
 * measures the work and time of each combination against the
 * exhaustive enumeration (keep_plan_frontiers) and exits non-zero when
 *  - branch and bound differs from the exhaustive frontier of the same
 *    stage-pruning setting in any point or schedule, or
 *  - stage pruning moves any frontier point (TTFT, QPS, QPS/Chip).
 * Stage pruning may report a different schedule for an exact objective
 * tie: it drops a 3-objective-dominated stage option whose schedule
 * ties end to end when that stage is not the bottleneck.
 */
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "rago/optimizer.h"

namespace {

/// True when both frontiers hold the same points, bit for bit and in
/// the same order, and (with `schedules`) the same schedules.
bool SameFrontier(const rago::opt::OptimizerResult& a,
                  const rago::opt::OptimizerResult& b, bool schedules) {
  if (a.pareto.size() != b.pareto.size()) {
    return false;
  }
  for (size_t i = 0; i < a.pareto.size(); ++i) {
    const rago::opt::ScheduledPoint& x = a.pareto[i];
    const rago::opt::ScheduledPoint& y = b.pareto[i];
    if (x.perf.ttft != y.perf.ttft || x.perf.qps != y.perf.qps ||
        x.perf.qps_per_chip != y.perf.qps_per_chip ||
        (schedules && !(x.schedule == y.schedule))) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace rago;
  using namespace rago::bench;
  using Clock = std::chrono::steady_clock;

  Banner("Ablation: Algorithm 1 stage pruning and branch and bound "
         "(Case II, 70B)");
  const core::PipelineModel model(core::MakeLongContextSchema(70, 1'000'000),
                                  LargeCluster());

  TextTable table;
  table.SetHeader({"stage pruning", "search", "schedules evaluated",
                   "subtrees pruned", "search time (ms)", "frontier size",
                   "max QPS/Chip"});
  opt::OptimizerResult unpruned;  // Exhaustive, no stage pruning.
  bool all_match = true;
  for (bool stage_pruning : {false, true}) {
    opt::OptimizerResult exhaustive;
    for (bool keep_plans : {true, false}) {
      opt::SearchOptions options = StandardGrid();
      options.per_stage_pareto_pruning = stage_pruning;
      options.keep_plan_frontiers = keep_plans;
      const opt::Optimizer optimizer(model, options);
      const auto start = Clock::now();
      opt::OptimizerResult result = optimizer.Search();
      const double millis =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      const char* search = keep_plans ? "exhaustive" : "branch and bound";
      table.AddRow({stage_pruning ? "on" : "off", search,
                    std::to_string(result.schedules_evaluated),
                    std::to_string(result.subtrees_pruned),
                    TextTable::Num(millis, 4),
                    std::to_string(result.pareto.size()),
                    TextTable::Num(result.MaxQpsPerChip().perf.qps_per_chip,
                                   5)});
      const bool matches =
          keep_plans ? !stage_pruning || SameFrontier(unpruned, result,
                                                      /*schedules=*/false)
                     : SameFrontier(exhaustive, result, /*schedules=*/true);
      if (!matches) {
        std::fprintf(stderr, "ERROR: stage pruning %s, %s: frontier differs\n",
                     stage_pruning ? "on" : "off", search);
        all_match = false;
      }
      if (keep_plans) {
        exhaustive = std::move(result);
        if (!stage_pruning) {
          unpruned = exhaustive;
        }
      }
    }
  }
  table.Print();
  if (!all_match) {
    return 1;
  }
  std::printf("(both prunings are lossless: identical frontier points; "
              "branch and bound also keeps every schedule)\n");
  return 0;
}
