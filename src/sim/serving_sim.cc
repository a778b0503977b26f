#include "sim/serving_sim.h"

#include <limits>

namespace rago::sim {

runtime::RuntimeOptions
DesEngineOptions(const ServingSimOptions& options) {
  // The DES is the serving engine with retrieval priced only: no
  // retrieval hook, caches off (the default), unbounded admission, and
  // no SLO bound.
  const double kNoBound = std::numeric_limits<double>::infinity();
  runtime::RuntimeOptions engine;
  engine.admission_queue_limit = std::numeric_limits<int>::max();
  engine.batch_timeout = options.batch_timeout;
  engine.retrieval_model = options.retrieval_model;
  engine.slo.ttft_seconds = kNoBound;
  engine.slo.tpot_seconds = kNoBound;
  return engine;
}

ServingSimResult
SimulateServing(const core::PipelineModel& model,
                const core::Schedule& schedule,
                const runtime::ArrivalTrace& trace,
                const ServingSimOptions& options) {
  const runtime::RuntimeResult run = runtime::RunServingEngine(
      model, schedule, DesEngineOptions(options), trace, "sim");

  ServingSimResult result;
  result.completed = run.completed;
  result.makespan = run.makespan;
  result.throughput = run.throughput;
  result.avg_ttft = run.ttft.Mean();
  result.p50_ttft = run.ttft.Percentile(0.50);
  result.p95_ttft = run.ttft.Percentile(0.95);
  result.p99_ttft = run.ttft.Percentile(0.99);
  result.avg_tpot = run.tpot.Mean();
  result.p50_tpot = run.tpot.Percentile(0.50);
  result.p95_tpot = run.tpot.Percentile(0.95);
  result.p99_tpot = run.tpot.Percentile(0.99);
  const auto groups = static_cast<size_t>(schedule.NumGroups());
  result.group_utilization.resize(groups);
  for (size_t g = 0; g < groups; ++g) {
    result.group_utilization[g] = run.server_busy_seconds[g] / run.makespan;
  }
  result.retrieval_utilization =
      run.server_busy_seconds[groups] / run.makespan;
  result.decode_utilization = run.decode_utilization;
  return result;
}

}  // namespace rago::sim
