/**
 * @file capacity_planner.cc
 * Scenario: a platform team must quote hardware for a new RAG product
 * with explicit SLOs. Uses the provisioner (the inverse of the RAGO
 * search) to find the fewest XPUs that meet TTFT/QPS targets, and the
 * trace-driven serving simulator to sanity-check the chosen schedule
 * under Poisson load before committing.
 */
#include <cstdio>

#include "core/pipeline_model.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "rago/provisioner.h"
#include "serving/runtime/workload.h"
#include "sim/serving_sim.h"

int main() {
  using namespace rago;

  const core::PipelineModel model(core::MakeHyperscaleSchema(8, 1),
                                  DefaultCluster());

  opt::SloSpec slo;
  slo.min_qps = 50.0;
  slo.max_ttft = 0.200;

  std::printf("SLOs: >= %.0f QPS sustained, TTFT <= %.0f ms\n\n",
              slo.min_qps, ToMillis(slo.max_ttft));

  const opt::ProvisionResult plan = opt::Provision(model, slo);
  if (!plan.satisfiable) {
    std::printf("not satisfiable within the cluster\n");
    return 1;
  }
  std::printf("cheapest plan: %d XPUs allocated (budget probe stopped at "
              "%d)\n",
              plan.chosen.schedule.AllocatedXpus(), plan.xpu_budget);
  std::printf("  prefix: %d XPUs (batch %lld), decode: %d XPUs (batch "
              "%lld)\n",
              plan.chosen.schedule.group_chips[0],
              static_cast<long long>(plan.chosen.schedule.chain_batch[0]),
              plan.chosen.schedule.decode_chips,
              static_cast<long long>(plan.chosen.schedule.decode_batch));
  std::printf("  predicted: %.1f QPS, TTFT %.1f ms, TPOT %.2f ms\n\n",
              plan.chosen.perf.qps, ToMillis(plan.chosen.perf.ttft),
              ToMillis(plan.chosen.perf.tpot));

  // Validate under a Poisson arrival trace at 90% of the SLO load.
  const runtime::ArrivalTrace trace =
      runtime::PoissonTrace(2000, slo.min_qps * 0.9, /*seed=*/2026);
  const sim::ServingSimResult observed =
      sim::SimulateServing(model, plan.chosen.schedule, trace);
  std::printf("simulated at %.0f QPS offered: throughput %.1f QPS, avg "
              "TTFT %.1f ms, p99 TTFT %.1f ms\n",
              slo.min_qps * 0.9, observed.throughput,
              ToMillis(observed.avg_ttft), ToMillis(observed.p99_ttft));
  std::printf("prefix-group utilization %.0f%%, retrieval %.0f%%, decode "
              "%.0f%%\n",
              100 * observed.group_utilization[0],
              100 * observed.retrieval_utilization,
              100 * observed.decode_utilization);
  std::printf("\nlesson: the frontier answers \"how good can it be\"; the\n"
              "provisioner + simulator answer \"what do we buy and will "
              "it hold\".\n");
  return 0;
}
