/**
 * @file checks_test.cc
 * Shows that every correctness check of the benchmark passes on real
 * program output and fails once that output is deliberately corrupted.
 *
 * Builds a small real deployment (flat sharded index, optimizer on a
 * reduced grid, one served trace), runs each check on it, then breaks
 * one field at a time. Exits non-zero if any check passes a corrupted
 * input or fails a clean one.
 *
 *   python3 perfbench/run.py --self-test
 */
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "core/schema.h"
#include "hardware/cluster.h"
#include "retrieval/ann/dataset.h"
#include "retrieval/serving/sharded_index.h"

namespace {

using namespace perfbench;
namespace rt = rago::runtime;

int failures = 0;

void Expect(const CheckResult& check, bool want_ok, const char* label) {
  const bool good = check.ok == want_ok;
  std::printf("%s %-44s expect %-4s got %-4s  %s\n", good ? "PASS" : "FAIL",
              label, want_ok ? "ok" : "fail", check.ok ? "ok" : "fail",
              check.detail.c_str());
  failures += good ? 0 : 1;
}

struct Fixture {
  rago::ann::Matrix pool;
  std::vector<std::vector<int64_t>> exact;
  std::vector<std::vector<rago::ann::Neighbor>> direct;
  rago::core::PipelineModel model{rago::core::MakeRewriterRerankerSchema(8),
                                  rago::DefaultCluster()};
  rago::opt::OptimizerResult plan;
  int budget = 0;
  rt::ArrivalTrace trace;
  rt::QueryStream stream;
  rt::RuntimeResult served;
  rt::RuntimeResult served_one_thread;
  rago::sim::ServingSimResult des;
};

Fixture Build() {
  Fixture f;
  rago::Rng rng(7);
  rago::ann::Matrix data = rago::ann::GenClustered(2'000, 16, 8, 0.3f, rng);
  f.pool = rago::ann::GenQueriesNear(data, 64, 0.1f, rng);
  f.exact = ExactTopK(data.data(), data.rows(), f.pool.data(), f.pool.rows(),
                      data.dim(), 10, 2);
  rago::serving::ShardedIndexOptions tier;
  tier.num_shards = 2;
  tier.backend = rago::serving::ShardBackend::kFlat;
  tier.num_threads = 1;
  const rago::serving::ShardedIndex index(std::move(data), tier);
  f.direct = index.SearchBatch(f.pool, 10);

  rago::opt::SearchOptions grid;
  grid.batch_sizes = {1, 4, 16};
  grid.decode_batch_sizes = {16, 64};
  grid.num_threads = 2;
  const rago::opt::Optimizer optimizer(f.model, grid);
  f.plan = optimizer.Search();
  f.budget = optimizer.Budget();
  const auto& chosen = f.plan.MaxQpsPerChip();

  f.trace = rt::PoissonTrace(300, chosen.perf.qps * 0.6, 11);
  f.stream = rt::ZipfianQueryStream(300, 64, 0.0, 12);
  rt::RuntimeOptions options;
  options.admission_queue_limit = 1 << 20;
  options.num_threads = 2;
  f.served = rt::ServingRuntime(f.model, chosen.schedule, index, options)
                 .Serve(f.trace, f.pool, f.stream);
  options.num_threads = 1;
  f.served_one_thread =
      rt::ServingRuntime(f.model, chosen.schedule, index, options)
          .Serve(f.trace, f.pool, f.stream);
  f.des = rago::sim::SimulateServing(f.model, chosen.schedule, f.trace);
  return f;
}

}  // namespace

int main() {
  // Hand-checked exact search: 1-d rows 0,1,2,3,10; query 2.2.
  const std::vector<float> rows = {0, 1, 2, 3, 10};
  const std::vector<float> query = {2.2f};
  const auto top2 = ExactTopK(rows.data(), 5, query.data(), 1, 1, 2, 1);
  const bool exact_ok =
      top2.size() == 1 && top2[0] == std::vector<int64_t>{2, 3};
  std::printf("%s %-44s\n", exact_ok ? "PASS" : "FAIL",
              "exact top-2 of a hand-checked case");
  failures += exact_ok ? 0 : 1;

  const Fixture f = Build();

  Expect(CheckRecall(RecallAtK(f.exact, f.direct, 10), 0.99), true,
         "recall: flat index vs exact");
  auto wrong = f.direct;
  for (auto& list : wrong) {
    for (auto& n : list) {
      n.id = (n.id + 1) % 2'000;
    }
  }
  Expect(CheckRecall(RecallAtK(f.exact, wrong, 10), 0.99), false,
         "recall: shifted ids");

  Expect(CheckFirstNeighbors(f.served, f.stream, f.direct), true,
         "first neighbors: served");
  rt::RuntimeResult bad_neighbor = f.served;
  bad_neighbor.requests[17].first_neighbor += 1;
  Expect(CheckFirstNeighbors(bad_neighbor, f.stream, f.direct), false,
         "first neighbors: one id off");

  Expect(CheckConservation(f.served, 300), true, "conservation: served");
  rt::RuntimeResult shed = f.served;
  shed.rejected = 1;
  shed.admitted -= 1;
  shed.completed -= 1;
  Expect(CheckConservation(shed, 300), false, "conservation: one shed");

  Expect(CheckDesAgreement(f.served, f.des, 0.05), true,
         "DES agreement: same trace");
  rago::sim::ServingSimResult slow = f.des;
  slow.avg_ttft *= 1.2;
  Expect(CheckDesAgreement(f.served, slow, 0.05), false,
         "DES agreement: TTFT 20% off");

  Expect(CheckFrontier(f.plan, f.budget), true, "frontier: searched");
  rago::opt::OptimizerResult unsorted = f.plan;
  if (unsorted.pareto.size() >= 2) {
    std::swap(unsorted.pareto[0], unsorted.pareto[1]);
  } else {
    unsorted.pareto.clear();
  }
  Expect(CheckFrontier(unsorted, f.budget), false, "frontier: two swapped");
  Expect(CheckFrontier(f.plan, 1), false, "frontier: budget of one XPU");

  const auto& chosen = f.plan.MaxQpsPerChip();
  Expect(CheckEvaluateReproduces(chosen.perf,
                                 f.model.Evaluate(chosen.schedule)),
         true, "Evaluate: served point");
  rago::core::EndToEndPerf drifted = chosen.perf;
  drifted.ttft *= 1.001;
  Expect(CheckEvaluateReproduces(drifted, f.model.Evaluate(chosen.schedule)),
         false, "Evaluate: TTFT 0.1% off");

  Expect(CheckBaselineNotBetter(chosen.perf.qps_per_chip * 0.5,
                                chosen.perf.qps_per_chip),
         true, "baseline: below RAGO");
  Expect(CheckBaselineNotBetter(chosen.perf.qps_per_chip * 1.01,
                                chosen.perf.qps_per_chip),
         false, "baseline: above RAGO");

  Expect(CheckDigestsEqual("digest", f.served.outcome_digest,
                           f.served_one_thread.outcome_digest),
         true, "digest: 1 vs 2 threads");
  Expect(CheckDigestsEqual("digest", f.served.outcome_digest,
                           f.served.outcome_digest ^ 1),
         false, "digest: one bit flipped");

  std::printf("%s: %d mismatches\n", failures == 0 ? "all checks behave"
                                                   : "CHECK TESTS FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
