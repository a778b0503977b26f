#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

std::string Format(const char* fmt, double a, double b) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), fmt, a, b);
  return buffer;
}

bool RelClose(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

std::vector<std::vector<int64_t>> ExactTopK(const float* base, size_t rows,
                                            const float* queries,
                                            size_t num_queries, size_t dim,
                                            size_t k, int threads) {
  std::vector<std::vector<int64_t>> out(num_queries);
  auto work = [&](size_t begin, size_t end) {
    // Max-heap on (distance, id): the worst kept candidate on top.
    std::vector<std::pair<double, int64_t>> heap;
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries + q * dim;
      heap.clear();
      for (size_t r = 0; r < rows; ++r) {
        const float* row = base + r * dim;
        double dist = 0.0;
        for (size_t d = 0; d < dim; ++d) {
          const double diff = static_cast<double>(query[d]) - row[d];
          dist += diff * diff;
        }
        const std::pair<double, int64_t> cand{dist,
                                              static_cast<int64_t>(r)};
        if (heap.size() < k) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end());
        } else if (cand < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end());
        }
      }
      std::sort_heap(heap.begin(), heap.end());
      for (const auto& entry : heap) {
        out[q].push_back(entry.second);
      }
    }
  };
  const size_t workers =
      std::max<size_t>(1, std::min<size_t>(threads, num_queries));
  std::vector<std::thread> pool;
  const size_t chunk = (num_queries + workers - 1) / workers;
  for (size_t w = 0; w < workers; ++w) {
    const size_t begin = w * chunk;
    const size_t end = std::min(num_queries, begin + chunk);
    if (begin < end) {
      pool.emplace_back(work, begin, end);
    }
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return out;
}

double RecallAtK(const std::vector<std::vector<int64_t>>& exact,
                 const std::vector<std::vector<rago::ann::Neighbor>>& found,
                 size_t k) {
  if (exact.empty() || exact.size() != found.size() || k == 0) {
    return 0.0;
  }
  double sum = 0.0;
  for (size_t q = 0; q < exact.size(); ++q) {
    const size_t want = std::min(k, exact[q].size());
    const std::set<int64_t> truth(exact[q].begin(), exact[q].begin() + want);
    size_t hits = 0;
    for (size_t i = 0; i < std::min(k, found[q].size()); ++i) {
      hits += truth.count(found[q][i].id);
    }
    sum += static_cast<double>(hits) / static_cast<double>(k);
  }
  return sum / static_cast<double>(exact.size());
}

CheckResult CheckRecall(double recall, double floor) {
  return {"recall_vs_exact", recall >= floor,
          Format("recall@10 %.4f, floor %.2f", recall, floor)};
}

CheckResult CheckFirstNeighbors(
    const rago::runtime::RuntimeResult& result,
    const rago::runtime::QueryStream& stream,
    const std::vector<std::vector<rago::ann::Neighbor>>& direct) {
  CheckResult check{"first_neighbor_vs_direct_search", true, ""};
  if (result.requests.size() != stream.rows.size()) {
    check.ok = false;
    check.detail = "request count differs from the query stream";
    return check;
  }
  int64_t compared = 0;
  for (size_t i = 0; i < result.requests.size(); ++i) {
    const auto& request = result.requests[i];
    if (request.completion < 0.0) {
      continue;
    }
    const auto row = static_cast<size_t>(stream.rows[i]);
    const int64_t want =
        row < direct.size() && !direct[row].empty() ? direct[row][0].id : -2;
    if (request.first_neighbor != want) {
      check.ok = false;
      check.detail = "request " + std::to_string(i) + " (pool row " +
                     std::to_string(row) + "): served " +
                     std::to_string(request.first_neighbor) +
                     ", direct search " + std::to_string(want);
      return check;
    }
    ++compared;
  }
  check.ok = compared > 0;
  check.detail = std::to_string(compared) + " requests compared";
  return check;
}

CheckResult CheckConservation(const rago::runtime::RuntimeResult& result,
                              int64_t expected) {
  const bool ok = result.submitted == expected &&
                  result.admitted == expected &&
                  result.completed == expected && result.rejected == 0;
  return {"request_conservation", ok,
          "submitted " + std::to_string(result.submitted) + ", admitted " +
              std::to_string(result.admitted) + ", completed " +
              std::to_string(result.completed) + ", rejected " +
              std::to_string(result.rejected) + ", expected " +
              std::to_string(expected)};
}

CheckResult CheckDesAgreement(const rago::runtime::RuntimeResult& live,
                              const rago::sim::ServingSimResult& des,
                              double band) {
  const bool ok = live.completed == des.completed &&
                  RelClose(live.throughput, des.throughput, band) &&
                  RelClose(live.ttft.Mean(), des.avg_ttft, band) &&
                  RelClose(live.tpot.Mean(), des.avg_tpot, band);
  return {"des_agreement", ok,
          Format("throughput runtime %.4g vs DES %.4g",
                 live.throughput, des.throughput) +
              Format(", mean TTFT %.6g vs %.6g", live.ttft.Mean(),
                     des.avg_ttft) +
              Format(", mean TPOT %.6g vs %.6g", live.tpot.Mean(),
                     des.avg_tpot)};
}

CheckResult CheckFrontier(const rago::opt::OptimizerResult& result,
                          int xpu_budget) {
  CheckResult check{"frontier_shape", !result.pareto.empty(), ""};
  if (result.pareto.empty()) {
    check.detail = "empty frontier";
    return check;
  }
  for (size_t i = 0; i < result.pareto.size(); ++i) {
    const auto& point = result.pareto[i];
    if (!point.perf.feasible ||
        point.schedule.AllocatedXpus() > xpu_budget) {
      check.ok = false;
      check.detail = "point " + std::to_string(i) +
                     " infeasible or over the XPU budget";
      return check;
    }
    if (i > 0) {
      const auto& prev = result.pareto[i - 1].perf;
      if (!(point.perf.ttft >= prev.ttft) ||
          !(point.perf.qps_per_chip > prev.qps_per_chip)) {
        check.ok = false;
        check.detail = "point " + std::to_string(i) +
                       " breaks TTFT order or rising QPS/chip";
        return check;
      }
    }
  }
  check.detail = std::to_string(result.pareto.size()) +
                 " points, budget " + std::to_string(xpu_budget);
  return check;
}

CheckResult CheckEvaluateReproduces(const rago::core::EndToEndPerf& served,
                                    const rago::core::EndToEndPerf& again) {
  constexpr double kRel = 1e-9;
  const bool ok = again.feasible && RelClose(served.ttft, again.ttft, kRel) &&
                  RelClose(served.tpot, again.tpot, kRel) &&
                  RelClose(served.qps, again.qps, kRel) &&
                  RelClose(served.qps_per_chip, again.qps_per_chip, kRel);
  return {"evaluate_reproduces_served_point", ok,
          Format("QPS/chip search %.9g vs Evaluate %.9g",
                 served.qps_per_chip, again.qps_per_chip) +
              Format(", TTFT %.9g vs %.9g", served.ttft, again.ttft)};
}

CheckResult CheckBaselineNotBetter(double baseline_best, double rago_best) {
  return {"baseline_not_better", baseline_best <= rago_best,
          Format("best QPS/chip baseline %.6g, RAGO %.6g", baseline_best,
                 rago_best)};
}

CheckResult CheckDigestsEqual(const std::string& what, uint64_t a,
                              uint64_t b) {
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "%016llx vs %016llx",
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return {what, a == b, buffer};
}

}  // namespace perfbench
