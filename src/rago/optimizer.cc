#include "rago/optimizer.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/math_util.h"
#include "common/pareto.h"
#include "common/thread_pool.h"

namespace rago::opt {
namespace {

using core::EndToEndPerf;
using core::Schedule;
using core::StagePerf;
using core::StagePerfProvider;
using core::StageType;

/// One pre-evaluated setting of a collocation group.
struct GroupOption {
  int chips = 1;
  int64_t batch = 1;
  double latency = 0.0;           ///< Sum of member stage latencies.
  double seconds_per_request = 0.0;  ///< Time-multiplexed 1/throughput.
  bool pilot = false;  ///< Its batch is on the pilot pass's coarse grid.
};

/// One pre-evaluated decode setting.
struct DecodeOption {
  int chips = 1;
  int64_t batch = 1;
  double latency = 0.0;  ///< Step latency.
  double throughput = 0.0;
  /// Upper bound on the request rate any schedule with this setting
  /// reaches (iterative stalls only lower it).
  double throughput_bound = 0.0;
  bool pilot = false;  ///< Its batch is on the pilot pass's coarse grid.
};

/// 3-objective dominance: fewer chips, lower latency, lower busy time.
bool DominatesOption(const GroupOption& a, const GroupOption& b) {
  const bool no_worse = a.chips <= b.chips && a.latency <= b.latency &&
                        a.seconds_per_request <= b.seconds_per_request;
  const bool better = a.chips < b.chips || a.latency < b.latency ||
                      a.seconds_per_request < b.seconds_per_request;
  return no_worse && better;
}

bool DominatesDecode(const DecodeOption& a, const DecodeOption& b) {
  const bool no_worse = a.chips <= b.chips && a.latency <= b.latency &&
                        a.throughput >= b.throughput;
  const bool better = a.chips < b.chips || a.latency < b.latency ||
                      a.throughput > b.throughput;
  return no_worse && better;
}

bool EqualObjectives(const GroupOption& a, const GroupOption& b) {
  return a.chips == b.chips && a.latency == b.latency &&
         a.seconds_per_request == b.seconds_per_request;
}

bool EqualObjectives(const DecodeOption& a, const DecodeOption& b) {
  return a.chips == b.chips && a.latency == b.latency &&
         a.throughput == b.throughput;
}

template <typename Option, typename Dom>
std::vector<Option> PruneOptions(std::vector<Option> options, Dom dominates) {
  std::vector<Option> kept;
  for (size_t i = 0; i < options.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < options.size() && !dominated; ++j) {
      if (i != j && dominates(options[j], options[i])) {
        dominated = true;
      }
    }
    // Keep only the first of objective-identical options.
    for (size_t j = 0; j < i && !dominated; ++j) {
      if (EqualObjectives(options[j], options[i])) {
        dominated = true;
      }
    }
    if (!dominated) {
      kept.push_back(options[i]);
    }
  }
  return kept;
}

/// The pilot pass of the branch-and-bound search enumerates only every
/// kPilotStride-th group and decode batch size (indexes 0, 5, 10, ...).
constexpr size_t kPilotStride = 5;

/// Key for memoized stage lookups.
uint64_t CacheKey(int a, int b, int64_t c) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 48) ^
         (static_cast<uint64_t>(static_cast<uint32_t>(b)) << 32) ^
         static_cast<uint64_t>(c);
}

/// A schedule frontier whose exact ties keep the Key()-smallest
/// schedule, so concurrent partial frontiers merge order-independently.
using ScheduleFront = OnlineParetoFront<Schedule>;

}  // namespace

const ScheduledPoint&
OptimizerResult::MaxQpsPerChip() const {
  RAGO_REQUIRE(!pareto.empty(), "empty Pareto frontier");
  const ScheduledPoint* best = &pareto.front();
  for (const ScheduledPoint& point : pareto) {
    if (point.perf.qps_per_chip > best->perf.qps_per_chip) {
      best = &point;
    }
  }
  return *best;
}

const ScheduledPoint&
OptimizerResult::MinTtft() const {
  RAGO_REQUIRE(!pareto.empty(), "empty Pareto frontier");
  const ScheduledPoint* best = &pareto.front();
  for (const ScheduledPoint& point : pareto) {
    if (point.perf.ttft < best->perf.ttft) {
      best = &point;
    }
  }
  return *best;
}

/// Memoizing stage-performance provider for serial evaluation paths
/// (SearchBaseline). Search() uses the index-keyed ProfileTable below
/// instead, which is populated in parallel and then read-only.
class MemoProvider {
 public:
  explicit MemoProvider(const core::PipelineModel& model) : model_(model) {}

  StagePerfProvider Provider() {
    StagePerfProvider provider;
    provider.chain = [this](StageType stage, int chips, int64_t batch) {
      const uint64_t key = CacheKey(static_cast<int>(stage), chips, batch);
      auto it = chain_.find(key);
      if (it == chain_.end()) {
        it = chain_.emplace(key, model_.EvalChainStage(stage, chips, batch))
                 .first;
      }
      return it->second;
    };
    provider.decode = [this](int chips, int64_t batch) {
      const uint64_t key = CacheKey(0, chips, batch);
      auto it = decode_.find(key);
      if (it == decode_.end()) {
        it = decode_.emplace(key, model_.EvalDecode(chips, batch)).first;
      }
      return it->second;
    };
    provider.retrieval = [this](int request_batch, int servers) {
      const uint64_t key = CacheKey(servers, 0, request_batch);
      auto it = retrieval_.find(key);
      if (it == retrieval_.end()) {
        it = retrieval_
                 .emplace(key, model_.EvalRetrieval(request_batch, servers))
                 .first;
      }
      return it->second;
    };
    provider.ingest = [this](int chips, int64_t batch) {
      const uint64_t key = CacheKey(1, chips, batch);
      auto it = ingest_.find(key);
      if (it == ingest_.end()) {
        it = ingest_.emplace(key, model_.EvalIngestPrefix(chips, batch))
                 .first;
      }
      return it->second;
    };
    return provider;
  }

 private:
  const core::PipelineModel& model_;
  std::unordered_map<uint64_t, StagePerf> chain_;
  std::unordered_map<uint64_t, StagePerf> decode_;
  std::unordered_map<uint64_t, StagePerf> retrieval_;
  std::unordered_map<uint64_t, StagePerf> ingest_;
};

Optimizer::Optimizer(const core::PipelineModel& model, SearchOptions options)
    : model_(model), options_(std::move(options)) {
  RAGO_REQUIRE(!options_.batch_sizes.empty(), "batch grid must be non-empty");
  RAGO_REQUIRE(!options_.decode_batch_sizes.empty(),
               "decode batch grid must be non-empty");
  RAGO_REQUIRE(options_.num_threads >= 0,
               "num_threads must be >= 0 (0 = hardware concurrency)");
}

int
Optimizer::Budget() const {
  return options_.max_total_xpus > 0 ? options_.max_total_xpus
                                     : model_.cluster().TotalXpus();
}

std::vector<std::vector<int>>
Optimizer::PlacementOptions() const {
  const size_t k = model_.chain().size();
  std::vector<std::vector<int>> placements;
  const uint32_t splits = k >= 1 ? (1u << (k - 1)) : 1u;
  for (uint32_t mask = 0; mask < splits; ++mask) {
    std::vector<int> groups(k, 0);
    int group = 0;
    for (size_t i = 1; i < k; ++i) {
      if (mask & (1u << (i - 1))) {
        ++group;  // Split between stage i-1 and i.
      }
      groups[i] = group;
    }
    placements.push_back(std::move(groups));
  }
  return placements;
}

std::string
Optimizer::PlacementLabel(const std::vector<int>& chain_group) const {
  const auto& chain = model_.chain();
  RAGO_REQUIRE(chain_group.size() == chain.size(),
               "placement size mismatch");
  std::string label;
  int current = -1;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain_group[i] != current) {
      if (current >= 0) {
        label += "]";
      }
      label += "[";
      current = chain_group[i];
    } else {
      label += "+";
    }
    label += core::StageName(chain[i]);
  }
  label += "]";
  return label;
}

OptimizerResult
Optimizer::Search() const {
  return Search(model_.LiveProvider());
}

OptimizerResult
Optimizer::Search(const StagePerfProvider& provider) const {
  RAGO_REQUIRE(provider.chain && provider.decode && provider.retrieval &&
                   provider.ingest,
               "stage-perf provider must supply all four lookups");
  const auto& chain = model_.chain();
  const bool iterative = model_.schema().IterativeRetrieval();
  const bool has_retrieval = model_.schema().retrieval_enabled;
  const int budget = std::min(Budget(), model_.cluster().TotalXpus());
  const int servers =
      has_retrieval ? std::min(model_.MinRetrievalServers(),
                               model_.cluster().num_servers)
                    : 1;

  const int num_threads = ResolveNumThreads(options_.num_threads);
  std::unique_ptr<ThreadPool> pool_storage;
  ThreadPool* pool = nullptr;
  if (num_threads > 1) {
    pool_storage = std::make_unique<ThreadPool>(num_threads);
    pool = pool_storage.get();
  }

  // -------------------------------------------------------------------
  // Step 1: profile every stage setting once, fanned out as
  // (stage x chips x batch) tasks into one index-keyed table (slots
  // make the result thread-count-invariant; PipelineModel evaluation is
  // const and thread-compatible). The table is read-only afterwards.
  // -------------------------------------------------------------------
  std::vector<int> chip_grid;  // chip_grid[i] == 1 << i, up to budget.
  for (int c = 1; c <= budget; c *= 2) {
    chip_grid.push_back(c);
  }
  const size_t kChips = chip_grid.size();
  const size_t kBatches = options_.batch_sizes.size();
  const size_t kDecodeBatches = options_.decode_batch_sizes.size();
  const size_t kStages = chain.size();

  const size_t n_chain = kStages * kChips * kBatches;
  const size_t n_decode = kChips * kDecodeBatches;
  const size_t n_retr = has_retrieval ? kBatches : 0;
  const size_t n_ingest = iterative ? kChips * kBatches : 0;
  std::vector<StagePerf> profiles(n_chain + n_decode + n_retr + n_ingest);
  ParallelFor(pool, profiles.size(), [&](size_t i) {
    if (i < n_chain) {
      const size_t s = i / (kChips * kBatches);
      const size_t rem = i % (kChips * kBatches);
      const size_t c = rem / kBatches;
      const size_t b = rem % kBatches;
      profiles[i] = provider.chain(chain[s], chip_grid[c],
                                   options_.batch_sizes[b]);
    } else if (i < n_chain + n_decode) {
      const size_t rem = i - n_chain;
      const size_t c = rem / kDecodeBatches;
      const size_t db = rem % kDecodeBatches;
      profiles[i] =
          provider.decode(chip_grid[c], options_.decode_batch_sizes[db]);
    } else if (i < n_chain + n_decode + n_retr) {
      const size_t b = i - n_chain - n_decode;
      profiles[i] = provider.retrieval(
          static_cast<int>(options_.batch_sizes[b]), servers);
    } else {
      const size_t rem = i - n_chain - n_decode - n_retr;
      const size_t c = rem / kBatches;
      const size_t b = rem % kBatches;
      profiles[i] =
          provider.ingest(chip_grid[c], options_.batch_sizes[b]);
    }
  });
  auto chain_perf = [&](size_t s, size_t c, size_t b) -> const StagePerf& {
    return profiles[(s * kChips + c) * kBatches + b];
  };
  auto decode_perf = [&](size_t c, size_t db) -> const StagePerf& {
    return profiles[n_chain + c * kDecodeBatches + db];
  };
  auto retr_perf = [&](size_t b) -> const StagePerf& {
    return profiles[n_chain + n_decode + b];
  };
  auto ingest_perf = [&](size_t c, size_t b) -> const StagePerf& {
    return profiles[n_chain + n_decode + n_retr + c * kBatches + b];
  };
  auto chip_index = [](int chips) {
    size_t idx = 0;
    while ((1 << idx) < chips) {
      ++idx;
    }
    return idx;
  };

  OptimizerResult result;

  // --- Pre-evaluated retrieval options (initial retrieval). ---
  struct RetrievalOption {
    int64_t batch = 1;
    double latency = 0.0;
    double request_throughput = std::numeric_limits<double>::infinity();
  };
  std::vector<RetrievalOption> retrieval_options;
  if (has_retrieval) {
    for (size_t b = 0; b < kBatches; ++b) {
      const StagePerf& perf = retr_perf(b);
      if (perf.feasible) {
        retrieval_options.push_back(RetrievalOption{
            options_.batch_sizes[b], perf.latency, perf.throughput});
      }
    }
    RAGO_REQUIRE(!retrieval_options.empty(),
                 "no feasible retrieval configuration");
  } else {
    retrieval_options.push_back(RetrievalOption{});
  }

  // --- Pre-evaluated iterative retrieval rounds (Case III). ---
  struct IterOption {
    int64_t batch = 1;
    size_t batch_idx = 0;  ///< Index into batch_sizes (ingest lookup).
    double retrieval_latency = 0.0;
  };
  std::vector<IterOption> iter_options = {IterOption{}};
  if (iterative) {
    iter_options.clear();
    for (size_t b = 0; b < kBatches; ++b) {
      const StagePerf& perf = retr_perf(b);
      if (perf.feasible) {
        iter_options.push_back(
            IterOption{options_.batch_sizes[b], b, perf.latency});
      }
    }
  }
  const int iter_rounds =
      iterative ? model_.schema().retrieval.retrievals_per_sequence - 1 : 0;
  const double retrieval_load =
      has_retrieval ? model_.schema().retrieval.retrievals_per_sequence : 1.0;
  const int retrieval_equiv =
      has_retrieval ? model_.RetrievalChipEquivalents(servers) : 0;
  const int decode_tokens = model_.schema().workload.decode_tokens;

  // Retrieval extremes for the subtree bounds: every schedule adds one
  // option's latency to its TTFT and one option's latency/batch to a
  // paused group's busy time, and is capped by one option's rate.
  double min_retrieval_latency = std::numeric_limits<double>::infinity();
  double min_retrieval_pause = std::numeric_limits<double>::infinity();
  double max_retrieval_throughput = 0.0;
  for (const RetrievalOption& retr : retrieval_options) {
    min_retrieval_latency = std::min(min_retrieval_latency, retr.latency);
    min_retrieval_pause = std::min(
        min_retrieval_pause, retr.latency / static_cast<double>(retr.batch));
    max_retrieval_throughput =
        std::max(max_retrieval_throughput, retr.request_throughput);
  }
  const double retrieval_rate_bound = max_retrieval_throughput / retrieval_load;

  // -------------------------------------------------------------------
  // Step 2 prep: per-placement option tables assembled from the profile
  // table (pure arithmetic; no model evaluation).
  // -------------------------------------------------------------------
  auto group_options_for = [&](const std::vector<int>& placement, int g) {
    std::vector<GroupOption> options;
    for (size_t c = 0; c < kChips; ++c) {
      for (size_t b = 0; b < kBatches; ++b) {
        GroupOption option;
        option.chips = chip_grid[c];
        option.batch = options_.batch_sizes[b];
        option.pilot = b % kPilotStride == 0;
        bool feasible = true;
        double mem = 0.0;
        for (size_t i = 0; i < kStages; ++i) {
          if (placement[i] != g) {
            continue;
          }
          const StagePerf& perf = chain_perf(i, c, b);
          if (!perf.feasible) {
            feasible = false;
            break;
          }
          option.latency += perf.latency;
          option.seconds_per_request += 1.0 / perf.throughput;
          mem += perf.mem_per_chip;
        }
        if (!feasible || mem > model_.cluster().xpu.hbm_bytes) {
          continue;
        }
        options.push_back(option);
      }
    }
    if (options_.per_stage_pareto_pruning) {
      options = PruneOptions(std::move(options), DominatesOption);
    }
    return options;
  };

  // --- Decode option table (placement-independent). ---
  std::vector<DecodeOption> decode_options;
  for (size_t c = 0; c < kChips; ++c) {
    for (size_t db = 0; db < kDecodeBatches; ++db) {
      const StagePerf& perf = decode_perf(c, db);
      if (!perf.feasible) {
        continue;
      }
      DecodeOption option;
      option.chips = chip_grid[c];
      option.batch = options_.decode_batch_sizes[db];
      option.latency = perf.latency;
      option.throughput = perf.throughput;
      option.throughput_bound =
          iterative ? static_cast<double>(option.batch) /
                          (decode_tokens * option.latency)
                    : option.throughput;
      option.pilot = db % kPilotStride == 0;
      decode_options.push_back(option);
    }
  }
  if (options_.per_stage_pareto_pruning) {
    decode_options = PruneOptions(std::move(decode_options), DominatesDecode);
  }

  /// One placement's enumeration subtree.
  struct EnumContext {
    const std::vector<int>* placement = nullptr;
    int groups = 0;
    int span_group = -1;
    std::vector<std::vector<GroupOption>> tables;
  };

  const std::vector<std::vector<int>> placements = PlacementOptions();
  std::vector<EnumContext> contexts;
  for (size_t p = 0; p < placements.size(); ++p) {
    if (options_.placement_filter >= 0 &&
        static_cast<size_t>(options_.placement_filter) != p) {
      continue;
    }
    const std::vector<int>& placement = placements[p];
    const int groups = placement.back() + 1;
    // Group that pauses for retrieval (collocated across the retrieval
    // point), or -1 when retrieval sits between disaggregated groups.
    const size_t after_retrieval =
        has_retrieval ? model_.PostRetrievalChainIndex() : 0;
    const int span_group =
        (has_retrieval && after_retrieval > 0 &&
         placement[after_retrieval] == placement[after_retrieval - 1])
            ? placement[after_retrieval]
            : -1;

    EnumContext ctx;
    ctx.placement = &placement;
    ctx.groups = groups;
    ctx.span_group = span_group;
    ctx.tables.resize(static_cast<size_t>(groups));
    bool runnable = true;  // Every group has a feasible option.
    for (int g = 0; g < groups && runnable; ++g) {
      std::vector<GroupOption>& table = ctx.tables[static_cast<size_t>(g)];
      table = group_options_for(placement, g);
      runnable = !table.empty();
    }
    if (runnable) {
      contexts.push_back(std::move(ctx));
    }
  }

  // -------------------------------------------------------------------
  // Steps 2-3: enumerate schedules. Work decomposes into independent
  // tasks — one per (context, first-group option[, second-group
  // option]) subtree — each building a thread-local frontier; the
  // partition only balances load, it cannot change the result because
  // the frontier reduction is order-independent (Schedule tie-break).
  // -------------------------------------------------------------------
  struct EnumTask {
    const EnumContext* ctx = nullptr;
    int i0 = -1;  ///< Index into ctx->tables[0].
    int i1 = -1;  ///< Index into ctx->tables[1]; -1 when groups == 1.
  };
  // The one budget prune, shared by task generation and the in-task
  // recursion so the partition boundary cannot drift from the
  // enumeration it splits: after granting `chips` to group `g`, every
  // remaining group and decode still need >= 1 chip each.
  auto within_budget = [budget](const EnumContext& ctx, int g,
                                int used_chips, int chips) {
    return used_chips + chips + (ctx.groups - g - 1) + 1 <= budget;
  };
  std::vector<EnumTask> tasks;
  for (const EnumContext& ctx : contexts) {
    const auto& t0 = ctx.tables[0];
    for (size_t i0 = 0; i0 < t0.size(); ++i0) {
      if (!within_budget(ctx, 0, 0, t0[i0].chips)) {
        continue;
      }
      if (ctx.groups >= 2) {
        const auto& t1 = ctx.tables[1];
        for (size_t i1 = 0; i1 < t1.size(); ++i1) {
          if (!within_budget(ctx, 1, t0[i0].chips, t1[i1].chips)) {
            continue;
          }
          tasks.push_back(EnumTask{&ctx, static_cast<int>(i0),
                                   static_cast<int>(i1)});
        }
      } else {
        tasks.push_back(EnumTask{&ctx, static_cast<int>(i0), -1});
      }
    }
  }

  /// Thread-local accumulation of one enumeration task.
  struct TaskResult {
    ScheduleFront front;
    std::map<std::string, ScheduleFront> plan_fronts;
    int64_t evaluated = 0;
    int64_t feasible = 0;
    int64_t pruned = 0;
  };
  std::vector<TaskResult> slots(tasks.size());

  /// Chain terms of one group assignment, shared by every decode,
  /// retrieval and iterative choice below it.
  struct ChainSums {
    double latency = 0.0;
    /// Rate of the groups unaffected by the retrieval pause.
    double fixed_throughput = std::numeric_limits<double>::infinity();
    /// Busy time of the (single) group that pauses for retrieval.
    double span_spr = 0.0;
  };

  auto run_combination = [&](const EnumContext& ctx,
                             const std::vector<GroupOption>& chosen,
                             const ChainSums& sums, int used_chips,
                             const DecodeOption& decode, TaskResult& local) {
    const int prefix_chips = chosen.back().chips;  // Prefix: last group.
    const size_t prefix_chip_idx = chip_index(prefix_chips);
    const int chip_equiv =
        std::max(used_chips + decode.chips, retrieval_equiv);

    auto make_schedule = [&](const RetrievalOption& retr,
                             const IterOption& iter) {
      Schedule schedule;
      schedule.chain_group = *ctx.placement;
      schedule.group_chips.resize(static_cast<size_t>(ctx.groups));
      schedule.chain_batch.resize(kStages);
      for (int g = 0; g < ctx.groups; ++g) {
        schedule.group_chips[static_cast<size_t>(g)] =
            chosen[static_cast<size_t>(g)].chips;
      }
      for (size_t i = 0; i < kStages; ++i) {
        schedule.chain_batch[i] =
            chosen[static_cast<size_t>((*ctx.placement)[i])].batch;
      }
      schedule.decode_chips = decode.chips;
      schedule.decode_batch = decode.batch;
      schedule.retrieval_servers = servers;
      schedule.retrieval_batch = retr.batch;
      schedule.iterative_batch = iter.batch;
      return schedule;
    };

    std::string plan_label;
    ScheduleFront* plan_front = nullptr;  // Looked up on first offer.
    if (options_.keep_plan_frontiers) {
      plan_label = PlacementLabel(*ctx.placement) + " chips=";
      for (int g = 0; g < ctx.groups; ++g) {
        plan_label += std::to_string(chosen[static_cast<size_t>(g)].chips) +
                      (g + 1 < ctx.groups ? "," : "");
      }
      plan_label += " dec=" + std::to_string(decode.chips);
    }

    for (const RetrievalOption& retr : retrieval_options) {
      const double ttft = sums.latency + retr.latency;
      double chain_throughput = sums.fixed_throughput;
      if (ctx.span_group >= 0) {
        const double paused_spr =
            sums.span_spr + retr.latency / static_cast<double>(retr.batch);
        chain_throughput = std::min(chain_throughput, 1.0 / paused_spr);
      }
      for (const IterOption& iter : iter_options) {
        ++local.evaluated;
        double decode_throughput = decode.throughput;
        if (iterative) {
          const StagePerf& ingest =
              ingest_perf(prefix_chip_idx, iter.batch_idx);
          if (!ingest.feasible) {
            continue;
          }
          decode_throughput =
              core::IterativeDecodeStall(decode.batch, iter_rounds,
                                         decode_tokens, decode.latency,
                                         iter.batch, iter.retrieval_latency,
                                         ingest.latency)
                  .decode_request_rate;
        }
        const double qps =
            std::min({chain_throughput,
                      retr.request_throughput / retrieval_load,
                      decode_throughput});
        const double qpc = qps / chip_equiv;
        ++local.feasible;
        if (local.front.WouldAccept(ttft, qpc)) {
          local.front.Offer(ttft, qpc, make_schedule(retr, iter));
        }
        if (options_.keep_plan_frontiers) {
          if (plan_front == nullptr) {
            plan_front = &local.plan_fronts[plan_label];
          }
          if (plan_front->WouldAccept(ttft, qpc)) {
            plan_front->Offer(ttft, qpc, make_schedule(retr, iter));
          }
        }
      }
    }
  };

  // Branch and bound. Each group assignment (leaf) and each decode
  // option under it gets an admissible TTFT lower bound and QPS/Chip
  // upper bound, computed with the same operations as run_combination
  // so every schedule below is no better than the bound bit for bit.
  // A subtree is skipped only when a real schedule already seen
  // strictly dominates its bound; then it holds no frontier point and
  // no objective tie of one, so the frontier (points and tie-broken
  // schedules) is exactly the exhaustive one. Per-plan frontiers need
  // every point, so keep_plan_frontiers enumerates exhaustively.
  const bool branch_and_bound = !options_.keep_plan_frontiers;

  /// Decode settings that fit a remaining chip budget: entry r covers
  /// the options with chips <= r.
  struct DecodeReach {
    int min_chips = std::numeric_limits<int>::max();  ///< None fits.
    double max_throughput_bound = 0.0;
  };
  auto decode_reach = [&](bool pilot) {
    std::vector<DecodeReach> reach(static_cast<size_t>(budget) + 1);
    for (const DecodeOption& decode : decode_options) {
      if (pilot && !decode.pilot) {
        continue;
      }
      for (int r = decode.chips; r <= budget; ++r) {
        DecodeReach& entry = reach[static_cast<size_t>(r)];
        entry.min_chips = std::min(entry.min_chips, decode.chips);
        entry.max_throughput_bound =
            std::max(entry.max_throughput_bound, decode.throughput_bound);
      }
    }
    return reach;
  };
  const std::vector<DecodeReach> full_reach = decode_reach(false);
  const std::vector<DecodeReach> pilot_reach =
      branch_and_bound ? decode_reach(true) : std::vector<DecodeReach>{};

  // Enumerates one task's subtree. The pilot pass keeps only options
  // on the coarse batch grid; `seed` (the merged pilot frontier, or
  // null) prunes alongside the task's own front. Both hold only
  // evaluated schedules and depend on the task alone, so the counters
  // are thread-count-invariant.
  auto run_task = [&](const EnumTask& task, bool pilot,
                      const ScheduleFront* seed, TaskResult& local) {
    const EnumContext& ctx = *task.ctx;
    const GroupOption& first = ctx.tables[0][static_cast<size_t>(task.i0)];
    const GroupOption* second =
        task.i1 >= 0 ? &ctx.tables[1][static_cast<size_t>(task.i1)] : nullptr;
    if (pilot && (!first.pilot || (second != nullptr && !second->pilot))) {
      return;
    }
    const std::vector<DecodeReach>& reach = pilot ? pilot_reach : full_reach;
    auto rejects = [&](double ttft_bound, double qpc_bound) {
      return !local.front.WouldAccept(ttft_bound, qpc_bound) ||
             (seed != nullptr && !seed->WouldAccept(ttft_bound, qpc_bound));
    };

    std::vector<GroupOption> chosen(static_cast<size_t>(ctx.groups));
    chosen[0] = first;
    int used = first.chips;
    int start = 1;
    if (second != nullptr) {
      chosen[1] = *second;
      used += second->chips;
      start = 2;
    }

    auto leaf = [&](int used_chips) {
      ChainSums sums;
      for (int g = 0; g < ctx.groups; ++g) {
        const GroupOption& option = chosen[static_cast<size_t>(g)];
        sums.latency += option.latency;
        if (g == ctx.span_group) {
          sums.span_spr = option.seconds_per_request;
        } else {
          sums.fixed_throughput = std::min(sums.fixed_throughput,
                                           1.0 / option.seconds_per_request);
        }
      }
      const DecodeReach& fit = reach[static_cast<size_t>(budget - used_chips)];
      if (fit.min_chips == std::numeric_limits<int>::max()) {
        return;  // No decode option fits the remaining chips.
      }
      const double ttft_bound = sums.latency + min_retrieval_latency;
      double rate_bound = std::min(sums.fixed_throughput, retrieval_rate_bound);
      if (ctx.span_group >= 0) {
        rate_bound = std::min(rate_bound,
                              1.0 / (sums.span_spr + min_retrieval_pause));
      }
      if (branch_and_bound &&
          rejects(ttft_bound,
                  std::min(rate_bound, fit.max_throughput_bound) /
                      std::max(used_chips + fit.min_chips, retrieval_equiv))) {
        ++local.pruned;
        return;
      }
      for (const DecodeOption& decode : decode_options) {
        if ((pilot && !decode.pilot) || used_chips + decode.chips > budget) {
          continue;
        }
        if (branch_and_bound &&
            rejects(ttft_bound,
                    std::min(rate_bound, decode.throughput_bound) /
                        std::max(used_chips + decode.chips, retrieval_equiv))) {
          ++local.pruned;
          continue;
        }
        run_combination(ctx, chosen, sums, used_chips, decode, local);
      }
    };
    auto recurse = [&](auto& self, int g, int used_chips) -> void {
      if (g == ctx.groups) {
        leaf(used_chips);
        return;
      }
      for (const GroupOption& option : ctx.tables[static_cast<size_t>(g)]) {
        if ((pilot && !option.pilot) ||
            !within_budget(ctx, g, used_chips, option.chips)) {
          continue;
        }
        chosen[static_cast<size_t>(g)] = option;
        self(self, g + 1, used_chips + option.chips);
      }
    };
    recurse(recurse, start, used);
  };

  // Pilot pass: the same tasks over the coarse batch grid. Its points
  // are real schedules of the full space, computed by the same
  // arithmetic, so the merged pilot frontier is a sound seed bound.
  ScheduleFront seed;
  if (branch_and_bound) {
    ParallelFor(pool, tasks.size(), [&](size_t t) {
      run_task(tasks[t], /*pilot=*/true, nullptr, slots[t]);
    });
    for (TaskResult& slot : slots) {
      seed.Merge(std::move(slot.front));
    }
  }
  ParallelFor(pool, tasks.size(), [&](size_t t) {
    run_task(tasks[t], /*pilot=*/false, branch_and_bound ? &seed : nullptr,
             slots[t]);
  });
  for (const TaskResult& slot : slots) {
    result.schedules_evaluated += slot.evaluated;
    result.schedules_feasible += slot.feasible;
    result.subtrees_pruned += slot.pruned;
  }

  // --- Order-independent reduction of per-task frontiers. ---
  ScheduleFront front;
  std::map<std::string, ScheduleFront> plan_fronts;
  for (TaskResult& slot : slots) {
    front.Merge(std::move(slot.front));
    for (auto& [label, plan_front] : slot.plan_fronts) {
      plan_fronts[label].Merge(std::move(plan_front));
    }
  }

  // --- Final Pareto frontier, re-evaluated through the canonical
  // assembly with the same provider so the reported metrics come from
  // one cost source (measured costs change the report, not just the
  // ranking). ---
  auto finalize = [&](std::vector<ParetoPoint<Schedule>> raw) {
    std::vector<ParetoPoint<ScheduledPoint>> rescored;
    rescored.reserve(raw.size());
    for (auto& point : raw) {
      const EndToEndPerf perf = model_.EvaluateWith(point.payload, provider);
      RAGO_CHECK(perf.feasible, "frontier schedule must be feasible");
      ParetoPoint<ScheduledPoint> out;
      out.latency = perf.ttft;
      out.throughput = perf.qps_per_chip;
      out.payload = ScheduledPoint{std::move(point.payload), perf};
      rescored.push_back(std::move(out));
    }
    std::vector<ScheduledPoint> frontier;
    for (auto& point : ParetoFrontier(std::move(rescored))) {
      frontier.push_back(std::move(point.payload));
    }
    return frontier;
  };

  result.pareto = finalize(front.Take());
  if (options_.keep_plan_frontiers) {
    // std::map iteration gives the label-sorted order directly.
    for (auto& [label, plan_front] : plan_fronts) {
      PlanFrontier frontier;
      frontier.plan_label = label;
      frontier.points = finalize(plan_front.Take());
      result.plan_frontiers.push_back(std::move(frontier));
    }
  }
  return result;
}

OptimizerResult
Optimizer::SearchBaseline() const {
  // Paper §7.1: every auxiliary stage collocated with the main-LLM
  // prefix; prefix:decode chips 1:1 (time consumption is within
  // 1.2-1.4:1 across the 8B/70B models); batching policies tuned.
  const auto& chain = model_.chain();
  const bool has_retrieval = model_.schema().retrieval_enabled;
  const int budget = Budget();
  const int servers =
      has_retrieval ? std::min(model_.MinRetrievalServers(),
                               model_.cluster().num_servers)
                    : 1;
  const int half = std::max(1, budget / 2);

  MemoProvider memo(model_);
  const StagePerfProvider provider = memo.Provider();

  OptimizerResult result;
  std::vector<ParetoPoint<ScheduledPoint>> points;

  std::vector<int64_t> iter_batches = {1};
  if (model_.schema().IterativeRetrieval()) {
    iter_batches = options_.batch_sizes;
  }
  std::vector<int64_t> retrieval_batches =
      has_retrieval ? options_.batch_sizes : std::vector<int64_t>{1};

  Schedule schedule;
  schedule.chain_group.assign(chain.size(), 0);
  schedule.group_chips = {half};
  schedule.chain_batch.assign(chain.size(), 1);
  schedule.decode_chips = half;
  schedule.retrieval_servers = servers;

  for (int64_t batch : options_.batch_sizes) {
    std::fill(schedule.chain_batch.begin(), schedule.chain_batch.end(),
              batch);
    for (int64_t decode_batch : options_.decode_batch_sizes) {
      schedule.decode_batch = decode_batch;
      for (int64_t retrieval_batch : retrieval_batches) {
        schedule.retrieval_batch = retrieval_batch;
        for (int64_t iter_batch : iter_batches) {
          schedule.iterative_batch = iter_batch;
          ++result.schedules_evaluated;
          const EndToEndPerf perf = model_.EvaluateWith(schedule, provider);
          if (!perf.feasible) {
            continue;
          }
          ++result.schedules_feasible;
          ParetoPoint<ScheduledPoint> point;
          point.latency = perf.ttft;
          point.throughput = perf.qps_per_chip;
          point.payload = ScheduledPoint{schedule, perf};
          points.push_back(point);
        }
      }
    }
  }

  points = ParetoFrontier(std::move(points));
  for (auto& point : points) {
    result.pareto.push_back(std::move(point.payload));
  }
  return result;
}

}  // namespace rago::opt
