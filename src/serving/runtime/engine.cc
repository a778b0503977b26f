#include "serving/runtime/engine.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/fnv.h"
#include "core/stage.h"

namespace rago::runtime {
namespace {

using core::StageType;

constexpr size_t kNoStage = std::numeric_limits<size_t>::max();
/// Queue-depth/utilization counter samples each stage emits to the
/// trace (one per enqueue and one per batch start, first ones kept).
constexpr int kMaxCounterSamplesPerStage = 4096;

/// One request waiting in a stage queue.
struct QueueEntry {
  int id = 0;
  double enqueued = 0.0;  ///< Virtual time it entered this queue.
};

/// One pipeline stage instantiated for execution.
struct ExecStage {
  StageType type = StageType::kPrefix;
  int server = 0;
  int64_t batch = 1;
  double latency = 0.0;   ///< Virtual completion time of one batch.
  /// Virtual server occupancy per batch. Pipeline-parallel plans
  /// overlap batches, so this initiation interval (batch / stage
  /// throughput) can be shorter than the completion latency.
  double interval = 0.0;
  std::deque<QueueEntry> queue;
  /// Members of each started, unfinished batch, oldest first; a
  /// stage-done event completes the oldest.
  std::deque<std::vector<int>> in_flight;
  double oldest_enqueue = 0.0;
  /// Time of the last flush deadline pushed for this stage.
  double armed_deadline = -std::numeric_limits<double>::infinity();
  /// Trace counter tracks: names and samples emitted so far.
  std::string depth_counter;
  std::string utilization_counter;
  int counter_samples = 0;
};

/// Scheduler event; kind ascending breaks time ties (arrivals first),
/// then payload ascending so simultaneous events pop in a fixed order
/// on every standard library, keeping outcomes platform-reproducible,
/// not just run-reproducible. The (time, kind, payload) tie-break
/// covers cache-hit deliveries too: simultaneous hits (e.g. a burst of
/// hot queries) carry their request id as the payload, so the order
/// results enter the post-retrieval stage — and therefore the outcome
/// digest — never depends on anything but the trace.
struct Event {
  double time = 0.0;
  int kind = 0;  // 0 = arrival, 1 = stage-done, 2 = flush, 3 = step,
                 // 4 = cache-hit delivery.
  int a = 0;     // arrival/cache-hit: request id; stage-done/flush:
                 // stage index.

  friend bool operator>(const Event& lhs, const Event& rhs) {
    if (lhs.time != rhs.time) {
      return lhs.time > rhs.time;
    }
    if (lhs.kind != rhs.kind) {
      return lhs.kind > rhs.kind;
    }
    return lhs.a > rhs.a;
  }
};

/// Run-level aggregates of a drained run (id order: independent of
/// event order).
void Aggregate(double decode_busy_time, RuntimeResult& result) {
  result.throughput = static_cast<double>(result.completed) /
                      std::max(result.makespan, 1e-12);
  int64_t within_slo = 0;
  double hit_fraction_total = 0.0;
  for (RequestOutcome& outcome : result.requests) {
    if (!outcome.admitted) {
      continue;
    }
    RAGO_CHECK(outcome.ttft >= 0 && outcome.completion >= 0,
               "admitted request did not finish");
    result.ttft.Add(outcome.ttft);
    result.tpot.Add(outcome.tpot);
    result.queue_wait.Add(outcome.queue_wait);
    within_slo += outcome.slo_ok ? 1 : 0;
    hit_fraction_total += outcome.prefix_hit_fraction;
  }
  result.slo_attainment =
      static_cast<double>(within_slo) /
      static_cast<double>(result.submitted);
  for (StageTelemetry& telemetry : result.stages) {
    telemetry.utilization =
        telemetry.busy_seconds / std::max(result.makespan, 1e-12);
  }
  result.decode_utilization =
      decode_busy_time / std::max(result.makespan, 1e-12);
  result.measured_prefix_hit_rate =
      result.admitted > 0
          ? hit_fraction_total / static_cast<double>(result.admitted)
          : 0.0;
}

/// Folds every request outcome (id order) and the cache counters into
/// the digest the retrieval folds started.
uint64_t FinishDigest(uint64_t digest, const RuntimeResult& result) {
  for (const RequestOutcome& outcome : result.requests) {
    digest = FnvFold(digest, uint64_t{outcome.admitted});
    digest = FnvFold(digest, FloatBits(outcome.ttft));
    digest = FnvFold(digest, FloatBits(outcome.tpot));
    digest = FnvFold(digest, FloatBits(outcome.completion));
    digest = FnvFold(digest, static_cast<uint64_t>(outcome.first_neighbor));
    digest = FnvFold(digest, uint64_t{outcome.retrieval_cache_hit});
    digest = FnvFold(digest, FloatBits(outcome.prefix_hit_fraction));
  }
  for (const cache::CacheCounters* counters :
       {&result.retrieval_cache, &result.doc_cache}) {
    digest = FnvFold(digest, static_cast<uint64_t>(counters->hits));
    digest = FnvFold(digest, static_cast<uint64_t>(counters->misses));
    digest = FnvFold(digest, static_cast<uint64_t>(counters->evictions));
    digest = FnvFold(digest, static_cast<uint64_t>(counters->insertions));
  }
  return FnvFold(digest, FloatBits(result.measured_prefix_hit_rate));
}

/// Metrics export: reads the finished result only, so it can never
/// perturb it.
void ExportMetrics(const RuntimeResult& result, MetricsRegistry& metrics) {
  metrics.GetCounter("runtime.requests_submitted").Inc(result.submitted);
  metrics.GetCounter("runtime.requests_admitted").Inc(result.admitted);
  metrics.GetCounter("runtime.requests_rejected").Inc(result.rejected);
  metrics.GetCounter("runtime.requests_completed").Inc(result.completed);
  int64_t batches = 0;
  int64_t full_batches = 0;
  for (const StageTelemetry& telemetry : result.stages) {
    batches += telemetry.batches;
    full_batches += telemetry.full_batches;
  }
  metrics.GetCounter("runtime.batches_flushed").Inc(batches);
  metrics.GetCounter("runtime.full_batches").Inc(full_batches);
  metrics.GetCounter("runtime.retrieval_cache_hits")
      .Inc(result.retrieval_cache.hits);
  metrics.GetCounter("runtime.retrieval_cache_misses")
      .Inc(result.retrieval_cache.misses);
  metrics.GetGauge("runtime.throughput_rps").Set(result.throughput);
  metrics.GetGauge("runtime.makespan_seconds").Set(result.makespan);
  metrics.GetGauge("runtime.slo_attainment").Set(result.slo_attainment);
  metrics.GetGauge("runtime.decode_utilization")
      .Set(result.decode_utilization);
  metrics.GetGauge("runtime.measured_prefix_hit_rate")
      .Set(result.measured_prefix_hit_rate);
  StreamingHistogram& ttft_hist = metrics.GetHistogram("runtime.ttft_seconds");
  StreamingHistogram& tpot_hist = metrics.GetHistogram("runtime.tpot_seconds");
  StreamingHistogram& wait_hist =
      metrics.GetHistogram("runtime.queue_wait_seconds");
  for (const RequestOutcome& outcome : result.requests) {
    if (!outcome.admitted) {
      continue;
    }
    ttft_hist.Add(outcome.ttft);
    tpot_hist.Add(outcome.tpot);
    wait_hist.Add(outcome.queue_wait);
  }
}

}  // namespace

void
RuntimeOptions::Validate() const {
  RAGO_REQUIRE(admission_queue_limit > 0,
               "admission_queue_limit must be positive");
  RAGO_REQUIRE(batch_timeout >= 0, "batch_timeout must be non-negative");
  RAGO_REQUIRE(num_threads >= 0,
               "num_threads must be >= 0 (0 = hardware concurrency)");
  RAGO_REQUIRE(top_k >= 1, "top_k must be >= 1");
  RAGO_REQUIRE(slo.ttft_seconds > 0 && slo.tpot_seconds > 0,
               "SLO targets must be positive");
  RAGO_REQUIRE(alerts == nullptr || timeseries != nullptr,
               "burn-rate alerting requires a telemetry time-series");
  cache.Validate();
}

RuntimeResult
RunServingEngine(const core::PipelineModel& model,
                 const core::Schedule& schedule,
                 const RuntimeOptions& options, const ArrivalTrace& workload,
                 const std::string& label, const RetrievalHook& retrieve,
                 const std::vector<uint64_t>& fingerprints) {
  options.Validate();
  RAGO_REQUIRE(!workload.arrivals.empty(), "empty arrival trace");
  RAGO_REQUIRE(!model.schema().IterativeRetrieval(),
               "iterative retrieval is not supported by the serving "
               "engine (use SimulateIterativeDecode)");
  schedule.Validate(model.chain().size());

  // --- Instantiate the stage graph with model-priced service times. ---
  const auto& chain = model.chain();
  std::vector<ExecStage> stages;
  const int retrieval_server = schedule.NumGroups();
  size_t retrieval_stage_index = kNoStage;
  size_t prefix_stage_index = kNoStage;
  int prefix_chips = 0;
  size_t chain_index = 0;
  for (StageType type : model.schema().AllStages()) {
    if (type == StageType::kDecode) {
      continue;  // Decode runs in the continuous-batching pool below.
    }
    ExecStage stage;
    stage.type = type;
    if (type == StageType::kRetrieval) {
      retrieval_stage_index = stages.size();
      stage.server = retrieval_server;
      stage.batch = schedule.retrieval_batch;
      const int64_t queries =
          stage.batch * model.schema().retrieval.queries_per_retrieval;
      if (options.retrieval_model != nullptr) {
        const retrieval::RetrievalCost cost =
            options.retrieval_model->Search(queries);
        stage.latency = cost.latency;
        stage.interval = static_cast<double>(queries) / cost.throughput;
      } else {
        const core::StagePerf perf = model.EvalRetrieval(
            static_cast<int>(stage.batch), schedule.retrieval_servers);
        RAGO_REQUIRE(perf.feasible, "retrieval infeasible under schedule");
        stage.latency = perf.latency;
        stage.interval =
            static_cast<double>(stage.batch) / perf.throughput;
      }
    } else {
      RAGO_CHECK(chain_index < chain.size(), "chain/stage walk mismatch");
      const int group = schedule.chain_group[chain_index];
      stage.server = group;
      stage.batch = schedule.chain_batch[chain_index];
      const core::StagePerf perf = model.EvalChainStage(
          type, schedule.group_chips[static_cast<size_t>(group)],
          stage.batch);
      RAGO_REQUIRE(perf.feasible, "stage infeasible under schedule");
      stage.latency = perf.latency;
      stage.interval = static_cast<double>(stage.batch) / perf.throughput;
      if (type == StageType::kPrefix) {
        prefix_stage_index = stages.size();
        prefix_chips = schedule.group_chips[static_cast<size_t>(group)];
      }
      ++chain_index;
    }
    stages.push_back(std::move(stage));
  }
  const int num_servers = retrieval_server + 1;
  // Cache hits are delivered into the stage after retrieval.
  RAGO_CHECK(retrieval_stage_index == kNoStage ||
                 retrieval_stage_index + 1 < stages.size(),
             "retrieval must precede another pre-decode stage");

  // Step cadence: the pool emits `batch` tokens per step and sustains
  // the plan's request throughput (pipeline-parallel plans interleave
  // batches, so the cadence can beat the raw step latency).
  const core::StagePerf decode_perf =
      model.EvalDecode(schedule.decode_chips, schedule.decode_batch);
  RAGO_REQUIRE(decode_perf.feasible, "decode infeasible under schedule");
  const int decode_tokens = model.schema().workload.decode_tokens;
  const double step_latency =
      static_cast<double>(schedule.decode_batch) /
      (decode_perf.throughput * decode_tokens);

  // --- Serving state. ---
  RuntimeResult result;
  result.submitted = static_cast<int64_t>(workload.arrivals.size());
  result.requests.resize(workload.arrivals.size());
  for (size_t i = 0; i < workload.arrivals.size(); ++i) {
    result.requests[i].arrival = workload.arrivals[i];
  }
  result.stages.resize(stages.size());
  for (size_t s = 0; s < stages.size(); ++s) {
    result.stages[s].type = stages[s].type;
    result.stages[s].server = stages[s].server;
  }
  result.server_busy_seconds.assign(static_cast<size_t>(num_servers), 0.0);

  // --- Span tracing (opt-in, observation-only: appends never feed
  // back into scheduling, so the digest is invariant to `trace`). ---
  obs::TraceRecorder* trace = options.trace;
  const int decode_row = num_servers;
  if (trace != nullptr) {
    trace->SetProcessName(0, "servers");
    trace->SetProcessName(1, "requests");
    for (int g = 0; g < schedule.NumGroups(); ++g) {
      trace->SetThreadName(0, g, "xpu group " + std::to_string(g));
    }
    trace->SetThreadName(0, retrieval_server, "retrieval servers");
    trace->SetThreadName(0, decode_row, "decode pool");
    for (size_t s = 0; s < stages.size(); ++s) {
      const std::string name = std::string(core::StageName(stages[s].type)) +
                               " s" + std::to_string(s);
      stages[s].depth_counter = "queue-depth: " + name;
      stages[s].utilization_counter = "utilization: " + name;
    }
  }

  // --- Windowed telemetry, burn-rate alerting, flight recorder (all
  // opt-in, observation-only, and driven on the virtual clock from the
  // serial loop, so every surface is thread-count invariant). ---
  obs::TelemetryTimeSeries* series = options.timeseries;
  obs::SloAlertEngine* alerts = options.alerts;
  obs::FlightRecorder* flight = options.flight;
  const int alert_row = decode_row + 1;
  if (trace != nullptr && alerts != nullptr) {
    trace->SetThreadName(0, alert_row, "slo alerts");
  }
  if (flight != nullptr) {
    flight->Append(0.0, "note",
                   label + " begin: " + std::to_string(result.submitted) +
                       " requests");
  }

  // --- Cache tier (per call: each call's cache state is a pure
  // function of the trace + fingerprints). ---
  cache::LruRetrievalCache retrieval_cache(options.cache.retrieval_capacity);
  cache::LruDocCache doc_cache(options.cache.doc_capacity);
  RAGO_REQUIRE(!retrieval_cache.enabled() ||
                   fingerprints.size() == workload.arrivals.size(),
               "the retrieval cache needs one fingerprint per request");
  // Measured-hit-rate prefix pricing, memoized per distinct rate (an
  // ordered map: iteration order never matters, lookups are exact).
  std::map<double, std::pair<double, double>> prefix_price_memo;
  auto price_prefix = [&](double rate) {
    auto it = prefix_price_memo.find(rate);
    if (it == prefix_price_memo.end()) {
      const int64_t batch = stages[prefix_stage_index].batch;
      const core::StagePerf perf =
          model.EvalPrefixCached(prefix_chips, batch, rate);
      RAGO_REQUIRE(perf.feasible,
                   "prefix infeasible at measured cache hit rate");
      it = prefix_price_memo
               .emplace(rate, std::make_pair(perf.latency,
                                             static_cast<double>(batch) /
                                                 perf.throughput))
               .first;
    }
    return it->second;
  };

  std::vector<double> server_busy_until(static_cast<size_t>(num_servers),
                                        0.0);
  std::deque<int> decode_waiting;
  struct ActiveSeq {
    int id = 0;
    int tokens = 0;
  };
  std::vector<ActiveSeq> decode_active;
  double decode_busy_time = 0.0;
  bool step_scheduled = false;
  uint64_t digest = kFnvOffset;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
      events;
  for (size_t i = 0; i < workload.arrivals.size(); ++i) {
    events.push(Event{workload.arrivals[i], 0, static_cast<int>(i)});
  }

  double now = 0.0;

  // Feeds every closed fine window to the flight recorder and the
  // alert engine; alert transitions become trace instants and flight
  // records.
  auto drain_telemetry_windows = [&]() {
    for (const obs::WindowSummary& window : series->DrainClosed()) {
      const double end = window.start + window.span;
      if (flight != nullptr && (window.offered > 0 || window.completed > 0)) {
        flight->Append(end, "window",
                       "offered=" + std::to_string(window.offered) +
                           " completed=" + std::to_string(window.completed) +
                           " rejected=" + std::to_string(window.rejected),
                       window.attainment);
      }
      if (alerts == nullptr) {
        continue;
      }
      for (const obs::AlertTransition& transition :
           alerts->Observe(window)) {
        const std::string& rule_name =
            alerts->options()
                .rules[static_cast<size_t>(transition.rule)]
                .name;
        if (flight != nullptr) {
          flight->Append(transition.time, "alert",
                         rule_name +
                             (transition.firing ? " firing" : " clear"),
                         transition.short_burn);
        }
        if (trace != nullptr) {
          obs::TraceEvent& instant = trace->AddInstant(
              "alert:" + rule_name +
                  (transition.firing ? ":firing" : ":clear"),
              "alert", 0, alert_row, transition.time);
          instant.args.emplace_back("short_burn", transition.short_burn);
          instant.args.emplace_back("long_burn", transition.long_burn);
        }
      }
    }
  };

  // Samples stage `s`'s queue depth into the windowed telemetry and,
  // for its first kMaxCounterSamplesPerStage samples, into the trace's
  // Chrome "C" counter tracks (queue depth and busy fraction so far).
  auto record_timeline = [&](size_t s) {
    ExecStage& stage = stages[s];
    if (series != nullptr) {
      series->RecordQueueDepth(now, static_cast<int>(s),
                               static_cast<int64_t>(stage.queue.size()));
    }
    if (trace == nullptr ||
        stage.counter_samples >= kMaxCounterSamplesPerStage) {
      return;
    }
    ++stage.counter_samples;
    trace->AddCounter(stage.depth_counter, "telemetry", 0,
                      static_cast<int>(s), now,
                      static_cast<double>(stage.queue.size()));
    trace->AddCounter(stage.utilization_counter, "telemetry", 0,
                      static_cast<int>(s), now,
                      now > 0.0 ? result.stages[s].busy_seconds / now : 0.0);
  };

  // Folds one request's retrieved neighbor lists into the digest and
  // outcome, measures its documents against the KV cache, and admits
  // them. Shared by the scan and cache-hit delivery paths so the two
  // are byte-for-byte interchangeable in the digest.
  auto record_retrieval = [&](int id, const Retrieved& per_query) {
    RequestOutcome& outcome = result.requests[static_cast<size_t>(id)];
    digest = FnvFold(digest, static_cast<uint64_t>(id));
    std::vector<int64_t> doc_ids;
    for (size_t q = 0; q < per_query.size(); ++q) {
      for (const ann::Neighbor& neighbor : per_query[q]) {
        digest = FnvFold(digest, static_cast<uint64_t>(neighbor.id));
        // Widened: the digest folds every field as an 8-byte word.
        digest = FnvFold(digest, uint64_t{FloatBits(neighbor.dist)});
        if (doc_cache.enabled()) {
          doc_ids.push_back(neighbor.id);
        }
      }
      if (q == 0 && !per_query[q].empty()) {
        outcome.first_neighbor = per_query[q].front().id;
      }
    }
    if (doc_cache.enabled()) {
      outcome.prefix_hit_fraction = doc_cache.MeasureAndAdmit(doc_ids);
    }
  };

  // Runs the hook for one retrieval batch and records each member's
  // neighbors. Virtual time is unaffected: the batch stays model-priced.
  auto run_retrieval = [&](const std::vector<int>& members) {
    std::vector<Retrieved> found = retrieve(members, result);
    RAGO_CHECK(found.size() == members.size(),
               "retrieval hook must answer every batch member");
    for (size_t i = 0; i < members.size(); ++i) {
      record_retrieval(members[i], found[i]);
      if (retrieval_cache.enabled()) {
        retrieval_cache.Insert(
            fingerprints[static_cast<size_t>(members[i])],
            cache::CachedRetrieval{std::move(found[i])});
      }
    }
  };

  // Pushes stage `s`'s flush deadline unless it equals the last one
  // armed. A stage's deadlines never decrease (oldest_enqueue only
  // moves to `now`, and a re-arm always lies after `now`), so an equal
  // time is a twin of a deadline already pushed: twins pop back to
  // back at one instant, and the second start_batches pass at an
  // unchanged instant starts nothing. Skipping them is therefore
  // exact, and it bounds pending deadlines to one per (stage, time).
  auto arm_deadline = [&](size_t s, double time) {
    ExecStage& stage = stages[s];
    if (time != stage.armed_deadline) {
      stage.armed_deadline = time;
      events.push(Event{time, 2, static_cast<int>(s)});
    }
  };

  auto start_batches = [&](bool force) {
    for (size_t s = 0; s < stages.size(); ++s) {
      ExecStage& stage = stages[s];
      StageTelemetry& telemetry = result.stages[s];
      const auto server = static_cast<size_t>(stage.server);
      // A server may start several queued stages back to back only
      // when it frees up, so loop while it can start.
      while (!stage.queue.empty() && server_busy_until[server] <= now) {
        const bool full =
            static_cast<int64_t>(stage.queue.size()) >= stage.batch;
        // Tolerant comparison: a flush event fires at exactly
        // oldest + timeout, and (oldest + timeout) - oldest can round
        // below timeout in floating point.
        const bool timed_out =
            now >= stage.oldest_enqueue + options.batch_timeout - 1e-9;
        if (!full && !force && !timed_out) {
          break;
        }
        const auto take = static_cast<size_t>(std::min<int64_t>(
            stage.batch, static_cast<int64_t>(stage.queue.size())));
        std::vector<int> members;
        members.reserve(take);
        double hit_fraction_sum = 0.0;
        for (size_t i = 0; i < take; ++i) {
          const QueueEntry& entry = stage.queue[i];
          members.push_back(entry.id);
          const double wait = now - entry.enqueued;
          telemetry.queue_wait.Add(wait);
          RequestOutcome& outcome =
              result.requests[static_cast<size_t>(entry.id)];
          outcome.queue_wait += wait;
          hit_fraction_sum += outcome.prefix_hit_fraction;
          if (trace != nullptr) {
            trace->AddComplete(
                std::string("queue:") + core::StageName(stage.type),
                "queue", 1, entry.id, entry.enqueued, wait, entry.id);
          }
        }
        stage.queue.erase(stage.queue.begin(),
                          stage.queue.begin() + static_cast<long>(take));
        stage.oldest_enqueue = now;
        // Prefix batches are re-priced with the batch's *measured*
        // document-cache hit fraction when the KV level is live;
        // every other stage (and the cacheless default) keeps its
        // schedule-time pricing.
        double latency = stage.latency;
        double interval = stage.interval;
        if (s == prefix_stage_index && doc_cache.enabled()) {
          const auto priced = price_prefix(
              hit_fraction_sum / static_cast<double>(take));
          latency = priced.first;
          interval = priced.second;
        }
        server_busy_until[server] = now + interval;
        result.server_busy_seconds[server] += interval;
        telemetry.busy_seconds += interval;
        if (series != nullptr) {
          // Occupancy attributed to the window containing the batch
          // start (windowed utilization is a rollup, not a partition).
          series->RecordBusy(now, static_cast<int>(s), interval);
        }
        telemetry.batches += 1;
        telemetry.full_batches +=
            static_cast<int64_t>(take) == stage.batch ? 1 : 0;
        telemetry.requests += static_cast<int64_t>(take);
        const bool scans = s == retrieval_stage_index && retrieve;
        const double scan_seconds_before = result.real_scan_seconds;
        if (scans) {
          run_retrieval(members);
        }
        if (trace != nullptr) {
          // Server row: occupancy (interval); request rows: the
          // batch's completion latency each member experiences.
          obs::TraceEvent& span = trace->AddComplete(
              std::string(core::StageName(stage.type)) + " x" +
                  std::to_string(take),
              "stage", 0, stage.server, now, interval);
          span.args.emplace_back("batch", static_cast<double>(take));
          span.args.emplace_back("latency", latency);
          if (scans) {
            span.args.emplace_back(
                "real_scan_wall_s",
                result.real_scan_seconds - scan_seconds_before);
          }
          for (int id : members) {
            trace->AddComplete(
                std::string("exec:") + core::StageName(stage.type),
                "stage", 1, id, now, latency, id);
          }
        }
        record_timeline(s);
        stage.in_flight.push_back(std::move(members));
        events.push(Event{now + latency, 1, static_cast<int>(s)});
      }
      if (!stage.queue.empty() && server_busy_until[server] <= now) {
        arm_deadline(s, stage.oldest_enqueue + options.batch_timeout);
      }
    }
  };

  auto enqueue = [&](size_t s, int request) {
    ExecStage& stage = stages[s];
    if (stage.queue.empty()) {
      stage.oldest_enqueue = now;
      arm_deadline(s, now + options.batch_timeout);
    }
    stage.queue.push_back(QueueEntry{request, now});
    StageTelemetry& telemetry = result.stages[s];
    telemetry.max_queue_depth =
        std::max(telemetry.max_queue_depth,
                 static_cast<int>(stage.queue.size()));
    record_timeline(s);
  };

  // Entry of a request into stage `s`. The retrieval stage consults
  // the retrieval-result cache first: a hit skips the batch queue and
  // the scan entirely — the cached neighbors are recorded now (in
  // serial event-loop order, so the digest never depends on thread
  // interleaving) and delivery into the post-retrieval stage is
  // scheduled after only the lookup cost. That is the
  // retrieval/prefill overlap: hot queries reach prefix immediately
  // instead of waiting out batch formation plus a scan.
  auto enter_stage = [&](size_t s, int request) {
    if (s == retrieval_stage_index && retrieval_cache.enabled()) {
      const cache::CachedRetrieval* cached = retrieval_cache.Lookup(
          fingerprints[static_cast<size_t>(request)]);
      if (cached != nullptr) {
        result.requests[static_cast<size_t>(request)]
            .retrieval_cache_hit = true;
        record_retrieval(request, cached->neighbors);
        if (trace != nullptr) {
          trace->AddComplete("retrieval-cache-hit", "cache", 1, request,
                             now, cache::kLookupSeconds, request);
        }
        events.push(Event{now + cache::kLookupSeconds, 4, request});
        return;
      }
    }
    enqueue(s, request);
  };

  auto admit_decode = [&]() {
    while (static_cast<int64_t>(decode_active.size()) <
               schedule.decode_batch &&
           !decode_waiting.empty()) {
      const int id = decode_waiting.front();
      decode_waiting.pop_front();
      result.requests[static_cast<size_t>(id)].decode_start = now;
      decode_active.push_back(ActiveSeq{id, 0});
    }
    if (!decode_active.empty() && !step_scheduled) {
      events.push(Event{now + step_latency, 3, 0});
      step_scheduled = true;
      decode_busy_time += step_latency;
    }
  };

  // Completes the oldest in-flight batch of stage `s`: members advance
  // to the next stage, or emit their first token and join decode.
  auto complete_stage = [&](size_t s) {
    std::deque<std::vector<int>>& in_flight = stages[s].in_flight;
    RAGO_CHECK(!in_flight.empty(), "stage-done event without a batch");
    const std::vector<int> members = std::move(in_flight.front());
    in_flight.pop_front();
    for (int id : members) {
      if (s + 1 < stages.size()) {
        enter_stage(s + 1, id);
      } else {
        RequestOutcome& outcome = result.requests[static_cast<size_t>(id)];
        outcome.ttft = now - outcome.arrival;
        decode_waiting.push_back(id);
        if (trace != nullptr) {
          trace->AddInstant("first-token", "stage", 1, id, now, id);
        }
        result.max_decode_queue_depth =
            std::max(result.max_decode_queue_depth,
                     static_cast<int>(decode_waiting.size()));
      }
    }
    admit_decode();
  };

  auto decode_step = [&]() {
    step_scheduled = false;
    if (trace != nullptr) {
      // The step that just finished occupied [now - step, now].
      obs::TraceEvent& span = trace->AddComplete(
          "decode-step", "stage", 0, decode_row, now - step_latency,
          step_latency);
      span.args.emplace_back("active",
                             static_cast<double>(decode_active.size()));
    }
    std::vector<ActiveSeq> still;
    still.reserve(decode_active.size());
    for (ActiveSeq& seq : decode_active) {
      if (++seq.tokens >= decode_tokens) {
        RequestOutcome& outcome =
            result.requests[static_cast<size_t>(seq.id)];
        outcome.completion = now;
        outcome.tpot = (now - outcome.decode_start) / decode_tokens;
        ++result.completed;
        // The verdict is taken once, at completion: windowed telemetry
        // sees it now and the end-of-run aggregation reads it.
        outcome.slo_ok = outcome.ttft <= options.slo.ttft_seconds &&
                         outcome.tpot <= options.slo.tpot_seconds;
        if (series != nullptr) {
          series->RecordCompletion(now, outcome.ttft, outcome.tpot,
                                   outcome.queue_wait, outcome.slo_ok);
        }
        if (trace != nullptr) {
          trace->AddComplete("decode", "stage", 1, seq.id,
                             outcome.decode_start,
                             now - outcome.decode_start, seq.id);
          trace->AddComplete("request", "request", 1, seq.id,
                             outcome.arrival, now - outcome.arrival,
                             seq.id);
          // Terminal: seal for sampling, scored by end-to-end latency.
          trace->FinalizeRequest(seq.id, now - outcome.arrival,
                                 !outcome.slo_ok);
        }
      } else {
        still.push_back(seq);
      }
    }
    decode_active = std::move(still);
    admit_decode();
  };

  // Arrival: bounded admission into the first stage.
  auto arrive = [&](int id) {
    RequestOutcome& outcome = result.requests[static_cast<size_t>(id)];
    outcome.admitted = static_cast<int64_t>(stages[0].queue.size()) <
                       options.admission_queue_limit;
    if (series != nullptr) {
      series->RecordOffered(now, outcome.admitted);
    }
    if (!outcome.admitted) {
      ++result.rejected;
      if (flight != nullptr) {
        flight->Append(now, "reject",
                       "request " + std::to_string(id) +
                           " shed at admission",
                       static_cast<double>(stages[0].queue.size()));
      }
      if (trace != nullptr) {
        trace->AddInstant("rejected", "admission", 1, id, now, id);
        // A rejection is terminal: seal the request for sampling (it
        // scores as an SLO violation with zero latency).
        trace->FinalizeRequest(id, 0.0, /*slo_violation=*/true);
      }
      return;
    }
    ++result.admitted;
    if (trace != nullptr) {
      trace->AddInstant("arrival", "admission", 1, id, now, id);
    }
    enter_stage(0, id);
  };

  // On any exception below (including RAGO_CHECK invariant failures)
  // dump the flight recorder before unwinding, so the last moments of
  // the run survive the crash. A dump that fails here is dropped:
  // throwing from a destructor during unwinding would terminate the
  // process and lose the exception that stopped the run.
  struct FlightAbortGuard {
    obs::FlightRecorder* flight;
    const RuntimeOptions& options;
    const std::string& label;
    const double& now;
    ~FlightAbortGuard() {
      if (flight != nullptr && std::uncaught_exceptions() > 0) {
        flight->Append(now, "exception", label + " aborted by exception");
        if (!options.flight_dump_path.empty()) {
          try {
            flight->DumpToFile(options.flight_dump_path);
          } catch (const std::exception&) {
          }
        }
      }
    }
  } flight_abort_guard{flight, options, label, now};

  // --- The loop. Once no event is left, partial batches below the
  // flush timeout are forced out (drain) until every admitted request
  // completes; arrivals and flush deadlines no longer matter then. ---
  bool draining = false;
  while (result.completed < result.admitted || !events.empty()) {
    if (events.empty()) {
      draining = true;
      start_batches(/*force=*/true);
      if (events.empty()) {
        break;
      }
    }
    const Event event = events.top();
    events.pop();
    ++result.events_processed;
    now = std::max(now, event.time);
    if (series != nullptr) {
      // Closes windows the virtual clock has passed, once per popped
      // event, so alert evaluation lags by at most one event.
      series->AdvanceTo(now);
      drain_telemetry_windows();
    }
    switch (event.kind) {
      case 0:
        arrive(event.a);
        break;
      case 1:
        complete_stage(static_cast<size_t>(event.a));
        break;
      case 2:
        break;  // Flush deadline; start_batches below handles it.
      case 3:
        decode_step();
        break;
      case 4:
        enter_stage(retrieval_stage_index + 1, event.a);
        break;
      default:
        RAGO_CHECK(false, "unknown event kind");
    }
    start_batches(/*force=*/draining);
  }
  RAGO_CHECK(result.completed == result.admitted,
             "serving engine failed to drain all admitted requests");

  // --- Seal the observation layer at virtual end-of-run. ---
  if (series != nullptr) {
    series->Finish(now);
    drain_telemetry_windows();
  }
  if (trace != nullptr) {
    trace->FlushTailKeep();
  }
  if (flight != nullptr) {
    flight->Append(now, "note",
                   label + " end: completed=" +
                       std::to_string(result.completed),
                   static_cast<double>(result.completed));
    if (!options.flight_dump_path.empty()) {
      flight->DumpToFile(options.flight_dump_path);
    }
  }

  result.makespan = now;
  Aggregate(decode_busy_time, result);

  // Cache-tier telemetry: counter state only ever mutates inside the
  // serial loop, so it is independent of scan interleaving.
  result.retrieval_cache = retrieval_cache.counters();
  result.doc_cache = doc_cache.counters();
  result.outcome_digest = FinishDigest(digest, result);
  if (options.metrics != nullptr) {
    ExportMetrics(result, *options.metrics);
  }
  return result;
}

}  // namespace rago::runtime
