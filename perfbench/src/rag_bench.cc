/**
 * @file rag_bench.cc
 * End-to-end RAG serving benchmark: the operator's closed loop, run
 * from outside the program.
 *
 *   rag_bench --workload <rag_scan|rag_hot> --seed <n> --seconds <s>
 *             --trace <0|1> [--spans-out <file>]
 *
 * setup  generate the corpus and query pool, build the ShardedIndex;
 * plan   Optimizer::Search over the case-IV schema;
 * serve  ServingRuntime::Serve of the frontier's highest-QPS/chip
 *        schedule on an open-loop arrival trace (virtual clock).
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics of a separate traced run (host-time spans around each call
 * into a layer, written to --spans-out at the end). Both check the
 * outputs; a failed check makes the exit code 1. The last stdout line
 * is one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/pipeline_model.h"
#include "core/stage.h"
#include "hardware/cluster.h"
#include "rago/optimizer.h"
#include "retrieval/ann/kernels/distance_kernels.h"
#include "retrieval/ann/packed_codes.h"
#include "retrieval/serving/sharded_index.h"
#include "serving/obs/flight_recorder.h"
#include "serving/obs/slo_alerts.h"
#include "serving/obs/timeseries.h"
#include "serving/obs/trace.h"
#include "serving/runtime/runtime.h"
#include "sim/serving_sim.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace rt = rago::runtime;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Threads of the untimed parallel work and of the "n" side of the
/// 1-vs-n comparisons: the machine's cores, at most 4.
int ParallelThreads() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void Check(const CheckResult& check) {
    checks_.push_back(check);
    std::fprintf(stderr, "check %-34s %s  %s\n", check.name.c_str(),
                 check.ok ? "ok  " : "FAIL", check.detail.c_str());
  }
  void CountServe(const rt::RuntimeResult& result) {
    attempted_ += result.submitted;
    failed_ += result.submitted - result.completed;
  }
  bool correct() const {
    return std::all_of(checks_.begin(), checks_.end(),
                       [](const CheckResult& c) { return c.ok; });
  }
  void Print() const {
    for (const auto& [name, metric] : metrics_) {
      std::fprintf(stderr, "%-44s %.6g %s\n", name.c_str(), metric.value,
                   metric.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), metric.value,
                  metric.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<CheckResult> checks_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Sinks.
// ---------------------------------------------------------------------------

enum SinkBits : unsigned {
  kNoSinks = 0,
  kTraceSink = 1u << 0,
  kMetricsSink = 1u << 1,
  kTimeSeriesSink = 1u << 2,
  kAlertsSink = 1u << 3,  // Needs kTimeSeriesSink.
  kFlightSink = 1u << 4,
  kAllSinks = 0x1f,
};

/// One serve call's sink objects, owned for the call's duration.
struct SinkSet {
  explicit SinkSet(unsigned bits, uint64_t seed) {
    if (bits & kTraceSink) {
      trace = std::make_unique<rago::obs::TraceRecorder>();
      rago::obs::TraceSamplingOptions sampling;
      sampling.head_rate = 0.02;
      sampling.tail_keep = 32;
      sampling.seed = seed;
      trace->SetSampling(sampling);
    }
    if (bits & kMetricsSink) {
      metrics = std::make_unique<rago::MetricsRegistry>();
    }
    if (bits & kTimeSeriesSink) {
      rago::obs::TimeSeriesOptions ts;
      ts.window_seconds = 0.1;
      ts.windows_per_level = 16;
      ts.fold_factor = 4;
      ts.levels = 3;
      timeseries = std::make_unique<rago::obs::TelemetryTimeSeries>(ts);
    }
    if (bits & kAlertsSink) {
      rago::obs::SloAlertOptions options;
      options.attainment_goal = 0.95;
      rago::obs::BurnRateRule page;
      page.name = "page";
      page.short_window_seconds = 0.4;
      page.long_window_seconds = 4.0;
      page.burn_threshold = 2.0;
      page.fire_after = 2;
      page.clear_after = 2;
      rago::obs::BurnRateRule ticket;
      ticket.name = "ticket";
      ticket.short_window_seconds = 1.0;
      ticket.long_window_seconds = 10.0;
      ticket.burn_threshold = 1.0;
      options.rules = {page, ticket};
      alerts = std::make_unique<rago::obs::SloAlertEngine>(options);
    }
    if (bits & kFlightSink) {
      flight = std::make_unique<rago::obs::FlightRecorder>(512);
    }
  }

  void Attach(rt::RuntimeOptions& options) const {
    options.trace = trace.get();
    options.metrics = metrics.get();
    options.timeseries = timeseries.get();
    options.alerts = alerts.get();
    options.flight = flight.get();
  }

  std::unique_ptr<rago::obs::TraceRecorder> trace;
  std::unique_ptr<rago::MetricsRegistry> metrics;
  std::unique_ptr<rago::obs::TelemetryTimeSeries> timeseries;
  std::unique_ptr<rago::obs::SloAlertEngine> alerts;
  std::unique_ptr<rago::obs::FlightRecorder> flight;
};

// ---------------------------------------------------------------------------
// The deployment one run builds.
// ---------------------------------------------------------------------------

struct Deployment {
  WorkloadSpec spec;
  uint64_t seed = 0;
  rago::ann::Matrix pool;
  std::unique_ptr<rago::serving::ShardedIndex> index;
  std::vector<double> setup_seconds;   ///< One per set-up repeat.
  std::vector<double> corpus_seconds;  ///< Generation part of each.
  std::vector<double> build_seconds;   ///< Index build part of each.
  std::unique_ptr<rago::core::PipelineModel> model;
  std::unique_ptr<rago::opt::Optimizer> optimizer;
  rago::opt::OptimizerResult plan;
  rago::opt::ScheduledPoint chosen;
  Traffic traffic;
};

void Setup(Deployment& d, SpanRecorder& spans) {
  for (int r = 0; r < d.spec.setup_repeats; ++r) {
    d.index.reset();
    ScopedSpan setup(spans, "perfbench", "setup");
    const Clock::time_point start = Clock::now();
    Corpus corpus;
    {
      ScopedSpan span(spans, "retrieval/ann", "GenerateCorpus", setup.id());
      corpus = GenerateCorpus(d.spec, d.seed);
    }
    const double generated = SecondsSince(start);
    {
      ScopedSpan span(spans, "retrieval/serving", "ShardedIndex", setup.id());
      d.index = std::make_unique<rago::serving::ShardedIndex>(
          std::move(corpus.data), d.spec.tier);
    }
    const double total = SecondsSince(start);
    d.pool = std::move(corpus.pool);
    d.setup_seconds.push_back(total);
    d.corpus_seconds.push_back(generated);
    d.build_seconds.push_back(total - generated);
  }
}

rt::RuntimeOptions BaseOptions(const Deployment& d, int threads) {
  rt::RuntimeOptions options;
  options.num_threads = threads;
  options.top_k = d.spec.top_k;
  options.admission_queue_limit = d.spec.requests + 1;  // Never sheds.
  options.slo.ttft_seconds = d.spec.ttft_limit;
  options.slo.tpot_seconds = d.spec.tpot_limit;
  options.batch_timeout = d.spec.batch_timeout;
  options.cache.retrieval_capacity = d.spec.retrieval_cache;
  options.cache.doc_capacity = d.spec.doc_cache;
  return options;
}

struct ServeRun {
  rt::RuntimeResult result;
  double wall = 0.0;
  double cpu = 0.0;
  size_t trace_events = 0;
};

/// One Serve call with the given sinks; only the call itself is timed.
ServeRun Serve(const Deployment& d, unsigned sinks, int threads,
               SpanRecorder& spans, Report& report, int parent = -1) {
  rt::RuntimeOptions options = BaseOptions(d, threads);
  SinkSet set(sinks, d.seed);
  set.Attach(options);
  const rt::ServingRuntime runtime(*d.model, d.chosen.schedule, *d.index,
                                   options);
  ServeRun run;
  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan span(spans, "serving/runtime", "Serve", parent);
    run.result = runtime.Serve(d.traffic.trace, d.pool, d.traffic.stream);
  }
  run.wall = SecondsSince(start);
  run.cpu = CpuSeconds() - cpu_start;
  run.trace_events = set.trace ? set.trace->size() : 0;
  report.CountServe(run.result);
  report.Check(CheckConservation(run.result, d.spec.requests));
  return run;
}

unsigned WorkloadSinks(const WorkloadSpec& spec) {
  return spec.sinks ? kAllSinks : kNoSinks;
}

// ---------------------------------------------------------------------------
// Checks shared by both modes.
// ---------------------------------------------------------------------------

struct Reference {
  /// Direct SearchBatch results for every pool row (n threads).
  std::vector<std::vector<rago::ann::Neighbor>> direct;
  double recall = 0.0;
};

Reference CheckRetrieval(const Deployment& d, Report& report,
                         SpanRecorder& spans) {
  Reference ref;
  rago::ThreadPool pool(d.spec.num_threads);
  {
    ScopedSpan span(spans, "retrieval/serving", "SearchBatch(pool)");
    ref.direct = d.index->SearchBatch(
        d.pool, static_cast<size_t>(d.spec.top_k), &pool);
  }
  // The exact reference needs the corpus, which the index owns; the
  // generator is deterministic, so regenerate it.
  const Corpus corpus = GenerateCorpus(d.spec, d.seed);
  const auto exact = ExactTopK(corpus.data.data(), corpus.data.rows(),
                               d.pool.data(), d.pool.rows(), d.spec.dim,
                               static_cast<size_t>(d.spec.top_k),
                               ParallelThreads());
  ref.recall =
      RecallAtK(exact, ref.direct, static_cast<size_t>(d.spec.top_k));
  report.Check(CheckRecall(ref.recall, 0.8));
  return ref;
}

void CheckPlan(const Deployment& d, Report& report, SpanRecorder& spans) {
  report.Check(CheckFrontier(d.plan, d.optimizer->Budget()));
  rago::core::EndToEndPerf again;
  {
    ScopedSpan span(spans, "core", "Evaluate(served)");
    again = d.model->Evaluate(d.chosen.schedule);
  }
  report.Check(CheckEvaluateReproduces(d.chosen.perf, again));
  rago::opt::OptimizerResult baseline;
  {
    ScopedSpan span(spans, "rago", "SearchBaseline");
    baseline = d.optimizer->SearchBaseline();
  }
  report.Check(CheckBaselineNotBetter(
      baseline.pareto.empty()
          ? 0.0
          : baseline.MaxQpsPerChip().perf.qps_per_chip,
      d.chosen.perf.qps_per_chip));
}

/// Checks on a served result: first neighbors, 1-vs-n-thread digest,
/// and, for Poisson traffic, agreement with the DES.
void CheckServe(const Deployment& d, const rt::RuntimeResult& served,
                const Reference& ref, Report& report, SpanRecorder& spans) {
  report.Check(CheckFirstNeighbors(served, d.traffic.stream, ref.direct));
  const int other = d.spec.num_threads == 1 ? ParallelThreads() : 1;
  const ServeRun again = Serve(d, kNoSinks, other, spans, report);
  report.Check(CheckDigestsEqual("digest_1_vs_n_threads",
                                 again.result.outcome_digest,
                                 served.outcome_digest));
  if (!d.spec.mmpp) {
    rago::sim::ServingSimResult des;
    {
      ScopedSpan span(spans, "sim", "SimulateServing");
      des = rago::sim::SimulateServing(*d.model, d.chosen.schedule,
                                       d.traffic.trace);
    }
    report.Check(CheckDesAgreement(served, des, 0.05));
  }
}

// ---------------------------------------------------------------------------
// End-to-end metrics.
// ---------------------------------------------------------------------------

void AddServedMetrics(const Deployment& d, const rt::RuntimeResult& r,
                      Report& report) {
  report.Add("ttft_p50_ms", r.ttft.Percentile(0.50) * 1e3, "ms");
  report.Add("ttft_p99_ms", r.ttft.Percentile(0.99) * 1e3, "ms");
  report.Add("tpot_p50_ms", r.tpot.Percentile(0.50) * 1e3, "ms");
  report.Add("tpot_p99_ms", r.tpot.Percentile(0.99) * 1e3, "ms");
  int64_t good = 0;
  for (const rt::RequestOutcome& outcome : r.requests) {
    good += outcome.completion >= 0.0 &&
                    outcome.ttft <= d.spec.ttft_limit &&
                    outcome.tpot <= d.spec.tpot_limit
                ? 1
                : 0;
  }
  report.Add("goodput_qps_per_chip",
             static_cast<double>(good) / r.makespan /
                 d.chosen.schedule.AllocatedXpus(),
             "QPS/chip");
  std::fprintf(stderr,
               "served %lld requests (TTFT/TPOT samples %lld/%lld), "
               "%lld within TTFT %.0f ms and TPOT %.0f ms, makespan %.3f "
               "s, %d XPUs\n",
               static_cast<long long>(r.completed),
               static_cast<long long>(r.ttft.count()),
               static_cast<long long>(r.tpot.count()),
               static_cast<long long>(good), d.spec.ttft_limit * 1e3,
               d.spec.tpot_limit * 1e3, r.makespan,
               d.chosen.schedule.AllocatedXpus());
}

/// One timed section of an end-to-end run.
struct Section {
  std::function<double()> call;  ///< Runs once, returns its seconds.
  double budget = 0.0;           ///< Seconds of calls to collect.
  size_t min_reps = 0;
  std::vector<double> seconds;
  double spent = 0.0;

  bool done() const {
    return seconds.size() >= min_reps && spent >= budget;
  }
};

/// Runs two sections interleaved, each step calling the one that has
/// used the smaller share of its budget, until both are done. Host
/// speed drifts over tens of seconds on a shared machine; interleaving
/// spreads both sections over the whole run so a drift hits each alike.
void Interleave(Section& a, Section& b) {
  while (!a.done() || !b.done()) {
    Section& next = a.done()   ? b
                    : b.done() ? a
                    : a.spent / a.budget <= b.spent / b.budget ? a
                                                               : b;
    const double seconds = next.call();
    next.seconds.push_back(seconds);
    next.spent += seconds;
  }
}

void Plan(Deployment& d) {
  d.plan = d.optimizer->Search();
  d.chosen = d.plan.MaxQpsPerChip();
}

void PlanModel(Deployment& d) {
  const RequestMix mix = SampleRequestMix(d.seed);
  d.model = std::make_unique<rago::core::PipelineModel>(
      SchemaForMix(d.spec, mix), rago::DefaultCluster());
  d.optimizer =
      std::make_unique<rago::opt::Optimizer>(*d.model, GridFor(d.spec));
}

int RunEndToEnd(Deployment& d, double seconds) {
  const Clock::time_point run_start = Clock::now();
  SpanRecorder spans(false);
  Report report;
  Setup(d, spans);
  report.Add("setup_s", Median(d.setup_seconds), "s");

  PlanModel(d);
  Plan(d);  // Warm-up.
  d.traffic = GenerateTraffic(d.spec, d.seed, d.chosen.perf.qps);
  const unsigned sinks = WorkloadSinks(d.spec);
  const ServeRun first =
      Serve(d, sinks, d.spec.num_threads, spans, report);  // Warm-up.
  bool repeatable = true;
  Section plan{[&d]() {
                 const Clock::time_point start = Clock::now();
                 Plan(d);
                 return SecondsSince(start);
               },
               0.25 * seconds, 2, {}, 0.0};
  Section serve{[&]() {
                  const ServeRun run =
                      Serve(d, sinks, d.spec.num_threads, spans, report);
                  repeatable = repeatable && run.result.outcome_digest ==
                                                 first.result.outcome_digest;
                  return run.wall;
                },
                0.75 * seconds, 3, {}, 0.0};
  Interleave(plan, serve);
  report.Check(CheckDigestsEqual("digest_repeated_calls",
                                 repeatable ? 1 : 0, 1));
  report.Add("plan_s", Median(plan.seconds), "s");
  report.Add("plan_qps_per_chip", d.chosen.perf.qps_per_chip, "QPS/chip");
  report.Add("plan_min_ttft_ms", d.plan.MinTtft().perf.ttft * 1e3, "ms");
  report.Add("serve_rps", d.spec.requests / Median(serve.seconds), "req/s");
  AddServedMetrics(d, first.result, report);

  const Reference ref = CheckRetrieval(d, report, spans);
  report.Add("recall_at_10", ref.recall, "fraction");
  CheckPlan(d, report, spans);
  CheckServe(d, first.result, ref, report, spans);
  std::fprintf(stderr, "timed %zu searches, %zu serve calls; run %.1f s\n",
               plan.seconds.size(), serve.seconds.size(),
               SecondsSince(run_start));
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Print();
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run).
// ---------------------------------------------------------------------------

/// Wraps a StagePerfProvider, counting lookups and their host time.
struct CountingProvider {
  std::atomic<int64_t> lookups{0};
  std::atomic<int64_t> nanos{0};

  template <typename Fn>
  auto Count(Fn inner) {
    return [this, inner](auto... args) {
      const Clock::time_point start = Clock::now();
      auto out = inner(args...);
      nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - start)
                   .count();
      ++lookups;
      return out;
    };
  }

  rago::core::StagePerfProvider Wrap(
      const rago::core::StagePerfProvider& inner) {
    rago::core::StagePerfProvider out;
    out.chain = Count(inner.chain);
    out.decode = Count(inner.decode);
    out.retrieval = Count(inner.retrieval);
    out.ingest = Count(inner.ingest);
    return out;
  }
};

/// Nanoseconds per element of `call` (which processes `elements`),
/// repeated for at least `budget` seconds.
double NanosPerElement(double budget, size_t elements,
                       const std::function<void()>& call) {
  int64_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < budget || calls < 3) {
    call();
    ++calls;
    elapsed = SecondsSince(start);
  }
  return elapsed * 1e9 / (static_cast<double>(calls) * elements);
}

void KernelMetrics(const Deployment& d, Report& report, SpanRecorder& spans) {
  namespace kernels = rago::ann::kernels;
  const kernels::KernelTable& active = kernels::Active();
  std::fprintf(stderr, "active kernel variant: %s\n", active.name);
  rago::Rng rng(rago::Rng::DeriveSeed(d.seed, 99));
  const int nlist = d.spec.tier.backend == rago::serving::ShardBackend::kIvfPq
                        ? d.spec.tier.ivfpq.nlist
                        : d.spec.tier.ivf.nlist;
  const size_t list_rows = std::max<size_t>(
      1, d.spec.corpus_rows /
             static_cast<size_t>(d.spec.tier.num_shards * nlist));

  // ADC over one packed list of the IVF-PQ shape.
  const auto m = static_cast<size_t>(d.spec.tier.ivfpq.pq_subspaces);
  std::vector<float> table(m * kernels::kAdcCentroids);
  for (float& v : table) {
    v = static_cast<float>(rng.NextDouble());
  }
  std::vector<uint8_t> codes(list_rows * m);
  for (uint8_t& c : codes) {
    c = static_cast<uint8_t>(rng.NextBounded(256));
  }
  const rago::ann::PackedCodes packed(codes.data(), list_rows, m);
  std::vector<float> out(std::max<size_t>(list_rows, 256));
  {
    ScopedSpan span(spans, "retrieval/ann", "adc_packed");
    report.Add("ann.kernels.adc_packed_ns_per_code",
               NanosPerElement(0.2, list_rows, [&]() {
                 active.adc_packed(table.data(), packed.data(), list_rows, m,
                                   out.data());
               }),
               "ns");
  }

  // L2 over the rows one call scores: the rerank depth on IVF-PQ, one
  // inverted list on IVF.
  const size_t l2_rows =
      d.spec.tier.backend == rago::serving::ShardBackend::kIvfPq
          ? static_cast<size_t>(std::max(1, d.spec.tier.rerank))
          : list_rows;
  std::vector<float> rows(l2_rows * d.spec.dim);
  for (float& v : rows) {
    v = static_cast<float>(rng.NextDouble());
  }
  out.resize(std::max(out.size(), l2_rows));
  {
    ScopedSpan span(spans, "retrieval/ann", "l2sq_batch");
    report.Add("ann.kernels.l2_ns_per_row",
               NanosPerElement(0.2, l2_rows, [&]() {
                 active.l2sq_batch(d.pool.Row(0), rows.data(), l2_rows,
                                   d.spec.dim, out.data());
               }),
               "ns");
  }
}

struct BatchStats {
  double wall = 0.0;
  double merge = 0.0;
  double skew_sum = 0.0;
  double bytes = 0.0;
  int64_t calls = 0;
  int64_t queries = 0;
};

/// SearchBatch over the whole pool in chunks of `batch` rows.
BatchStats SearchInChunks(const Deployment& d, size_t batch,
                          rago::ThreadPool& pool) {
  BatchStats stats;
  const size_t rows = d.pool.rows();
  for (size_t begin = 0; begin < rows; begin += batch) {
    const size_t n = std::min(batch, rows - begin);
    rago::ann::Matrix chunk(n, d.pool.dim());
    for (size_t i = 0; i < n; ++i) {
      chunk.CopyRowFrom(d.pool, begin + i, i);
    }
    rago::serving::ShardSearchStats shard_stats;
    const Clock::time_point start = Clock::now();
    d.index->SearchBatch(chunk, static_cast<size_t>(d.spec.top_k), &pool,
                         &shard_stats);
    stats.wall += SecondsSince(start);
    stats.merge += shard_stats.merge_seconds;
    stats.bytes += shard_stats.TotalScanBytes();
    double sum = 0.0;
    double max = 0.0;
    for (const auto& shard : shard_stats.shards) {
      sum += shard.wall_seconds;
      max = std::max(max, shard.wall_seconds);
    }
    stats.skew_sum += sum > 0.0 ? max / (sum / shard_stats.shards.size())
                                : 1.0;
    ++stats.calls;
    stats.queries += static_cast<int64_t>(n);
  }
  return stats;
}

void RetrievalMetrics(const Deployment& d, double mean_batch, Report& report,
                      SpanRecorder& spans) {
  rago::ThreadPool pool_w(d.spec.num_threads);
  rago::ThreadPool pool_1(1);
  rago::ThreadPool pool_n(ParallelThreads());
  const auto batch =
      static_cast<size_t>(std::max<int64_t>(1, d.chosen.schedule.retrieval_batch));
  SearchInChunks(d, batch, pool_w);  // Warm-up.
  BatchStats at_batch;
  {
    ScopedSpan span(spans, "retrieval/serving", "SearchBatch(schedule batch)");
    at_batch = SearchInChunks(d, batch, pool_w);
  }
  report.Add("retrieval.serving.search_us_per_query",
             at_batch.wall * 1e6 / at_batch.queries, "us");
  report.Add("retrieval.serving.merge_share", at_batch.merge / at_batch.wall,
             "fraction");
  report.Add("retrieval.serving.shard_skew",
             at_batch.skew_sum / at_batch.calls, "ratio");
  report.Add("retrieval.serving.scan_bytes_per_query",
             at_batch.bytes / at_batch.queries, "B");

  const size_t small = static_cast<size_t>(std::max(1.0, std::round(mean_batch)));
  BatchStats at_small;
  {
    ScopedSpan span(spans, "retrieval/serving", "SearchBatch(formed batch)");
    at_small = SearchInChunks(d, small, pool_w);
  }
  report.Add("retrieval.serving.small_batch_us_per_query",
             at_small.wall * 1e6 / at_small.queries, "us");

  const size_t whole = d.pool.rows();
  std::vector<double> one;
  std::vector<double> many;
  for (int r = 0; r < 3; ++r) {
    {
      ScopedSpan span(spans, "retrieval/serving", "SearchBatch(1 thread)");
      one.push_back(SearchInChunks(d, whole, pool_1).wall);
    }
    {
      ScopedSpan span(spans, "retrieval/serving", "SearchBatch(n threads)");
      many.push_back(SearchInChunks(d, whole, pool_n).wall);
    }
  }
  report.Add("retrieval.serving.speedup_1_to_n", Median(one) / Median(many),
             "ratio");
  report.Add("retrieval.serving.build_s", Median(d.build_seconds), "s");
}

/// The cache tier's counters from one serve call.
void CacheMetrics(const rt::RuntimeResult& r, Report& report) {
  const auto& rc = r.retrieval_cache;
  const auto& dc = r.doc_cache;
  report.Add("cache.retrieval.hits", static_cast<double>(rc.hits), "count");
  report.Add("cache.retrieval.misses", static_cast<double>(rc.misses),
             "count");
  report.Add("cache.retrieval.insertions",
             static_cast<double>(rc.insertions), "count");
  report.Add("cache.retrieval.evictions", static_cast<double>(rc.evictions),
             "count");
  report.Add("cache.retrieval.hit_ratio", rc.HitRate(), "fraction");
  report.Add("cache.doc.hits", static_cast<double>(dc.hits), "count");
  report.Add("cache.doc.misses", static_cast<double>(dc.misses), "count");
  report.Add("cache.doc.evictions", static_cast<double>(dc.evictions),
             "count");
  report.Add("cache.doc.measured_prefix_hit_rate", r.measured_prefix_hit_rate,
             "fraction");
}

int RunTraced(Deployment& d, double seconds, const std::string& spans_out) {
  SpanRecorder spans(true);
  Report report;
  Setup(d, spans);
  report.Add("setup.corpus_s", Median(d.corpus_seconds), "s");

  // Plan: one counted search (lookups through the wrapper) and one
  // plain search for the schedule rate.
  PlanModel(d);
  CountingProvider counting;
  {
    ScopedSpan span(spans, "rago", "Search(counting provider)");
    const rago::core::StagePerfProvider provider =
        counting.Wrap(d.model->LiveProvider());
    d.optimizer->Search(provider);
  }
  double search_wall = 0.0;
  {
    ScopedSpan span(spans, "rago", "Search");
    const Clock::time_point start = Clock::now();
    Plan(d);
    search_wall = SecondsSince(start);
  }
  report.Add("rago.schedules_evaluated",
             static_cast<double>(d.plan.schedules_evaluated), "count");
  report.Add("rago.schedules_per_s",
             d.plan.schedules_evaluated / search_wall, "1/s");
  report.Add("rago.frontier_points", static_cast<double>(d.plan.pareto.size()),
             "count");
  report.Add("rago.stage_lookups", static_cast<double>(counting.lookups),
             "count");
  report.Add("rago.stage_lookup_s", counting.nanos * 1e-9, "s");
  {
    ScopedSpan span(spans, "core", "Evaluate(frontier)");
    const size_t points = d.plan.pareto.size();
    report.Add("core.evaluate_us",
               NanosPerElement(0.2, points,
                               [&]() {
                                 for (const auto& p : d.plan.pareto) {
                                   d.model->Evaluate(p.schedule);
                                 }
                               }) *
                   1e-3,
               "us");
  }

  // Serve variants, in rounds until the budget is spent.
  d.traffic = GenerateTraffic(d.spec, d.seed, d.chosen.perf.qps);
  const unsigned workload_sinks = WorkloadSinks(d.spec);
  struct Variant {
    std::string name;
    unsigned sinks;
    std::vector<double> wall;
    std::vector<double> scan;
    std::vector<double> cpu;
    size_t trace_events = 0;
  };
  std::vector<Variant> variants = {
      {"none", kNoSinks, {}, {}, {}, 0},
      {"all", kAllSinks, {}, {}, {}, 0},
      {"trace", kTraceSink, {}, {}, {}, 0},
      {"metrics", kMetricsSink, {}, {}, {}, 0},
      {"timeseries", kTimeSeriesSink, {}, {}, {}, 0},
      {"timeseries+alerts", kTimeSeriesSink | kAlertsSink, {}, {}, {}, 0},
      {"flight", kFlightSink, {}, {}, {}, 0},
  };
  const ServeRun first =
      Serve(d, kNoSinks, d.spec.num_threads, spans, report);  // Warm-up.
  const Clock::time_point serve_start = Clock::now();
  int rounds = 0;
  do {
    const int round = spans.Begin("perfbench", "serve round");
    for (Variant& v : variants) {
      const ServeRun run =
          Serve(d, v.sinks, d.spec.num_threads, spans, report, round);
      v.wall.push_back(run.wall);
      v.scan.push_back(run.result.real_scan_seconds);
      v.cpu.push_back(run.cpu);
      v.trace_events = run.trace_events;
      report.Check(CheckDigestsEqual("digest_with_sinks_" + v.name,
                                     run.result.outcome_digest,
                                     first.result.outcome_digest));
    }
    spans.End(round);
  } while (++rounds < 3 || SecondsSince(serve_start) < 0.5 * seconds);

  // Host time outside real scans, per call: the event loop plus the
  // call's sinks. Sink costs are differences of its medians, so each
  // call's own scan time (and its noise) drops out.
  auto nonscan = [&](size_t i) {
    std::vector<double> values;
    for (size_t r = 0; r < variants[i].wall.size(); ++r) {
      values.push_back(variants[i].wall[r] - variants[i].scan[r]);
    }
    return Median(values);
  };
  const Variant& none = variants[0];
  const double scan_s = Median(none.scan);
  const double loop_s = nonscan(0);
  report.Add("runtime.real_scan_s", scan_s, "s");
  report.Add("runtime.loop_s", loop_s, "s");
  report.Add("runtime.loop_us_per_req", loop_s * 1e6 / d.spec.requests, "us");
  report.Add("runtime.cpu_s", Median(none.cpu), "s");
  const double obs_all =
      workload_sinks == kAllSinks ? nonscan(1) - loop_s : 0.0;
  report.Add("obs.all_s", obs_all, "s");
  report.Add("obs.trace_s", nonscan(2) - loop_s, "s");
  report.Add("obs.metrics_s", nonscan(3) - loop_s, "s");
  report.Add("obs.timeseries_s", nonscan(4) - loop_s, "s");
  report.Add("obs.alerts_s", nonscan(5) - nonscan(4), "s");
  report.Add("obs.flight_s", nonscan(6) - loop_s, "s");
  report.Add("obs.trace_events", static_cast<double>(variants[1].trace_events),
             "count");
  // Ledger: the layers of the workload's serve call against its wall.
  const size_t served = workload_sinks == kAllSinks ? 1 : 0;
  const double served_wall = Median(variants[served].wall);
  const double ledger =
      Median(variants[served].scan) + loop_s + obs_all;
  report.Add("runtime.ledger_residual",
             std::fabs(ledger - served_wall) / served_wall, "fraction");
  std::fprintf(stderr,
               "serve wall %.4f s = scan %.4f + loop %.4f + sinks %.4f "
               "(sum %.4f) over %zu rounds\n",
               served_wall, Median(variants[served].scan), loop_s, obs_all,
               ledger, none.wall.size());

  // Virtual per-stage telemetry of the sink-free call.
  double retrieval_mean_batch = 1.0;
  for (const rt::StageTelemetry& stage : first.result.stages) {
    const std::string name = rago::core::StageName(stage.type);
    report.Add("runtime.batches." + name, static_cast<double>(stage.batches),
               "count");
    report.Add("runtime.full_batches." + name,
               static_cast<double>(stage.full_batches), "count");
    report.Add("runtime.queue_wait_p50_ms." + name,
               stage.queue_wait.Percentile(0.5) * 1e3, "ms");
    if (stage.type == rago::core::StageType::kRetrieval && stage.batches > 0) {
      retrieval_mean_batch =
          static_cast<double>(stage.requests) / stage.batches;
    }
  }

  const Reference ref = CheckRetrieval(d, report, spans);
  RetrievalMetrics(d, retrieval_mean_batch, report, spans);
  KernelMetrics(d, report, spans);
  CacheMetrics(first.result, report);
  CheckPlan(d, report, spans);
  CheckServe(d, first.result, ref, report, spans);
  {
    std::vector<double> des_wall;
    for (int r = 0; r < 3; ++r) {
      ScopedSpan span(spans, "sim", "SimulateServing");
      const Clock::time_point start = Clock::now();
      rago::sim::SimulateServing(*d.model, d.chosen.schedule,
                                 d.traffic.trace);
      des_wall.push_back(SecondsSince(start));
    }
    report.Add("sim.des_rps", d.spec.requests / Median(des_wall), "req/s");
  }
  if (!spans_out.empty() && !spans.WriteChromeTrace(spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: rag_bench --workload <rag_scan|rag_hot> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <file>]\n");
    return 2;
  }
  try {
    perfbench::Deployment d;
    d.spec = perfbench::MakeWorkload(args.workload);
    d.seed = args.seed;
    return args.trace == 1
               ? perfbench::RunTraced(d, args.seconds, args.spans_out)
               : perfbench::RunEndToEnd(d, args.seconds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rag_bench: %s\n", e.what());
    return 2;
  }
}
