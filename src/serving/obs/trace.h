/**
 * @file trace.h
 * Span-based per-request trace recorder for the serving engine.
 *
 * Aggregate telemetry (RuntimeResult) answers "what
 * were the percentiles"; it cannot answer "why was request 411 slow".
 * This recorder captures the causal structure of one serving run as
 * spans on the virtual clock — admission, queue waits, batch
 * membership, stage execution, cache hits, decode residency — and
 * exports two views:
 *
 *  - **Chrome trace-event JSON** (chrome://tracing, Perfetto): rows
 *    are servers (pid 0, one track per physical server plus the decode
 *    pool) and requests (pid 1, one track per request id, named
 *    "req <id>" at export), so batch occupancy and a request's journey
 *    line up on one timeline.
 *  - **Compact per-request summary JSON**: each request id with its
 *    recorded spans in order, for programmatic assertions.
 *
 * Recording is opt-in (a null recorder disables everything) and
 * observation-only by contract: recorders accept appends from the
 * serial event loop and never feed anything back, so the outcome
 * digest of a traced run is bit-identical to an untraced one — the
 * invariance tests pin exactly this. Timestamps are virtual seconds;
 * the exporter scales to the microseconds chrome://tracing expects.
 * Not thread-safe (all appends happen on the serial scheduler loop).
 *
 * **Deterministic sampling** keeps the export usable at soak scale:
 * with `TraceSamplingOptions` set, per-request events buffer until the
 * engine finalizes the request, then commit only when the request is
 * head-sampled (an FNV-1a hash of its id against `head_rate` — a pure
 * function of (seed, id), so the sampled subset is identical for any
 * thread count and any arrival interleaving) or survives the tail-keep
 * ring, which always retains the `tail_keep` worst requests (SLO
 * violators first, then slowest). Events with no request id (server
 * rows, counters) bypass sampling entirely.
 */
#ifndef RAGO_SERVING_OBS_TRACE_H
#define RAGO_SERVING_OBS_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"

namespace rago::obs {

/// FNV-1a hash of (seed, request id); the head-sampling coin.
uint64_t HashRequestId(uint64_t seed, int64_t request_id);

/// Head-rate + tail-keep sampling policy for a TraceRecorder.
struct TraceSamplingOptions {
  /// Fraction of requests committed unconditionally, decided by
  /// hash(seed, id) < head_rate. 1.0 (default) disables sampling:
  /// every event commits immediately, exactly as before.
  double head_rate = 1.0;
  /// Worst-request ring size: the K requests with the highest
  /// (violation, score) survive even when not head-sampled. 0 = off.
  int tail_keep = 0;
  /// Seed for the sampling hash; independent of the workload seed.
  uint64_t seed = 0;

  /// Throws ConfigError on head_rate outside [0, 1] or tail_keep < 0.
  void Validate() const;
};

/// One recorded trace event (virtual-clock seconds).
struct TraceEvent {
  enum class Phase {
    kComplete,  ///< Duration span ("X" in the trace-event format).
    kInstant,   ///< Point event ("i").
    kCounter,   ///< Counter sample ("C"): value tracks over time.
  };

  Phase phase = Phase::kComplete;
  std::string name;
  std::string category;  ///< Trace-event "cat": filterable grouping.
  int pid = 0;           ///< Track group (0 = servers, 1 = requests).
  int tid = 0;           ///< Track within the group.
  double start = 0.0;    ///< Virtual seconds.
  double duration = 0.0; ///< Virtual seconds; unused for instants.
  int64_t request_id = -1;  ///< Owning request, -1 when none.
  /// Extra numeric payload, emitted under "args" in recorded order.
  std::vector<std::pair<std::string, double>> args;
};

/**
 * Append-only event log with named tracks. The engine writes through
 * RuntimeOptions::trace, for the online runtime and the DES alike;
 * tests and tools read back either export. Reusable across runs via Clear().
 */
class TraceRecorder {
 public:
  /// Names a pid group ("servers", "requests").
  void SetProcessName(int pid, std::string name);
  /// Names one track within a pid group ("server 0 (xpu)"). Request
  /// rows (pid 1, tid = request id) need no name: the export names
  /// each one that holds committed events "req <id>", so requests
  /// sampling discarded leave no metadata behind.
  void SetThreadName(int pid, int tid, std::string name);

  /// Appends a duration span; the returned reference stays valid until
  /// the next append and accepts arg attachment.
  TraceEvent& AddComplete(std::string name, std::string category, int pid,
                          int tid, double start, double duration,
                          int64_t request_id = -1);
  /// Appends a point event.
  TraceEvent& AddInstant(std::string name, std::string category, int pid,
                         int tid, double time, int64_t request_id = -1);
  /// Appends a counter sample ("C" event): `name` identifies the
  /// counter track within `pid`, `value` its level at `time`.
  TraceEvent& AddCounter(std::string name, std::string category, int pid,
                         int tid, double time, double value);

  /**
   * Enables deterministic sampling. Must be called while the recorder
   * is empty; with the default options it is a no-op (head_rate 1.0
   * keeps the direct-commit path). While active, events carrying a
   * request id buffer per request until FinalizeRequest decides their
   * fate; request-less events still commit immediately.
   */
  void SetSampling(TraceSamplingOptions options);
  const TraceSamplingOptions& sampling() const { return sampling_; }
  /// True when a non-default sampling policy is active.
  bool sampling_active() const { return sampling_active_; }
  /// The head-sampling verdict for a request id (pure function).
  bool HeadSampled(int64_t request_id) const;

  /**
   * Seals a request's buffered events: commits them when the id is
   * head-sampled, otherwise offers them to the tail-keep ring keyed by
   * (slo_violation desc, score desc, id asc) — `score` is typically
   * the request's latency. No-op when sampling is inactive.
   */
  void FinalizeRequest(int64_t request_id, double score,
                       bool slo_violation);
  /// Commits the tail-keep survivors (ascending request id) at end of
  /// run; further finalizations start a fresh ring.
  void FlushTailKeep();

  /// Requests finalized / committed / discarded under sampling.
  int64_t finalized_requests() const { return finalized_requests_; }
  int64_t sampled_requests() const { return sampled_requests_; }
  int64_t discarded_requests() const { return discarded_requests_; }
  /// Requests currently buffered (not yet finalized) / in the ring.
  size_t pending_requests() const { return pending_.size(); }
  size_t tail_kept() const { return tail_.size(); }

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Events recorded for one request id, in recorded order.
  std::vector<const TraceEvent*> EventsForRequest(int64_t request_id) const;

  void Clear();

  /**
   * Emits the full Chrome trace-event document:
   * {"displayTimeUnit": "ms", "traceEvents": [metadata..., events...]}.
   * Loadable directly in chrome://tracing or ui.perfetto.dev.
   */
  void WriteChromeTrace(JsonWriter& json) const;
  std::string ChromeTraceJson() const;

  /**
   * Emits the compact summary: {"requests": [{"request": id,
   * "events": [{"name", "phase", "start", "duration"}...]}...]},
   * ordered by request id (events without a request id are omitted).
   */
  void WriteRequestSummary(JsonWriter& json) const;
  std::string RequestSummaryJson() const;

 private:
  /// Tail-keep candidate: a finalized, non-head-sampled request and
  /// the events sampling holds back for it.
  struct TailEntry {
    int64_t request_id = 0;
    double score = 0.0;
    bool slo_violation = false;
    std::vector<TraceEvent> events;
  };

  /// True when `a` outranks `b` for a tail-keep slot.
  static bool TailWorse(const TailEntry& a, const TailEntry& b);
  TraceEvent& Append(TraceEvent event);
  void Commit(std::vector<TraceEvent> events);

  std::vector<TraceEvent> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;

  TraceSamplingOptions sampling_;
  bool sampling_active_ = false;
  /// Per-request buffers while sampling defers the commit decision.
  std::map<int64_t, std::vector<TraceEvent>> pending_;
  std::vector<TailEntry> tail_;  ///< Kept sorted worst-first, size <= K.
  int64_t finalized_requests_ = 0;
  int64_t sampled_requests_ = 0;
  int64_t discarded_requests_ = 0;
};

}  // namespace rago::obs

#endif  // RAGO_SERVING_OBS_TRACE_H
