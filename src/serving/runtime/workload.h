/**
 * @file workload.h
 * Arrival-trace scenario library for the serving stack.
 *
 * One place for every way this repo generates request traffic. The
 * trace-driven DES (sim/serving_sim.h) and the online serving runtime
 * (serving/runtime/runtime.h) both consume the same ArrivalTrace, so
 * a scenario defined here — open-loop Poisson, bursty MMPP, diurnal
 * tides, or a replayed trace file — drives either one unchanged.
 *
 * All generators are seeded and deterministic (common/rng.h): the same
 * (options, seed) produce bit-identical traces on every platform, and
 * trace files round-trip losslessly (%.17g per arrival).
 */
#ifndef RAGO_SERVING_RUNTIME_WORKLOAD_H
#define RAGO_SERVING_RUNTIME_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

namespace rago::runtime {

/// Request arrival trace (seconds, non-decreasing).
struct ArrivalTrace {
  std::vector<double> arrivals;
};

/// Uniform (open-loop) arrivals: `count` requests at fixed `qps`.
ArrivalTrace UniformTrace(int count, double qps);

/// Poisson arrivals at rate `qps`, seeded.
ArrivalTrace PoissonTrace(int count, double qps, uint64_t seed);

/// One burst of `count` simultaneous arrivals at t = 0.
ArrivalTrace BurstTrace(int count);

/**
 * Two-state Markov-modulated Poisson process: traffic alternates
 * between a quiet state and a burst state, with exponentially
 * distributed dwell times. The standard bursty-arrivals model —
 * batched flushes that look fine under Poisson load back up during
 * the burst episodes this produces.
 */
struct MmppOptions {
  double quiet_qps = 50.0;   ///< Arrival rate in the quiet state.
  double burst_qps = 250.0;  ///< Arrival rate in the burst state.
  double mean_quiet_seconds = 2.0;  ///< Mean dwell time, quiet state.
  double mean_burst_seconds = 0.5;  ///< Mean dwell time, burst state.

  /// Throws ConfigError on non-positive rates or dwell times.
  void Validate() const;

  /// Long-run average arrival rate (dwell-time-weighted).
  double MeanQps() const;
};

ArrivalTrace MmppTrace(int count, const MmppOptions& options, uint64_t seed);

/**
 * Diurnal tide: a non-homogeneous Poisson process whose rate swings
 * sinusoidally around `mean_qps` with the given period (one synthetic
 * "day"), sampled by thinning against the peak rate.
 */
struct DiurnalOptions {
  double mean_qps = 50.0;
  double period_seconds = 60.0;  ///< One full load cycle.
  double amplitude = 0.8;        ///< Peak swing, in [0, 1).

  /// Throws ConfigError on non-positive rate/period or amplitude
  /// outside [0, 1).
  void Validate() const;
};

ArrivalTrace DiurnalTrace(int count, const DiurnalOptions& options,
                          uint64_t seed);

/**
 * Writes `trace` to a replayable text file: a `rago-trace v1` header
 * line, then one arrival per line at %.17g (lossless for doubles).
 * Throws ConfigError when the file cannot be written.
 */
void SaveTrace(const ArrivalTrace& trace, const std::string& path);

/**
 * Parses a file written by SaveTrace. Round-trips bit-exactly:
 * LoadTrace(SaveTrace(t)) compares equal to t arrival by arrival.
 * Throws ConfigError on missing files, bad headers, malformed or
 * decreasing arrivals.
 */
ArrivalTrace LoadTrace(const std::string& path);

/// Mean offered load of a trace: count / last arrival (inf for a
/// single-instant burst).
double OfferedQps(const ArrivalTrace& trace);

/**
 * Superimposes two arrival streams into one non-decreasing trace
 * (a stable std::merge — ties keep `a`'s arrivals first). Composes
 * scenario primitives into richer traffic, e.g. MMPP bursts riding a
 * diurnal tide for soak runs.
 */
ArrivalTrace MergeTraces(const ArrivalTrace& a, const ArrivalTrace& b);

// ---------------------------------------------------------------------------
// Query streams: which query each request asks.
// ---------------------------------------------------------------------------

/**
 * Per-request query assignment: rows[i] is the query-pool row request
 * i starts drawing from (it draws queries_per_retrieval consecutive
 * rows, wrapping). The arrival trace says *when* requests come; the
 * query stream says *what* they ask — the dimension that decides
 * whether a cache tier pays. All generators are seeded and
 * deterministic: the same (options, seed) produce bit-identical
 * streams.
 */
struct QueryStream {
  std::vector<int64_t> rows;
};

/**
 * Zipfian query popularity over `pool_rows` rows: row r is drawn with
 * probability proportional to 1 / (r + 1)^skew. skew = 0 is uniform;
 * skew around 1 is the classic heavy-tailed web-query regime where a
 * small hot set dominates — the workload millions of users actually
 * produce, and the one that turns an assumed cache hit rate into a
 * measured quantity.
 */
QueryStream ZipfianQueryStream(int count, int64_t pool_rows, double skew,
                               uint64_t seed);

/// Knobs of the repeat-neighbor stream.
struct RepeatNeighborOptions {
  /// Probability a request repeats a recently issued query.
  double repeat_probability = 0.8;
  /// How far back the repeated query may come from.
  int window = 64;

  /// Throws ConfigError on probability outside [0, 1] or window < 1.
  void Validate() const;
};

/**
 * Repeat-neighbor stream: each request either re-asks one of the last
 * `window` queries (with repeat_probability, uniformly over the
 * window) or asks a fresh uniform row. Models conversational follow-up
 * traffic; repeat_probability = 1.0 yields a repeat-only trace whose
 * measured cache hit rate legitimately reaches 1.0.
 */
QueryStream RepeatNeighborQueryStream(int count, int64_t pool_rows,
                                      const RepeatNeighborOptions& options,
                                      uint64_t seed);

}  // namespace rago::runtime

#endif  // RAGO_SERVING_RUNTIME_WORKLOAD_H
