/**
 * @file spans.h
 * In-memory host-time spans for the traced benchmark run.
 *
 * The benchmark opens a span around each call it makes into a layer's
 * public functions (index build, optimizer search, serve, scans,
 * kernels, ...). Spans nest through an explicit parent id, are kept in
 * memory while the run measures, and are written out once at the end
 * as Chrome trace JSON. Disabled recorders cost one branch per span.
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string layer;  ///< Module the call enters, e.g. "serving/runtime".
    std::string name;   ///< The call, e.g. "Serve".
    int parent = -1;    ///< Index of the enclosing span, -1 at top level.
    double start = 0.0; ///< Host seconds since the recorder was made.
    double end = 0.0;
  };

  explicit SpanRecorder(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(std::string layer, std::string name, int parent = -1);
  /// Closes span `id` and returns its duration in seconds (0 when
  /// disabled).
  double End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as a Chrome trace ("X" events, microseconds).
  /// Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  double Now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string layer, std::string name,
             int parent = -1)
      : recorder_(recorder),
        id_(recorder.Begin(std::move(layer), std::move(name), parent)) {}
  ~ScopedSpan() { recorder_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
