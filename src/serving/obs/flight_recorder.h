/**
 * @file flight_recorder.h
 * Bounded ring of recent telemetry/alert/engine records.
 *
 * When a soak run dies at request 843,112, the full trace is either
 * disabled or too large to keep; what post-mortems actually need is
 * the *last few hundred* notable things the engine saw. The flight
 * recorder is that black box: a fixed-capacity ring both engines
 * append to (window closes, alert transitions, admission rejections,
 * engine milestones), overwriting the oldest entries and counting the
 * overwritten so a dump always states what it lost.
 *
 * The ring is dumped as JSON on demand, and the engines dump it
 * automatically when serving aborts — a `RAGO_CHECK` failure or any
 * other exception unwinding the event loop writes the ring to the
 * configured path before the exception continues. Appends happen only
 * on the serial engine loops with virtual-clock timestamps, so ring
 * contents are deterministic and thread-count invariant like every
 * other observability surface.
 */
#ifndef RAGO_SERVING_OBS_FLIGHT_RECORDER_H
#define RAGO_SERVING_OBS_FLIGHT_RECORDER_H

#include <cstdint>
#include <deque>
#include <string>

#include "common/json_writer.h"

namespace rago::obs {

/// One black-box entry (virtual-clock seconds).
struct FlightRecord {
  double time = 0.0;
  std::string kind;     ///< "note", "window", "alert", "reject", ...
  std::string message;  ///< Human-readable one-liner.
  double value = 0.0;   ///< Kind-specific payload (attainment, burn).
};

/// Fixed-capacity append-only ring with an overwrite counter.
class FlightRecorder {
 public:
  explicit FlightRecorder(int capacity = 256);

  void Append(double time, std::string kind, std::string message,
              double value = 0.0);

  size_t size() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  /// Total appends ever; size() + dropped() == appended().
  int64_t appended() const { return appended_; }
  /// Oldest entries overwritten to stay within capacity.
  int64_t dropped() const { return dropped_; }
  /// Retained records, oldest first.
  const std::deque<FlightRecord>& records() const { return records_; }

  void Clear();

  /**
   * Emits {"capacity", "appended", "dropped", "records": [{"time",
   * "kind", "message", "value"}...]} as one deterministic object
   * value, oldest record first.
   */
  void WriteJson(JsonWriter& json) const;
  std::string Json() const;
  /// Writes Json() to `path`; throws ConfigError when the file cannot
  /// be opened, written in full or closed.
  void DumpToFile(const std::string& path) const;

 private:
  size_t capacity_;
  std::deque<FlightRecord> records_;
  int64_t appended_ = 0;
  int64_t dropped_ = 0;
};

}  // namespace rago::obs

#endif  // RAGO_SERVING_OBS_FLIGHT_RECORDER_H
