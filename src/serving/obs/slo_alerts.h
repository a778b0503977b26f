/**
 * @file slo_alerts.h
 * Multi-window burn-rate alerting over windowed SLO attainment.
 *
 * A single "attainment dipped below goal" check either pages on every
 * transient blip (short horizon) or hours late (long horizon). The
 * SRE-style answer is **multi-window burn rates**: express each window
 * as the rate at which it consumes the error budget
 *
 *     burn = error_rate / (1 - attainment_goal)
 *
 * (burn 1.0 = exactly on budget) and fire only when BOTH a short and a
 * long trailing window burn above the rule's threshold — the long
 * window proves the problem is sustained, the short window proves it
 * is still happening. Clearing keys off the short window alone, so
 * recovery is detected fast while the long window still remembers the
 * incident. On top of that, firing/clearing require `fire_after` /
 * `clear_after` consecutive breaching/clean evaluations (hysteresis),
 * so a flapping signal cannot flap the alert.
 *
 * The engine consumes `WindowSummary` values from the telemetry
 * time-series, one per closed fine window, on the serial engine loop.
 * Trailing windows are quantized to whole fine windows (a fine window
 * counts toward a trailing horizon while its end lies inside it), and
 * the retained history is bounded by the longest rule horizon.
 * Everything is a pure function of the window sequence: transitions
 * are deterministic events that the engine emits as trace instants
 * and appends to the flight recorder. They never reach the outcome
 * digest.
 */
#ifndef RAGO_SERVING_OBS_SLO_ALERTS_H
#define RAGO_SERVING_OBS_SLO_ALERTS_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "serving/obs/timeseries.h"

namespace rago::obs {

/// One short/long window pair with firing/clearing hysteresis.
struct BurnRateRule {
  std::string name = "page";
  double short_window_seconds = 5.0;  ///< "Still happening" horizon.
  double long_window_seconds = 60.0;  ///< "Sustained" horizon.
  /// Fires when both windows burn at or above this multiple of the
  /// error budget; 1.0 = exactly on budget.
  double burn_threshold = 2.0;
  /// Consecutive breaching evaluations before the alert fires.
  int fire_after = 1;
  /// Consecutive clean short-window evaluations before it clears.
  int clear_after = 1;

  /// Throws ConfigError on empty name, non-positive horizons or
  /// threshold, short >= long, or non-positive hysteresis counts.
  void Validate() const;
};

/// Alerting policy: the SLO goal the budget derives from + rules.
struct SloAlertOptions {
  /// Attainment goal in (0, 1); error budget is 1 - attainment_goal.
  double attainment_goal = 0.95;
  std::vector<BurnRateRule> rules;

  /// Throws ConfigError on a goal outside (0, 1) or an invalid rule.
  void Validate() const;
};

/// One deterministic alert-state transition.
struct AlertTransition {
  double time = 0.0;       ///< Virtual time (end of triggering window).
  int rule = 0;            ///< Index into options().rules.
  bool firing = false;     ///< true = fired, false = cleared.
  double short_burn = 0.0; ///< Short-window burn at the transition.
  double long_burn = 0.0;  ///< Long-window burn at the transition.
};

/**
 * Evaluates every rule once per observed window and accumulates the
 * resulting transitions. Deterministic and observation-only; reusable
 * across runs via Clear().
 */
class SloAlertEngine {
 public:
  explicit SloAlertEngine(SloAlertOptions options);

  /// Observes the next closed fine window (oldest first, contiguous)
  /// and returns the transitions it caused, in rule order.
  std::vector<AlertTransition> Observe(const WindowSummary& window);

  bool Firing(int rule) const;
  /// All transitions so far, in observation order.
  const std::vector<AlertTransition>& transitions() const {
    return transitions_;
  }
  const SloAlertOptions& options() const { return options_; }

  /// Burn rate over the trailing `window_seconds` ending at `end`,
  /// quantized to the fine windows whose end lies in (end - horizon,
  /// end]. 0 when those windows saw no terminal events.
  double BurnRate(double window_seconds, double end) const;

  /// Resets alert state and history; options are retained.
  void Clear();

  /**
   * Emits {"attainment_goal", "rules": [{"name", "firing", ...}...],
   * "transitions": [{"time", "rule", "firing", "short_burn",
   * "long_burn"}...]} as one deterministic object value.
   */
  void WriteJson(JsonWriter& json) const;
  std::string Json() const;

 private:
  struct RuleState {
    bool firing = false;
    int breach_streak = 0;
    int clean_streak = 0;
  };

  SloAlertOptions options_;
  double max_horizon_ = 0.0;
  std::deque<WindowSummary> history_;  ///< Bounded by max_horizon_.
  std::vector<RuleState> states_;
  std::vector<AlertTransition> transitions_;
};

}  // namespace rago::obs

#endif  // RAGO_SERVING_OBS_SLO_ALERTS_H
