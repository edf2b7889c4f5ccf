// The time-step governor: the one place that decides the T a batch runs at.
//
// The paper's central result — accuracy holds down to T = 2-3 when per-layer
// (alpha, beta) scaling is used — gives a converted SNN a degradation axis
// that conventional DNN serving lacks: under distress the engine can shed
// *time steps* instead of requests. The governor keeps one ladder of
// time-step budgets, healthy to most degraded (e.g. {3, 2, 1}), and two rung
// indices into it, one per signal:
//
//  - health (numeric distress, the circuit breaker): one rung down per
//    `failure_threshold` consecutive unhealthy batches (NaN/Inf/exploded
//    logits, or exhausted forward retries), one rung up per
//    `recovery_threshold` consecutive healthy ones. Falling off the last
//    rung opens the circuit: batches get a static kUnavailable response
//    without touching the network. After `open_cooldown` refused batches the
//    circuit half-opens and lets a single probe batch through at the last
//    rung; success re-enters the ladder, failure re-opens.
//  - load (queue pressure, brownout): one rung down per kLoadDwell
//    consecutive queue observations at or above kHighWatermark, one rung up
//    per kLoadDwell at or below kLowWatermark; between the watermarks both
//    streaks reset, so the rung holds steady instead of oscillating.
//
// Each batch is granted T = ladder[max(health rung, load rung)]. The signals
// never move each other's rung: health recovery cannot lift a load-driven
// degradation, and load relief cannot lift a health-driven one.
//
// All bookkeeping is event-count-based rather than wall-clock-based, so a
// fixed verdict/load trace drives a bit-identical transition sequence — the
// chaos tests assert the exact healthy -> degraded -> open -> half-open ->
// healthy path. Thread-safe: all state sits behind one mutex (decisions are
// per batch, far off the per-element hot path).
//
// The governor publishes nothing itself: the serving engine renders its
// serve.breaker.* and serve.overload.brownout_* series from the accessors
// below when /metrics is scraped, so each engine exports its own governor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/mutex.h"

namespace ullsnn::serve {

/// The health signal's state machine (the circuit breaker).
enum class BreakerState {
  kClosed,    // health rung 0
  kDegraded,  // on a lower health rung
  kOpen,      // circuit open: static unavailable responses
  kHalfOpen,  // cooldown elapsed: next batch is a probe
};

const char* to_string(BreakerState state);

/// Which signal moved the governor.
enum class Signal { kHealth, kLoad };

const char* to_string(Signal signal);

struct GovernorConfig {
  /// Time-step budgets from healthy to most-degraded. Must be non-empty and
  /// strictly decreasing.
  std::vector<std::int64_t> ladder = {3, 2, 1};
  /// Consecutive unhealthy batches before descending one health rung (or
  /// opening when already on the last rung).
  std::int64_t failure_threshold = 3;
  /// Consecutive healthy batches before ascending one health rung.
  std::int64_t recovery_threshold = 8;
  /// Batches refused while open before half-opening for a probe.
  std::int64_t open_cooldown = 16;
};

class TimeStepGovernor {
 public:
  /// Queue-depth fraction (total depth / total capacity) at or above which
  /// load pressure accumulates toward descending one rung.
  static constexpr double kHighWatermark = 0.5;
  /// Fraction at or below which relief accumulates toward climbing one rung.
  static constexpr double kLowWatermark = 0.125;
  /// Consecutive queue observations past a watermark before the load rung
  /// moves.
  static constexpr std::int64_t kLoadDwell = 8;

  explicit TimeStepGovernor(GovernorConfig config);

  /// Per-batch gate. allow == false => respond kUnavailable without running
  /// the network. When allowed, run at `time_steps`; `probe` marks the
  /// single half-open trial batch (always at ladder.back()).
  struct Decision {
    bool allow = true;
    std::int64_t time_steps = 0;
    bool probe = false;
  };
  Decision admit();

  /// Health signal: the numeric verdict of an admitted batch.
  void record(bool healthy);

  /// Load signal: one queue-depth observation (depth / capacity, >= 0).
  /// Returns the load rung after it.
  std::int64_t observe_queue(double depth_fraction);

  BreakerState state() const;
  /// Rung of each signal (0 = top). The health rung sits on the last rung
  /// while open/half-open.
  std::int64_t health_rung() const;
  std::int64_t load_rung() const;
  /// The T admit() grants now; 0 while the circuit is open.
  std::int64_t time_steps() const;
  std::int64_t full_time_steps() const { return config_.ladder.front(); }

  /// One entry per state-or-rung change, in order. `sequence` counts
  /// admit()/record()/observe_queue() calls; `time_steps` is the T granted
  /// after the move (0 while open).
  struct Transition {
    std::int64_t sequence = 0;
    Signal signal = Signal::kHealth;
    BreakerState state = BreakerState::kClosed;
    std::int64_t time_steps = 0;
    std::string cause;
  };
  std::vector<Transition> history() const;

  std::int64_t trips() const;       // times the circuit opened
  std::int64_t probes() const;      // half-open probe batches admitted
  std::int64_t recoveries() const;  // times health returned to the top rung
  std::int64_t load_escalations() const;  // load rungs descended
  std::int64_t load_recoveries() const;   // load rungs climbed back
  /// Deepest load rung reached so far (0 if never browned out).
  std::int64_t deepest_load_rung() const;

 private:
  std::int64_t granted_t_locked() const REQUIRES(mu_);
  /// Record a transition (history, flight recorder, log).
  void note(Signal signal, const char* cause) REQUIRES(mu_);

  const GovernorConfig config_;
  mutable Mutex mu_;
  std::int64_t sequence_ GUARDED_BY(mu_) = 0;
  std::vector<Transition> history_ GUARDED_BY(mu_);
  // Health signal.
  BreakerState state_ GUARDED_BY(mu_) = BreakerState::kClosed;
  std::int64_t health_rung_ GUARDED_BY(mu_) = 0;
  std::int64_t consecutive_failures_ GUARDED_BY(mu_) = 0;
  std::int64_t consecutive_successes_ GUARDED_BY(mu_) = 0;
  std::int64_t cooldown_remaining_ GUARDED_BY(mu_) = 0;
  bool probe_in_flight_ GUARDED_BY(mu_) = false;
  std::int64_t trips_ GUARDED_BY(mu_) = 0;
  std::int64_t probes_ GUARDED_BY(mu_) = 0;
  std::int64_t recoveries_ GUARDED_BY(mu_) = 0;
  // Load signal.
  std::int64_t load_rung_ GUARDED_BY(mu_) = 0;
  std::int64_t deepest_load_rung_ GUARDED_BY(mu_) = 0;
  std::int64_t above_streak_ GUARDED_BY(mu_) = 0;
  std::int64_t below_streak_ GUARDED_BY(mu_) = 0;
  std::int64_t load_escalations_ GUARDED_BY(mu_) = 0;
  std::int64_t load_recoveries_ GUARDED_BY(mu_) = 0;
};

}  // namespace ullsnn::serve
