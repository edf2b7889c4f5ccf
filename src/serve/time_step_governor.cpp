#include "src/serve/time_step_governor.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"

namespace ullsnn::serve {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kDegraded: return "degraded";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

const char* to_string(Signal signal) {
  return signal == Signal::kHealth ? "health" : "load";
}

TimeStepGovernor::TimeStepGovernor(GovernorConfig config)
    : config_(std::move(config)) {
  if (config_.ladder.empty()) {
    throw std::invalid_argument("TimeStepGovernor: ladder must be non-empty");
  }
  for (std::size_t i = 0; i < config_.ladder.size(); ++i) {
    if (config_.ladder[i] <= 0) {
      throw std::invalid_argument("TimeStepGovernor: ladder time steps must be positive");
    }
    if (i > 0 && config_.ladder[i] >= config_.ladder[i - 1]) {
      throw std::invalid_argument("TimeStepGovernor: ladder must be strictly decreasing");
    }
  }
  if (config_.failure_threshold <= 0 || config_.recovery_threshold <= 0 ||
      config_.open_cooldown <= 0) {
    throw std::invalid_argument("TimeStepGovernor: thresholds must be positive");
  }
}

std::int64_t TimeStepGovernor::granted_t_locked() const {
  if (state_ == BreakerState::kOpen) return 0;
  return config_.ladder[static_cast<std::size_t>(std::max(health_rung_, load_rung_))];
}

void TimeStepGovernor::note(Signal signal, const char* cause) {
  const std::int64_t t = granted_t_locked();
  history_.push_back({sequence_, signal, state_, t, cause});

  const bool health = signal == Signal::kHealth;
  char moved_to[32];
  if (health) {
    std::snprintf(moved_to, sizeof moved_to, "%s", to_string(state_));
  } else {
    std::snprintf(moved_to, sizeof moved_to, "level %lld",
                  static_cast<long long>(load_rung_));
  }
  const char* kind = health ? "breaker" : "brownout";
  // Every transition lands in the flight recorder's event ring; an open
  // circuit is an anomaly and additionally triggers a (rate-limited) dump.
  if (health && state_ == BreakerState::kOpen) {
    obs::FlightRecorder::instance().note_anomaly(
        "breaker_open", "circuit opened: %s", cause);
  } else {
    obs::FlightRecorder::instance().record_event(
        kind, "-> %s (T=%lld): %s", moved_to, static_cast<long long>(t), cause);
  }
  obs::logf(obs::LogLevel::kInfo, "[serve] %s -> %s (T=%lld): %s", kind, moved_to,
            static_cast<long long>(t), cause);
}

TimeStepGovernor::Decision TimeStepGovernor::admit() {
  MutexLock lock(mu_);
  ++sequence_;
  switch (state_) {
    case BreakerState::kClosed:
    case BreakerState::kDegraded:
      return {true, granted_t_locked(), false};
    case BreakerState::kOpen:
      if (--cooldown_remaining_ > 0) return {false, 0, false};
      state_ = BreakerState::kHalfOpen;
      note(Signal::kHealth, "cooldown elapsed");
      break;
    case BreakerState::kHalfOpen:
      // Another worker's probe is outstanding; stay unavailable until its
      // verdict lands.
      if (probe_in_flight_) return {false, 0, false};
      break;
  }
  probe_in_flight_ = true;
  ++probes_;
  return {true, granted_t_locked(), true};
}

void TimeStepGovernor::record(bool healthy) {
  MutexLock lock(mu_);
  ++sequence_;
  if (state_ == BreakerState::kHalfOpen) {
    probe_in_flight_ = false;
    if (healthy) {
      consecutive_failures_ = 0;
      consecutive_successes_ = 0;
      state_ = health_rung_ == 0 ? BreakerState::kClosed : BreakerState::kDegraded;
      note(Signal::kHealth, "probe succeeded");
    } else {
      cooldown_remaining_ = config_.open_cooldown;
      state_ = BreakerState::kOpen;
      note(Signal::kHealth, "probe failed");
    }
    return;
  }
  if (state_ == BreakerState::kOpen) return;  // refused batches report nothing
  if (healthy) {
    consecutive_failures_ = 0;
    if (++consecutive_successes_ >= config_.recovery_threshold && health_rung_ > 0) {
      consecutive_successes_ = 0;
      --health_rung_;
      if (health_rung_ == 0) {
        ++recoveries_;
        state_ = BreakerState::kClosed;
        note(Signal::kHealth, "recovered to full T");
      } else {
        state_ = BreakerState::kDegraded;
        note(Signal::kHealth, "climbed one rung");
      }
    }
    return;
  }
  consecutive_successes_ = 0;
  if (++consecutive_failures_ < config_.failure_threshold) return;
  consecutive_failures_ = 0;
  if (health_rung_ + 1 < static_cast<std::int64_t>(config_.ladder.size())) {
    ++health_rung_;
    state_ = BreakerState::kDegraded;
    note(Signal::kHealth, "descended one rung");
  } else {
    ++trips_;
    cooldown_remaining_ = config_.open_cooldown;
    state_ = BreakerState::kOpen;
    note(Signal::kHealth, "last rung exhausted");
  }
}

std::int64_t TimeStepGovernor::observe_queue(double depth_fraction) {
  MutexLock lock(mu_);
  ++sequence_;
  if (depth_fraction >= kHighWatermark) {
    below_streak_ = 0;
    if (++above_streak_ >= kLoadDwell &&
        load_rung_ + 1 < static_cast<std::int64_t>(config_.ladder.size())) {
      above_streak_ = 0;
      ++load_rung_;
      deepest_load_rung_ = std::max(deepest_load_rung_, load_rung_);
      ++load_escalations_;
      note(Signal::kLoad, "sustained queue pressure");
    }
  } else if (depth_fraction <= kLowWatermark) {
    above_streak_ = 0;
    if (++below_streak_ >= kLoadDwell && load_rung_ > 0) {
      below_streak_ = 0;
      --load_rung_;
      ++load_recoveries_;
      note(Signal::kLoad, "queue pressure relieved");
    }
  } else {
    // Between the watermarks: hysteresis band, both streaks reset so the
    // rung holds steady instead of oscillating.
    above_streak_ = 0;
    below_streak_ = 0;
  }
  return load_rung_;
}

BreakerState TimeStepGovernor::state() const {
  MutexLock lock(mu_);
  return state_;
}

std::int64_t TimeStepGovernor::health_rung() const {
  MutexLock lock(mu_);
  return health_rung_;
}

std::int64_t TimeStepGovernor::load_rung() const {
  MutexLock lock(mu_);
  return load_rung_;
}

std::int64_t TimeStepGovernor::time_steps() const {
  MutexLock lock(mu_);
  return granted_t_locked();
}

std::vector<TimeStepGovernor::Transition> TimeStepGovernor::history() const {
  MutexLock lock(mu_);
  return history_;
}

std::int64_t TimeStepGovernor::trips() const {
  MutexLock lock(mu_);
  return trips_;
}

std::int64_t TimeStepGovernor::probes() const {
  MutexLock lock(mu_);
  return probes_;
}

std::int64_t TimeStepGovernor::recoveries() const {
  MutexLock lock(mu_);
  return recoveries_;
}

std::int64_t TimeStepGovernor::load_escalations() const {
  MutexLock lock(mu_);
  return load_escalations_;
}

std::int64_t TimeStepGovernor::load_recoveries() const {
  MutexLock lock(mu_);
  return load_recoveries_;
}

std::int64_t TimeStepGovernor::deepest_load_rung() const {
  MutexLock lock(mu_);
  return deepest_load_rung_;
}

}  // namespace ullsnn::serve
