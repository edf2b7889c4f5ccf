#include "src/serve/overload.h"

#include <cmath>
#include <stdexcept>

namespace ullsnn::serve {

CoDelController::CoDelController(CoDelConfig config) : config_(config) {
  if (config_.target.count() <= 0 || config_.interval.count() <= 0) {
    throw std::invalid_argument("CoDel: target and interval must be positive");
  }
  if (config_.interactive_target_factor < 1.0) {
    throw std::invalid_argument(
        "CoDel: interactive_target_factor must be >= 1 (interactive sheds last)");
  }
}

Clock::duration CoDelController::target_for(Priority lane) const {
  if (lane == Priority::kInteractive) {
    return std::chrono::duration_cast<Clock::duration>(
        config_.target * config_.interactive_target_factor);
  }
  return config_.target;
}

Clock::duration CoDelController::backoff(std::int64_t count) const {
  return std::chrono::duration_cast<Clock::duration>(
      config_.interval / std::sqrt(static_cast<double>(count < 1 ? 1 : count)));
}

bool CoDelController::should_shed(Priority lane, Clock::duration sojourn,
                                  Clock::time_point now) {
  MutexLock lock(mu_);
  LaneState& s = lanes_[static_cast<std::size_t>(lane)];
  if (sojourn < target_for(lane)) {
    // Below target: the standing queue (if any) has drained. Exit dropping
    // but keep `count` — CoDel's memory of recent overload makes the next
    // episode ramp faster if congestion returns quickly.
    s.first_above = {};
    s.dropping = false;
    return false;
  }
  if (s.first_above == Clock::time_point{}) {
    // First sample above target: arm the interval timer. A transient burst
    // that drains within one interval never sheds anything.
    s.first_above = now + config_.interval;
    return false;
  }
  if (s.dropping) {
    if (now >= s.drop_next) {
      ++s.count;
      ++s.shed;
      s.drop_next = now + backoff(s.count);
      return true;
    }
    return false;
  }
  if (now >= s.first_above) {
    // Sojourn stayed above target for a full interval: a standing backlog,
    // not a burst. Enter dropping; re-start near the previous episode's rate
    // if it ended recently (the control-law memory above).
    s.dropping = true;
    s.count = s.count > 2 ? s.count - 2 : 1;
    ++s.shed;
    s.drop_next = now + backoff(s.count);
    return true;
  }
  return false;
}

std::int64_t CoDelController::shed_count(Priority lane) const {
  MutexLock lock(mu_);
  return lanes_[static_cast<std::size_t>(lane)].shed;
}

bool CoDelController::dropping(Priority lane) const {
  MutexLock lock(mu_);
  return lanes_[static_cast<std::size_t>(lane)].dropping;
}

}  // namespace ullsnn::serve
