// CoDel queueing-delay load shedding, one controller per priority lane.
//
// CoDelController watches *sojourn time* — how long a request sat in the
// queue before the batcher pulled it. When sojourn has exceeded a target
// continuously for a full interval, the queue has a standing backlog (not
// just a burst) and the controller starts shedding dequeued requests on the
// CoDel control law (drop_next = now + interval / sqrt(count)), shedding
// faster the longer the overload persists. The interactive lane gets a
// larger target than the batch lane, so batch work sheds first;
// strict-priority dequeue already keeps interactive sojourns short unless
// interactive traffic alone exceeds capacity.
//
// CoDel sheds requests; it never picks T. Load-driven T degradation
// (brownout) is the TimeStepGovernor's load signal (time_step_governor.h).
//
// Thread-safe: all lane state sits behind one mutex (decisions are
// per-dequeue, far off the per-element hot path).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "src/serve/request.h"
#include "src/util/mutex.h"

namespace ullsnn::serve {

struct CoDelConfig {
  /// Acceptable standing sojourn time for the batch lane.
  std::chrono::milliseconds target{5};
  /// Sojourn must stay above target for this long before shedding starts;
  /// also the base period of the drop law once it has.
  std::chrono::milliseconds interval{100};
  /// The interactive lane's target is `target * interactive_target_factor`:
  /// interactive work is the traffic being protected, so it sheds only when
  /// interactive demand alone exceeds capacity.
  double interactive_target_factor = 4.0;
};

/// Classic CoDel state machine, one instance per priority lane. Time is
/// passed in explicitly so tests can drive the state machine with a
/// synthetic clock.
class CoDelController {
 public:
  explicit CoDelController(CoDelConfig config);

  /// Called by the batcher for every dequeued request with its sojourn time
  /// (popped - enqueued). Returns true when the request should be shed
  /// (fulfilled kShed) instead of batched. Requests without a deadline must
  /// not be offered here — "no deadline" means "never shed".
  bool should_shed(Priority lane, Clock::duration sojourn, Clock::time_point now);

  /// Sheds decided so far for `lane`.
  std::int64_t shed_count(Priority lane) const;
  /// Whether `lane` is currently in the dropping state.
  bool dropping(Priority lane) const;

  const CoDelConfig& config() const { return config_; }

 private:
  struct LaneState {
    Clock::time_point first_above{};  // {} = sojourn not currently above target
    Clock::time_point drop_next{};
    bool dropping = false;
    std::int64_t count = 0;  // drops in the current dropping episode
    std::int64_t shed = 0;   // lifetime sheds (exported)
  };

  Clock::duration target_for(Priority lane) const;
  /// CoDel drop law: interval / sqrt(count).
  Clock::duration backoff(std::int64_t count) const;

  const CoDelConfig config_;
  mutable Mutex mu_;
  std::array<LaneState, kPriorityClasses> lanes_ GUARDED_BY(mu_);
};

}  // namespace ullsnn::serve
