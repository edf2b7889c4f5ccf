// TimeStepGovernor state machine, driven directly (no engine, no clock).
//
// CircuitBreakerTest pins the health signal (ladder descent, open,
// half-open probe, recovery), BrownoutTest the load signal (dwell +
// hysteresis on the queue-depth fraction), and TimeStepGovernorTest the two
// together: the granted T is ladder[max(health rung, load rung)] and
// neither signal ever moves the other's rung.
#include "src/serve/time_step_governor.h"

#include <gtest/gtest.h>

namespace ullsnn::serve {
namespace {

constexpr std::int64_t kDwell = TimeStepGovernor::kLoadDwell;

GovernorConfig fast_config() {
  GovernorConfig c;
  c.ladder = {3, 2, 1};
  c.failure_threshold = 2;
  c.recovery_threshold = 3;
  c.open_cooldown = 4;
  return c;
}

/// admit() + record() for one batch; returns the admitted T (0 if refused).
std::int64_t run_batch(TimeStepGovernor& governor, bool healthy) {
  const TimeStepGovernor::Decision d = governor.admit();
  if (!d.allow) return 0;
  governor.record(healthy);
  return d.time_steps;
}

/// `n` queue observations at `depth_fraction`.
void observe_n(TimeStepGovernor& governor, std::int64_t n, double depth_fraction) {
  for (std::int64_t i = 0; i < n; ++i) governor.observe_queue(depth_fraction);
}

// ---------------------------------------------------------------------------
// Health signal (the circuit breaker)
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, ValidatesConfig) {
  GovernorConfig empty;
  empty.ladder = {};
  EXPECT_THROW(TimeStepGovernor{empty}, std::invalid_argument);
  GovernorConfig increasing;
  increasing.ladder = {2, 3};
  EXPECT_THROW(TimeStepGovernor{increasing}, std::invalid_argument);
  GovernorConfig not_decreasing;
  not_decreasing.ladder = {3, 3, 1};
  EXPECT_THROW(TimeStepGovernor{not_decreasing}, std::invalid_argument);
  GovernorConfig zero_t;
  zero_t.ladder = {2, 0};
  EXPECT_THROW(TimeStepGovernor{zero_t}, std::invalid_argument);
  GovernorConfig bad_threshold = fast_config();
  bad_threshold.failure_threshold = 0;
  EXPECT_THROW(TimeStepGovernor{bad_threshold}, std::invalid_argument);
}

TEST(CircuitBreakerTest, StartsClosedAtFullTimeSteps) {
  TimeStepGovernor governor(fast_config());
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  EXPECT_EQ(governor.health_rung(), 0);
  EXPECT_EQ(governor.load_rung(), 0);
  EXPECT_EQ(governor.time_steps(), 3);
  EXPECT_EQ(governor.full_time_steps(), 3);
  const TimeStepGovernor::Decision d = governor.admit();
  EXPECT_TRUE(d.allow);
  EXPECT_EQ(d.time_steps, 3);
  EXPECT_FALSE(d.probe);
}

TEST(CircuitBreakerTest, ConsecutiveFailuresDescendTheLadder) {
  TimeStepGovernor governor(fast_config());
  // failure_threshold = 2: two unhealthy batches per rung.
  run_batch(governor, false);
  EXPECT_EQ(governor.state(), BreakerState::kClosed);  // 1 failure: no move yet
  run_batch(governor, false);
  EXPECT_EQ(governor.state(), BreakerState::kDegraded);
  EXPECT_EQ(governor.time_steps(), 2);
  run_batch(governor, false);
  run_batch(governor, false);
  EXPECT_EQ(governor.time_steps(), 1);
  run_batch(governor, false);
  run_batch(governor, false);
  EXPECT_EQ(governor.state(), BreakerState::kOpen);
  EXPECT_EQ(governor.time_steps(), 0);  // nothing is granted while open
  EXPECT_EQ(governor.trips(), 1);
}

TEST(CircuitBreakerTest, InterleavedSuccessResetsTheFailureStreak) {
  TimeStepGovernor governor(fast_config());
  // fail, heal, fail, heal, ... never reaches failure_threshold = 2 in a row.
  for (int i = 0; i < 10; ++i) {
    run_batch(governor, false);
    run_batch(governor, true);
  }
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  EXPECT_EQ(governor.time_steps(), 3);
  EXPECT_EQ(governor.trips(), 0);
}

TEST(CircuitBreakerTest, OpenRefusesUntilCooldownThenProbes) {
  TimeStepGovernor governor(fast_config());
  for (int i = 0; i < 6; ++i) run_batch(governor, false);  // drive to open
  ASSERT_EQ(governor.state(), BreakerState::kOpen);
  // open_cooldown = 4: three refusals, then the fourth admit is the probe.
  for (int i = 0; i < 3; ++i) {
    const TimeStepGovernor::Decision d = governor.admit();
    EXPECT_FALSE(d.allow) << "refusal " << i;
  }
  const TimeStepGovernor::Decision probe = governor.admit();
  EXPECT_TRUE(probe.allow);
  EXPECT_TRUE(probe.probe);
  EXPECT_EQ(probe.time_steps, 1);  // probes run at the most conservative rung
  EXPECT_EQ(governor.state(), BreakerState::kHalfOpen);
  // While the probe is in flight, other workers stay refused.
  EXPECT_FALSE(governor.admit().allow);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  TimeStepGovernor governor(fast_config());
  for (int i = 0; i < 6; ++i) run_batch(governor, false);
  for (int i = 0; i < 3; ++i) governor.admit();
  ASSERT_TRUE(governor.admit().probe);
  governor.record(false);
  EXPECT_EQ(governor.state(), BreakerState::kOpen);
  // The cooldown restarts in full.
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(governor.admit().allow);
  EXPECT_TRUE(governor.admit().probe);
}

TEST(CircuitBreakerTest, FullTripAndRecoveryPath) {
  TimeStepGovernor governor(fast_config());
  // Descend: closed -> degraded(T=2) -> degraded(T=1) -> open.
  for (int i = 0; i < 6; ++i) run_batch(governor, false);
  ASSERT_EQ(governor.state(), BreakerState::kOpen);
  // Cooldown, then a successful probe re-enters the ladder at the last rung.
  for (int i = 0; i < 3; ++i) governor.admit();
  ASSERT_TRUE(governor.admit().probe);
  governor.record(true);
  EXPECT_EQ(governor.state(), BreakerState::kDegraded);
  EXPECT_EQ(governor.time_steps(), 1);
  // recovery_threshold = 3 healthy batches per rung: 1 -> 2 -> 3.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_batch(governor, true), 1);
  EXPECT_EQ(governor.time_steps(), 2);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_batch(governor, true), 2);
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  EXPECT_EQ(governor.time_steps(), 3);
  EXPECT_EQ(governor.trips(), 1);
  EXPECT_EQ(governor.probes(), 1);
  EXPECT_EQ(governor.recoveries(), 1);

  // The transition history captures the whole arc in order, every entry
  // moved by the health signal.
  const auto history = governor.history();
  std::vector<BreakerState> states;
  states.reserve(history.size());
  for (const auto& t : history) {
    states.push_back(t.state);
    EXPECT_EQ(t.signal, Signal::kHealth);
  }
  const std::vector<BreakerState> expected = {
      BreakerState::kDegraded,  // T=2
      BreakerState::kDegraded,  // T=1
      BreakerState::kOpen,      // tripped
      BreakerState::kHalfOpen,  // cooldown elapsed
      BreakerState::kDegraded,  // probe succeeded, back on last rung
      BreakerState::kDegraded,  // climbed to T=2
      BreakerState::kClosed,    // recovered to full T
  };
  EXPECT_EQ(states, expected);
  // Sequence numbers are strictly increasing (event-ordered history).
  for (std::size_t i = 1; i < history.size(); ++i) {
    EXPECT_GT(history[i].sequence, history[i - 1].sequence);
  }
}

TEST(CircuitBreakerTest, DeterministicAcrossIdenticalRuns) {
  // Same verdict and load schedule => bit-identical transition history;
  // this is the property the chaos tests lean on.
  const auto drive = [](TimeStepGovernor& g) {
    for (int round = 0; round < 3; ++round) {
      observe_n(g, kDwell, 0.9);  // load rung 1
      for (int i = 0; i < 6; ++i) run_batch(g, false);
      for (int i = 0; i < 3; ++i) g.admit();
      g.admit();
      g.record(true);
      for (int i = 0; i < 9; ++i) run_batch(g, true);
      observe_n(g, kDwell, 0.0);  // load relieved
    }
  };
  TimeStepGovernor a(fast_config());
  TimeStepGovernor b(fast_config());
  drive(a);
  drive(b);
  const auto ha = a.history();
  const auto hb = b.history();
  ASSERT_EQ(ha.size(), hb.size());
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].sequence, hb[i].sequence);
    EXPECT_EQ(ha[i].signal, hb[i].signal);
    EXPECT_EQ(ha[i].state, hb[i].state);
    EXPECT_EQ(ha[i].time_steps, hb[i].time_steps);
    EXPECT_EQ(ha[i].cause, hb[i].cause);
  }
  EXPECT_EQ(a.trips(), 3);
  EXPECT_EQ(a.recoveries(), 3);
  EXPECT_EQ(a.load_escalations(), 3);
  EXPECT_EQ(a.load_recoveries(), 3);
}

// ---------------------------------------------------------------------------
// Load signal (brownout)
// ---------------------------------------------------------------------------

TEST(BrownoutTest, ValidatesConfig) {
  // The load signal's dwell and watermarks are constants now; what the
  // constructor used to reject, the compiler checks.
  static_assert(TimeStepGovernor::kLoadDwell > 0);
  static_assert(TimeStepGovernor::kLowWatermark >= 0.0);
  static_assert(TimeStepGovernor::kLowWatermark < TimeStepGovernor::kHighWatermark);
  // The ladder is shared with the health signal and validated once.
  GovernorConfig empty_ladder;
  empty_ladder.ladder = {};
  EXPECT_THROW(TimeStepGovernor{empty_ladder}, std::invalid_argument);
  GovernorConfig not_decreasing;
  not_decreasing.ladder = {3, 3, 1};
  EXPECT_THROW(TimeStepGovernor{not_decreasing}, std::invalid_argument);
  GovernorConfig zero_t;
  zero_t.ladder = {2, 0};
  EXPECT_THROW(TimeStepGovernor{zero_t}, std::invalid_argument);
}

TEST(BrownoutTest, EscalatesOneRungPerDwell) {
  TimeStepGovernor governor(GovernorConfig{});
  EXPECT_EQ(governor.time_steps(), 3);
  for (std::int64_t i = 1; i < kDwell; ++i) EXPECT_EQ(governor.observe_queue(0.6), 0);
  EXPECT_EQ(governor.observe_queue(0.6), 1);  // dwell observations met
  EXPECT_EQ(governor.time_steps(), 2);
  EXPECT_EQ(governor.load_escalations(), 1);
  // Next rung needs a fresh dwell count.
  for (std::int64_t i = 1; i < kDwell; ++i) EXPECT_EQ(governor.observe_queue(0.9), 1);
  EXPECT_EQ(governor.observe_queue(0.9), 2);
  EXPECT_EQ(governor.time_steps(), 1);
  // Clamped at the ladder floor.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(governor.observe_queue(1.0), 2);
  EXPECT_EQ(governor.load_escalations(), 2);
  EXPECT_EQ(governor.deepest_load_rung(), 2);
  // Load never touches the health state machine.
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  EXPECT_EQ(governor.health_rung(), 0);
}

TEST(BrownoutTest, RecoversOneRungPerDwell) {
  TimeStepGovernor governor(GovernorConfig{});
  observe_n(governor, 2 * kDwell, 0.8);
  ASSERT_EQ(governor.load_rung(), 2);
  for (std::int64_t i = 1; i < kDwell; ++i) EXPECT_EQ(governor.observe_queue(0.05), 2);
  EXPECT_EQ(governor.observe_queue(0.05), 1);
  for (std::int64_t i = 1; i < kDwell; ++i) EXPECT_EQ(governor.observe_queue(0.05), 1);
  EXPECT_EQ(governor.observe_queue(0.05), 0);
  EXPECT_EQ(governor.time_steps(), 3);
  EXPECT_EQ(governor.load_recoveries(), 2);
  // Fully recovered: stays at full quality.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(governor.observe_queue(0.0), 0);
  EXPECT_EQ(governor.load_recoveries(), 2);
  EXPECT_EQ(governor.deepest_load_rung(), 2);  // history, not current rung
}

TEST(BrownoutTest, HysteresisBandHoldsLevelAndResetsStreaks) {
  TimeStepGovernor governor(GovernorConfig{});
  observe_n(governor, kDwell, 0.7);
  ASSERT_EQ(governor.load_rung(), 1);
  // Between the watermarks: no drift in either direction, however long.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(governor.observe_queue(0.3), 1);
  // The band also resets partial streaks: dwell-1 high, 1 mid, dwell-1 high
  // never accumulates the full dwell.
  observe_n(governor, kDwell - 1, 0.7);
  governor.observe_queue(0.3);
  observe_n(governor, kDwell - 2, 0.7);
  EXPECT_EQ(governor.observe_queue(0.7), 1);
  EXPECT_EQ(governor.load_escalations(), 1);
}

// ---------------------------------------------------------------------------
// Both signals together
// ---------------------------------------------------------------------------

/// Fresh governor on the {3, 2, 1} ladder, driven to the given rungs.
void drive_to(TimeStepGovernor& governor, std::int64_t health_rung,
              std::int64_t load_rung) {
  const GovernorConfig c = fast_config();
  for (std::int64_t i = 0; i < health_rung * c.failure_threshold; ++i) {
    run_batch(governor, false);
  }
  observe_n(governor, load_rung * kDwell, 1.0);
}

TEST(TimeStepGovernorTest, GrantsTheLadderAtTheDeeperRung) {
  struct Case {
    std::int64_t health;
    std::int64_t load;
    std::int64_t expected_t;
  };
  const Case cases[] = {
      {0, 0, 3}, {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 1, 2},
      {1, 2, 1}, {2, 0, 1}, {2, 1, 1}, {2, 2, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "health rung " << c.health << ", load rung "
                                    << c.load);
    TimeStepGovernor governor(fast_config());
    drive_to(governor, c.health, c.load);
    ASSERT_EQ(governor.health_rung(), c.health);
    ASSERT_EQ(governor.load_rung(), c.load);
    EXPECT_EQ(governor.time_steps(), c.expected_t);
    const TimeStepGovernor::Decision d = governor.admit();
    EXPECT_TRUE(d.allow);
    EXPECT_FALSE(d.probe);
    EXPECT_EQ(d.time_steps, c.expected_t);
    // The health state names the health signal only.
    EXPECT_EQ(governor.state(),
              c.health == 0 ? BreakerState::kClosed : BreakerState::kDegraded);
  }
}

TEST(TimeStepGovernorTest, HealthRecoveryNeverLiftsTheLoadRung) {
  TimeStepGovernor governor(fast_config());
  drive_to(governor, 1, 2);
  ASSERT_EQ(governor.time_steps(), 1);
  // recovery_threshold = 3 healthy batches: health climbs back to the top.
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_batch(governor, true), 1);
  EXPECT_EQ(governor.health_rung(), 0);
  EXPECT_EQ(governor.state(), BreakerState::kClosed);
  EXPECT_EQ(governor.recoveries(), 1);
  // ... but the load rung still holds T down.
  EXPECT_EQ(governor.load_rung(), 2);
  EXPECT_EQ(governor.time_steps(), 1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(run_batch(governor, true), 1);
  EXPECT_EQ(governor.load_rung(), 2);
}

TEST(TimeStepGovernorTest, LoadReliefNeverLiftsTheHealthRung) {
  TimeStepGovernor governor(fast_config());
  drive_to(governor, 2, 1);
  ASSERT_EQ(governor.time_steps(), 1);
  observe_n(governor, 4 * kDwell, 0.0);
  EXPECT_EQ(governor.load_rung(), 0);
  EXPECT_EQ(governor.load_recoveries(), 1);
  EXPECT_EQ(governor.health_rung(), 2);
  EXPECT_EQ(governor.state(), BreakerState::kDegraded);
  EXPECT_EQ(governor.time_steps(), 1);
}

TEST(TimeStepGovernorTest, HalfOpenProbeRunsAtTheLastRungWhateverTheLoad) {
  for (std::int64_t load = 0; load < 3; ++load) {
    SCOPED_TRACE(testing::Message() << "load rung " << load);
    TimeStepGovernor governor(fast_config());
    for (int i = 0; i < 6; ++i) run_batch(governor, false);  // open
    ASSERT_EQ(governor.state(), BreakerState::kOpen);
    // Load moves while the circuit is open, but nothing is granted.
    observe_n(governor, load * kDwell, 1.0);
    EXPECT_EQ(governor.load_rung(), load);
    EXPECT_EQ(governor.time_steps(), 0);
    for (int i = 0; i < 3; ++i) EXPECT_FALSE(governor.admit().allow);
    const TimeStepGovernor::Decision probe = governor.admit();
    EXPECT_TRUE(probe.allow);
    EXPECT_TRUE(probe.probe);
    EXPECT_EQ(probe.time_steps, 1);
    governor.record(true);
    EXPECT_EQ(governor.state(), BreakerState::kDegraded);
    EXPECT_EQ(governor.time_steps(), 1);
  }
}

TEST(TimeStepGovernorTest, HistoryNamesTheSignalThatMovedIt) {
  TimeStepGovernor governor(fast_config());
  observe_n(governor, kDwell, 1.0);  // load: T 3 -> 2
  run_batch(governor, false);
  run_batch(governor, false);        // health: rung 1, T stays 2
  observe_n(governor, kDwell, 0.0);  // load relieved, T stays 2
  const auto history = governor.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0].signal, Signal::kLoad);
  EXPECT_EQ(history[0].time_steps, 2);
  EXPECT_EQ(history[0].state, BreakerState::kClosed);
  EXPECT_EQ(history[1].signal, Signal::kHealth);
  EXPECT_EQ(history[1].time_steps, 2);
  EXPECT_EQ(history[1].state, BreakerState::kDegraded);
  EXPECT_EQ(history[2].signal, Signal::kLoad);
  EXPECT_EQ(history[2].time_steps, 2);
  EXPECT_GT(history[1].sequence, history[0].sequence);
  EXPECT_GT(history[2].sequence, history[1].sequence);
}

}  // namespace
}  // namespace ullsnn::serve
