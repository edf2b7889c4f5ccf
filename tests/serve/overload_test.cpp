// CoDel controller state machine, driven with a synthetic clock so every
// transition is exact: bursts shorter than one interval never shed, a
// standing backlog sheds on the drop law, and the interactive lane sheds
// after the batch lane. (Brownout, the load signal of the T ladder, is
// covered in time_step_governor_test.cpp.)
#include "src/serve/overload.h"

#include <gtest/gtest.h>

#include <chrono>

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;

/// Synthetic clock: absolute time points offset from a fixed epoch.
Clock::time_point at(std::chrono::milliseconds offset) {
  return Clock::time_point{} + offset;
}

CoDelConfig codel_config() {
  CoDelConfig c;
  c.target = 5ms;
  c.interval = 100ms;
  c.interactive_target_factor = 4.0;  // interactive target: 20ms
  return c;
}

TEST(CoDelTest, ValidatesConfig) {
  CoDelConfig zero_target = codel_config();
  zero_target.target = 0ms;
  EXPECT_THROW(CoDelController{zero_target}, std::invalid_argument);
  CoDelConfig zero_interval = codel_config();
  zero_interval.interval = 0ms;
  EXPECT_THROW(CoDelController{zero_interval}, std::invalid_argument);
  CoDelConfig inverted = codel_config();
  inverted.interactive_target_factor = 0.5;  // interactive would shed first
  EXPECT_THROW(CoDelController{inverted}, std::invalid_argument);
}

TEST(CoDelTest, BelowTargetNeverSheds) {
  CoDelController codel(codel_config());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(codel.should_shed(Priority::kBatch, 4ms, at(i * 10ms)));
  }
  EXPECT_EQ(codel.shed_count(Priority::kBatch), 0);
  EXPECT_FALSE(codel.dropping(Priority::kBatch));
}

TEST(CoDelTest, TransientBurstShorterThanIntervalNeverSheds) {
  CoDelController codel(codel_config());
  // Sojourn above target, but each excursion drains before a full interval
  // elapses: first_above re-arms on every dip below target.
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 10ms, at(0ms)));
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 12ms, at(50ms)));
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 2ms, at(60ms)));  // drains
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 11ms, at(70ms)));
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 10ms, at(150ms)));
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 1ms, at(160ms)));  // drains
  EXPECT_EQ(codel.shed_count(Priority::kBatch), 0);
  EXPECT_FALSE(codel.dropping(Priority::kBatch));
}

TEST(CoDelTest, StandingBacklogShedsOnDropLaw) {
  CoDelController codel(codel_config());
  // Sojourn continuously above target: first sample arms the interval timer,
  // a full interval later the lane enters dropping and sheds immediately.
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 10ms, at(0ms)));
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 15ms, at(50ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(100ms)));
  EXPECT_TRUE(codel.dropping(Priority::kBatch));
  // Drop law: next shed at 100ms + interval/sqrt(1) = 200ms.
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 20ms, at(150ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(200ms)));
  // count=2: next at 200ms + 100/sqrt(2) ~ 270.7ms — spacing shrinks the
  // longer the overload persists.
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 20ms, at(260ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(271ms)));
  EXPECT_EQ(codel.shed_count(Priority::kBatch), 3);
}

TEST(CoDelTest, InteractiveLaneShedsOnlyAboveItsLargerTarget) {
  CoDelController codel(codel_config());
  // 10ms sojourn: above the 5ms batch target, below the 20ms interactive
  // target — only the batch lane ever sheds at this pressure.
  for (int i = 0; i <= 5; ++i) {
    codel.should_shed(Priority::kBatch, 10ms, at(i * 50ms));
    EXPECT_FALSE(codel.should_shed(Priority::kInteractive, 10ms, at(i * 50ms)));
  }
  EXPECT_GT(codel.shed_count(Priority::kBatch), 0);
  EXPECT_EQ(codel.shed_count(Priority::kInteractive), 0);
  EXPECT_FALSE(codel.dropping(Priority::kInteractive));

  // Interactive sheds too once *its* target is exceeded for an interval:
  // priority softens shedding, it does not exempt the lane.
  EXPECT_FALSE(codel.should_shed(Priority::kInteractive, 30ms, at(1000ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kInteractive, 30ms, at(1100ms)));
  EXPECT_EQ(codel.shed_count(Priority::kInteractive), 1);
}

TEST(CoDelTest, EpisodeMemoryRampsFasterOnQuickReentry) {
  CoDelController codel(codel_config());
  // Build an episode up to count=4 (sheds at 100, 200, ~271, ~329).
  codel.should_shed(Priority::kBatch, 20ms, at(0ms));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(100ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(200ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(271ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(329ms)));
  // Backlog drains: exit dropping, but keep the episode's count memory.
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 1ms, at(400ms)));
  EXPECT_FALSE(codel.dropping(Priority::kBatch));
  // Congestion returns: re-entry restarts at count-2=2, so the second shed
  // of the new episode comes interval/sqrt(2) ~ 70.7ms after the first —
  // a fresh episode would have waited the full 100ms.
  codel.should_shed(Priority::kBatch, 20ms, at(500ms));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(600ms)));
  EXPECT_FALSE(codel.should_shed(Priority::kBatch, 20ms, at(665ms)));
  EXPECT_TRUE(codel.should_shed(Priority::kBatch, 20ms, at(671ms)));
}

}  // namespace
}  // namespace ullsnn::serve
