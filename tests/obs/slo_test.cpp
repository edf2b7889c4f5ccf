#include "src/obs/slo.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/obs/metrics.h"

namespace ullsnn::obs {
namespace {

SloConfig test_config(double objective_ms = 100.0, double target = 0.9) {
  SloConfig c;
  c.objective_ms = objective_ms;
  c.target = target;
  return c;
}

Histogram test_histogram() { return Histogram({1.0, 10.0, 100.0, 1000.0}); }

TEST(SloTrackerTest, ValidatesConfig) {
  const Histogram hist = test_histogram();
  EXPECT_THROW(SloTracker(test_config(100.0, 0.0), hist), std::invalid_argument);
  EXPECT_THROW(SloTracker(test_config(100.0, 1.0), hist), std::invalid_argument);
  EXPECT_THROW(SloTracker(test_config(0.0, 0.9), hist), std::invalid_argument);
}

TEST(SloTrackerTest, IdleWindowReportsFullCompliance) {
  const Histogram hist = test_histogram();
  SloTracker tracker(test_config(), hist);
  const SloTracker::Report report = tracker.update();
  EXPECT_EQ(report.window_count, 0);
  EXPECT_EQ(report.compliance, 1.0);
  EXPECT_EQ(report.burn, 0.0);
}

TEST(SloTrackerTest, PercentilesWithinBucketOfTruth) {
  Histogram hist = test_histogram();
  SloTracker tracker(test_config(), hist);
  // 100 samples at ~5 ms: every percentile lands in the (1, 10] bucket.
  for (int i = 0; i < 100; ++i) hist.observe(5.0);
  const SloTracker::Report report = tracker.update();
  EXPECT_EQ(report.window_count, 100);
  EXPECT_GT(report.p50_ms, 1.0);
  EXPECT_LE(report.p50_ms, 10.0);
  EXPECT_GT(report.p99_ms, 1.0);
  EXPECT_LE(report.p99_ms, 10.0);
  EXPECT_LE(report.p50_ms, report.p95_ms);
  EXPECT_LE(report.p95_ms, report.p99_ms);
}

TEST(SloTrackerTest, BurnRateMatchesViolationFraction) {
  // objective 100 ms, target 0.9 -> 10% error budget. 20 of 100 samples over
  // the objective burns the budget at 2x.
  Histogram hist = test_histogram();
  SloTracker tracker(test_config(), hist);
  for (int i = 0; i < 80; ++i) hist.observe(5.0);
  for (int i = 0; i < 20; ++i) hist.observe(5000.0);  // overflow bucket
  const SloTracker::Report report = tracker.update();
  EXPECT_EQ(report.window_count, 100);
  EXPECT_NEAR(report.window_violations, 20.0, 1e-9);
  EXPECT_NEAR(report.compliance, 0.8, 1e-9);
  EXPECT_NEAR(report.burn, 2.0, 1e-9);
}

TEST(SloTrackerTest, WindowsAreDeltasBetweenUpdates) {
  Histogram hist = test_histogram();
  SloTracker tracker(test_config(), hist);
  for (int i = 0; i < 50; ++i) hist.observe(500.0);  // all violations
  EXPECT_NEAR(tracker.update().burn, 10.0, 1e-9);    // 100% / 10% budget
  // Next interval is healthy; the old violations must not leak into it.
  for (int i = 0; i < 50; ++i) hist.observe(5.0);
  const SloTracker::Report second = tracker.update();
  EXPECT_EQ(second.window_count, 50);
  EXPECT_NEAR(second.window_violations, 0.0, 1e-9);
  EXPECT_NEAR(second.compliance, 1.0, 1e-9);
  EXPECT_NEAR(second.burn, 0.0, 1e-9);
}

}  // namespace
}  // namespace ullsnn::obs
