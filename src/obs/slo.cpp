#include "src/obs/slo.h"

#include <stdexcept>

#include "src/obs/exposition.h"

namespace ullsnn::obs {

SloTracker::SloTracker(SloConfig config, const Histogram& latency_ms)
    : config_(config),
      latency_ms_(latency_ms),
      prev_counts_(latency_ms.bounds().size() + 1, 0) {
  if (config_.target <= 0.0 || config_.target >= 1.0) {
    throw std::invalid_argument("SloTracker: target must be in (0, 1)");
  }
  if (config_.objective_ms <= 0.0) {
    throw std::invalid_argument("SloTracker: objective_ms must be positive");
  }
}

SloTracker::Report SloTracker::update() {
  MutexLock lock(mu_);
  const std::vector<std::int64_t> counts = latency_ms_.bucket_counts();
  // Interval histogram = cumulative now - cumulative at the last update.
  HistogramSample interval;
  interval.bounds = latency_ms_.bounds();
  interval.counts.resize(counts.size());
  std::int64_t window_count = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    interval.counts[i] = counts[i] - prev_counts_[i];
    window_count += interval.counts[i];
  }
  interval.count = window_count;
  prev_counts_ = counts;

  Report report;
  report.window_count = window_count;
  if (window_count > 0) {
    report.p50_ms = histogram_quantile(interval, 0.50);
    report.p95_ms = histogram_quantile(interval, 0.95);
    report.p99_ms = histogram_quantile(interval, 0.99);
    report.window_violations =
        histogram_count_above(interval, config_.objective_ms);
    report.compliance =
        1.0 - report.window_violations / static_cast<double>(window_count);
    report.burn = (report.window_violations / static_cast<double>(window_count)) /
                  (1.0 - config_.target);
  }
  return report;
}

}  // namespace ullsnn::obs
