// SloTracker: rolling latency percentiles + error-budget burn over a latency
// histogram the caller owns.
//
// The tracker reads its histogram on every update() and works on the *delta*
// since the previous update, so each report describes the interval between
// two scrapes (the natural window for a Prometheus-style pull model) rather
// than the whole process lifetime. From the interval it estimates
// p50/p95/p99 (bucket interpolation, see obs::histogram_quantile), SLO
// compliance against a latency objective, and the error-budget burn rate:
//
//   burn = (fraction of interval requests over the objective) / (1 - target)
//
// burn == 1 means the service spends its budget exactly as fast as the SLO
// allows; burn > 1 means an incident in progress. The serving engine hands
// the tracker its own serve.latency.total_ms histogram and renders each
// report as the serve.slo.* gauges of the /metrics scrape that advanced it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/mutex.h"

namespace ullsnn::obs {

struct SloConfig {
  /// Latency objective: a request over this is an SLO violation.
  double objective_ms = 250.0;
  /// Target fraction of requests that must meet the objective (e.g. 0.99 ->
  /// 1% error budget). Must be in (0, 1).
  double target = 0.99;
};

class SloTracker {
 public:
  /// Windows over `latency_ms` (samples in ms), which must outlive the
  /// tracker.
  SloTracker(SloConfig config, const Histogram& latency_ms);

  struct Report {
    std::int64_t window_count = 0;   // requests observed in the interval
    double window_violations = 0.0;  // estimated requests over the objective
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double compliance = 1.0;  // fraction within the objective (1 when idle)
    double burn = 0.0;        // error-budget burn rate (see header comment)
  };

  /// Compute the report for the interval since the previous update (every
  /// sample the histogram holds, for the first call). Thread-safe; concurrent
  /// scrapes serialize, and their windows telescope.
  Report update();

 private:
  const SloConfig config_;
  const Histogram& latency_ms_;
  Mutex mu_;
  /// Per-bucket cumulative baseline from the previous update.
  std::vector<std::int64_t> prev_counts_ GUARDED_BY(mu_);
};

}  // namespace ullsnn::obs
