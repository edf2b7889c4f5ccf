// Prometheus text exposition (format version 0.0.4) over a MetricsSnapshot,
// plus histogram quantile estimation for the SLO tracker.
//
// Mapping from the registry's instruments:
//   Counter    -> `# TYPE <name> counter` + one sample line
//   Gauge      -> `# TYPE <name> gauge`   + one sample line
//   Histogram  -> `# TYPE <name> histogram` + cumulative `_bucket{le="..."}`
//                 lines (ending at le="+Inf" == _count), `_sum`, `_count`
//
// Registry names use dots (serve.latency.total_ms); Prometheus metric names
// admit [a-zA-Z0-9_:] only, so every invalid byte becomes '_' and a leading
// digit is prefixed. Label values are escaped per the exposition spec
// (backslash, double-quote, newline).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace ullsnn::obs {

/// One `key="value"` pair attached to every exported sample (e.g. job or
/// instance identity). Values are escaped at render time.
using ExpositionLabels = std::vector<std::pair<std::string, std::string>>;

/// Registry name -> valid Prometheus metric name ('.' and any other invalid
/// byte -> '_'; leading digit prefixed with '_').
std::string prometheus_metric_name(const std::string& name);

/// Escape a label value: `\` -> `\\`, `"` -> `\"`, newline -> `\n`.
std::string escape_label_value(const std::string& value);

/// Render one snapshot as exposition text. Deterministic: instruments appear
/// in the snapshot's order (a registry snapshot's is sorted by name),
/// counters first, then gauges, then histograms (buckets ascending).
std::string render_prometheus(const MetricsSnapshot& snapshot,
                              const ExpositionLabels& labels = {});

/// Quantile estimate (q in [0, 1]) from a histogram sample via linear
/// interpolation inside the bucket containing the q-th sample. The first
/// bucket interpolates from 0; a quantile landing in the overflow bucket
/// returns the largest finite bound (the histogram cannot resolve beyond
/// it). Returns 0 for an empty histogram. The absolute error is bounded by
/// the width of the bucket the true quantile falls in.
double histogram_quantile(const HistogramSample& h, double q);

/// Estimated number of samples strictly above `threshold`, by the same
/// within-bucket linear interpolation. Exact when `threshold` is a bucket
/// bound. Used for SLO violation counting.
double histogram_count_above(const HistogramSample& h, double threshold);

}  // namespace ullsnn::obs
