// Shared pieces of the benchmark: the clock, exact sample statistics, the
// metric sink that prints the final JSON line, and the in-memory span log.
//
// The benchmark owns these on purpose. The repository's serve::LogHistogram
// and serve::LoadGen are under active development; reusing them would let a
// change to the system under test move the yardstick that measures it.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Exact nearest-rank percentile of a sample (q in [0, 1]); 0 when empty.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 0.5);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Largest percentile with at least ten samples beyond it, capped at p99:
/// the highest tail the sample supports (p99 needs >= 1000 samples).
inline double supported_tail_quantile(std::size_t samples) {
  if (samples < 20) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(samples);
  return std::min(0.99, q);
}

/// Run fn(0) .. fn(n - 1) on n threads and join them all; the first
/// exception thrown by any of them is rethrown here.
inline void run_threads(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (std::int64_t w = 0; w < n; ++w) {
    threads.emplace_back([&fn, &errors, w] {
      try {
        fn(w);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Ordered name -> (value, unit) map printed as the run's last line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!values_.count(name)) order_.push_back(name);
    values_[name] = {value, unit};
  }

  /// Human-readable table on stdout (before the JSON line).
  void print_table(const char* title) const {
    std::printf("-- %s --\n", title);
    for (const std::string& name : order_) {
      const auto& [value, unit] = values_.at(name);
      std::printf("  %-34s %16.6g %s\n", name.c_str(), value, unit.c_str());
    }
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void print_json(bool correct, std::int64_t attempted,
                  std::int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : order_) {
      const auto& [value, unit] = values_.at(name);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(value) ? value : 0.0);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// One traced interval. Spans of one request share `request`; `parent` is
/// the index of the enclosing span in the log (-1 for a root).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// Append-only span log, kept in memory and written once at exit. Not
/// thread-safe: each run fills it from one thread after the measured phase.
class SpanLog {
 public:
  std::int64_t add(std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = -1,
                   std::int64_t request = -1) {
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Total self time per span name: duration minus the union of the parts
  /// its children cover (children are clipped to the parent's interval).
  std::map<std::string, double> self_ms() const;
  /// Write every span as one JSON object per line; times in microseconds
  /// from the first span's start. Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Peak resident set size of this process, in MiB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
