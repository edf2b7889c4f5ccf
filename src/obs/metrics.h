// Process-wide metrics registry: counters, gauges, fixed-bucket histograms.
//
// Hot-path contract: the name lookup happens once per call site (amortized by
// the function-local static inside the ULLSNN_* macros); after that a sample
// is a single relaxed atomic RMW — lock-free, zero heap allocation, no
// registry locks. Registration (first use of a name) takes a mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/sched/test_point.h"
#include "src/util/mutex.h"

namespace ullsnn::obs {

/// Relaxed atomic add for doubles via a CAS loop.
/// std::atomic<double>::fetch_add is a C++20 library addition that several
/// otherwise-supported toolchains (older libc++, some cross compilers) still
/// lack; the CAS loop compiles everywhere and costs the same on x86.
inline void atomic_add_double(std::atomic<double>& target, double delta) noexcept {
  // relaxed throughout: the sum is a commutative tally read in isolation; no
  // other data is published through it, so no acquire/release pairing exists.
  double current = target.load(std::memory_order_relaxed);
  for (;;) {
    // Model-checker decision point between the read of `current` and the CAS
    // — the window where a concurrent add forces the retry path. No-op in
    // production builds (see src/sched/test_point.h).
    ULLSNN_TEST_POINT("gauge.cas");
    if (target.compare_exchange_weak(current, current + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
}

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::int64_t delta = 1) noexcept {
    // relaxed: independent tally; atomicity of the RMW alone guarantees no
    // lost increments, and readers need no ordering with other instruments.
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-write-wins floating-point metric (accuracies, loss, rates).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { atomic_add_double(value_, delta); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one overflow
/// bucket catches the rest. Bucket layout is fixed at registration, so
/// observe() never allocates.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::int64_t> bucket_counts() const;
  std::int64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds for the macro form: decade grid 1e-6 .. 1e3.
const std::vector<double>& default_histogram_bounds();

struct CounterSample {
  std::string name;
  std::int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;  // bounds.size() + 1 (overflow last)
  std::int64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
};

/// Name-keyed registry. Returned references stay valid for the process
/// lifetime (instruments are never deregistered).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket layout; later calls with the same
  /// name ignore `upper_bounds`.
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& upper_bounds = default_histogram_bounds());

  MetricsSnapshot snapshot() const;
  /// Zero every instrument's value; registrations are kept (tests, benches).
  void reset_values();

 private:
  Registry() = default;

  // mu_ guards the maps (registration and snapshot iteration), not the
  // instruments themselves — samples on returned references are lock-free.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ GUARDED_BY(mu_);
};

/// CSV: `kind,name,value,count,sum,buckets` (histogram buckets as
/// "b0|b1|...|overflow"). Throws on I/O failure.
void write_metrics_csv(const MetricsSnapshot& snapshot, const std::string& path);
/// One JSON object per line. Throws on I/O failure.
void write_metrics_jsonl(const MetricsSnapshot& snapshot, const std::string& path);

}  // namespace ullsnn::obs

#define ULLSNN_COUNTER_ADD(name, delta)                                        \
  do {                                                                         \
    static ::ullsnn::obs::Counter& ullsnn_obs_c_ =                             \
        ::ullsnn::obs::Registry::instance().counter(name);                     \
    ullsnn_obs_c_.add(delta);                                                  \
  } while (0)
#define ULLSNN_GAUGE_SET(name, v)                                              \
  do {                                                                         \
    static ::ullsnn::obs::Gauge& ullsnn_obs_g_ =                               \
        ::ullsnn::obs::Registry::instance().gauge(name);                       \
    ullsnn_obs_g_.set(v);                                                      \
  } while (0)
#define ULLSNN_HISTOGRAM_OBSERVE(name, v)                                      \
  do {                                                                         \
    static ::ullsnn::obs::Histogram& ullsnn_obs_h_ =                           \
        ::ullsnn::obs::Registry::instance().histogram(name);                   \
    ullsnn_obs_h_.observe(v);                                                  \
  } while (0)
