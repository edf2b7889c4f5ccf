// Open-loop Poisson load generator with coordinated-omission-safe latency.
//
// What sets this apart from a closed-loop driver is what happens when the
// engine falls behind. A closed-loop driver waits for responses before
// sending more work, so an overloaded engine quietly throttles its own load
// source and the measured latencies describe a gentler workload than the
// one requested — the coordinated-omission trap.
// This generator is open-loop: arrivals follow a Poisson process (seeded
// exponential inter-arrival gaps) whose *intended* start times are fixed
// before the run begins, every request is submitted regardless of engine
// state, and each latency is measured from the request's intended start —
// submission backlog in the generator counts against the engine, exactly as
// a queueing client would experience it.
//
// Per-priority-class accounting is exact: for each class,
//
//   submitted = accepted + rejected + shed_admission
//   accepted  = fulfilled + shed + failed
//
// which is the conservation ledger the bench and `ctest -L serve` gate on.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/serve/request.h"

namespace ullsnn::serve {

class ServeEngine;

/// Log-bucketed latency histogram (milliseconds). Geometric bucket bounds
/// cover 1 us .. ~100 s so tail percentiles stay resolvable across five
/// orders of magnitude without per-sample storage. Not thread-safe; callers
/// serialize recording (LoadGen locks per class).
class LogHistogram {
 public:
  /// Buckets: bound[i] = min_ms * growth^i, until >= max_ms.
  explicit LogHistogram(double min_ms = 1e-3, double growth = 1.25,
                        double max_ms = 1e5);

  void record(double ms);
  void merge(const LogHistogram& other);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return max_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  /// Percentile by cumulative bucket walk with linear interpolation inside
  /// the bucket; q in [0, 1]. Returns 0 when empty.
  double percentile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::int64_t>& counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> counts_;  // bounds_.size() + 1, overflow last
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Uniform relative-deadline distribution for one priority class.
struct DeadlineDist {
  std::chrono::milliseconds min{50};
  std::chrono::milliseconds max{50};
};

struct LoadGenConfig {
  /// Offered load: mean arrival rate of the Poisson process.
  double qps = 500.0;
  std::chrono::milliseconds duration{1000};
  /// Fraction of requests submitted as Priority::kInteractive.
  double interactive_fraction = 0.8;
  DeadlineDist interactive_deadline{std::chrono::milliseconds(40),
                                    std::chrono::milliseconds(80)};
  DeadlineDist batch_deadline{std::chrono::milliseconds(200),
                              std::chrono::milliseconds(400)};
  /// Fraction of requests submitted with no deadline at all (never shed).
  double no_deadline_fraction = 0.0;
  /// Threads draining response futures; the submitter itself never blocks.
  std::int64_t collectors = 2;
  std::uint64_t seed = 0x10AD;
  /// Input pool, cycled round-robin per request. Must be non-empty and match
  /// the engine's input shape.
  std::vector<Tensor> images;
};

/// Per-priority-class outcome ledger + coordinated-omission-safe latency.
struct ClassLoadStats {
  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;        // admission refusal (queue full)
  std::int64_t shed_admission = 0;  // deadline already past at submit
  std::int64_t ok = 0;
  std::int64_t degraded = 0;
  std::int64_t shed = 0;    // kExpired / kShed after admission
  std::int64_t failed = 0;  // kTimeout / kUnavailable / kError
  /// Completion latency from the *intended* Poisson start time, successes
  /// only (goodput latency — what an SLO would be written against).
  LogHistogram latency;

  std::int64_t fulfilled() const { return ok + degraded; }
  bool conserved() const {
    return submitted == accepted + rejected + shed_admission &&
           accepted == fulfilled() + shed + failed;
  }
};

struct LoadReport {
  ClassLoadStats per_class[kPriorityClasses];
  double wall_seconds = 0.0;
  /// Worst lateness of the submitter against the intended schedule; large
  /// values mean the generator itself (not the engine) was the bottleneck.
  double max_submit_lag_ms = 0.0;

  ClassLoadStats& cls(Priority p) { return per_class[static_cast<std::size_t>(p)]; }
  const ClassLoadStats& cls(Priority p) const {
    return per_class[static_cast<std::size_t>(p)];
  }
  std::int64_t submitted() const;
  std::int64_t fulfilled() const;
  std::int64_t shed() const;  // shed_admission + post-admission shed
  std::int64_t failed() const;
  double goodput_qps(Priority p) const;
  double goodput_qps() const;
  double shed_rate() const;  // shed / submitted
  bool conserved() const;
  /// Merged success-latency histogram across both classes.
  LogHistogram merged_latency() const;
};

/// Drives one ServeEngine with the configured open-loop schedule. The
/// arrival schedule (gaps, priorities, deadlines) is fully precomputed from
/// the seed before submission starts, so two runs at the same config offer
/// bit-identical workloads.
class LoadGen {
 public:
  explicit LoadGen(LoadGenConfig config);

  /// Blocks for ~config.duration plus drain time; returns the full ledger.
  LoadReport run(ServeEngine& engine);

  const LoadGenConfig& config() const { return config_; }

 private:
  LoadGenConfig config_;
};

}  // namespace ullsnn::serve
