#include "src/serve/loadgen.h"

#include <cmath>
#include <stdexcept>
#include <thread>

#include "src/serve/bounded_queue.h"
#include "src/serve/engine.h"
#include "src/tensor/random.h"
#include "src/util/mutex.h"

namespace ullsnn::serve {

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

LogHistogram::LogHistogram(double min_ms, double growth, double max_ms) {
  if (min_ms <= 0.0 || growth <= 1.0 || max_ms <= min_ms) {
    throw std::invalid_argument("LogHistogram: need 0 < min_ms < max_ms, growth > 1");
  }
  for (double b = min_ms; b < max_ms; b *= growth) bounds_.push_back(b);
  bounds_.push_back(max_ms);
  counts_.assign(bounds_.size() + 1, 0);
}

void LogHistogram::record(double ms) {
  if (ms < 0.0) ms = 0.0;
  std::size_t i = 0;
  while (i < bounds_.size() && ms > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += ms;
  if (ms > max_) max_ = ms;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.bounds_.size() != bounds_.size()) {
    throw std::invalid_argument("LogHistogram::merge: bucket layouts differ");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

double LogHistogram::percentile(double q) const {
  if (count_ <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double first_in_bucket = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (rank >= static_cast<double>(cumulative)) continue;
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = i < bounds_.size() ? bounds_[i] : max_;
    if (hi <= lo) return lo;
    // Linear interpolation by rank position inside the bucket.
    const double frac =
        (rank - first_in_bucket) / static_cast<double>(counts_[i]);
    return lo + (hi - lo) * frac;
  }
  return max_;
}

// ---------------------------------------------------------------------------
// LoadReport
// ---------------------------------------------------------------------------

std::int64_t LoadReport::submitted() const {
  std::int64_t n = 0;
  for (const auto& c : per_class) n += c.submitted;
  return n;
}

std::int64_t LoadReport::fulfilled() const {
  std::int64_t n = 0;
  for (const auto& c : per_class) n += c.fulfilled();
  return n;
}

std::int64_t LoadReport::shed() const {
  std::int64_t n = 0;
  for (const auto& c : per_class) n += c.shed_admission + c.shed;
  return n;
}

std::int64_t LoadReport::failed() const {
  std::int64_t n = 0;
  for (const auto& c : per_class) n += c.failed;
  return n;
}

double LoadReport::goodput_qps(Priority p) const {
  return wall_seconds > 0.0
             ? static_cast<double>(cls(p).fulfilled()) / wall_seconds
             : 0.0;
}

double LoadReport::goodput_qps() const {
  return wall_seconds > 0.0 ? static_cast<double>(fulfilled()) / wall_seconds
                            : 0.0;
}

double LoadReport::shed_rate() const {
  const std::int64_t total = submitted();
  return total > 0 ? static_cast<double>(shed()) / static_cast<double>(total)
                   : 0.0;
}

bool LoadReport::conserved() const {
  for (const auto& c : per_class) {
    if (!c.conserved()) return false;
  }
  return true;
}

LogHistogram LoadReport::merged_latency() const {
  LogHistogram merged;
  for (const auto& c : per_class) merged.merge(c.latency);
  return merged;
}

// ---------------------------------------------------------------------------
// LoadGen
// ---------------------------------------------------------------------------

namespace {

/// One precomputed arrival: everything about the request except its input.
struct Arrival {
  Clock::duration offset{};  // intended start, relative to run start
  Priority priority = Priority::kInteractive;
  std::chrono::milliseconds deadline{0};
};

/// An accepted request awaiting completion.
struct Outstanding {
  ResponseFuture future;
  /// Submit-call lateness against the intended Poisson arrival, in ms.
  double submit_lag_ms = 0.0;
  Priority priority = Priority::kInteractive;
};

}  // namespace

LoadGen::LoadGen(LoadGenConfig config) : config_(std::move(config)) {
  if (config_.qps <= 0.0) {
    throw std::invalid_argument("LoadGen: qps must be positive");
  }
  if (config_.duration.count() <= 0) {
    throw std::invalid_argument("LoadGen: duration must be positive");
  }
  if (config_.interactive_fraction < 0.0 || config_.interactive_fraction > 1.0) {
    throw std::invalid_argument("LoadGen: interactive_fraction must be in [0, 1]");
  }
  if (config_.no_deadline_fraction < 0.0 || config_.no_deadline_fraction > 1.0) {
    throw std::invalid_argument("LoadGen: no_deadline_fraction must be in [0, 1]");
  }
  if (config_.collectors <= 0) {
    throw std::invalid_argument("LoadGen: collectors must be positive");
  }
  if (config_.images.empty()) {
    throw std::invalid_argument("LoadGen: images pool must be non-empty");
  }
}

LoadReport LoadGen::run(ServeEngine& engine) {
  // Precompute the full arrival schedule so the submission loop does no RNG
  // work and the offered workload is a pure function of the config.
  Rng rng(config_.seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(
      config_.qps * std::chrono::duration<double>(config_.duration).count() * 1.2));
  const double mean_gap_s = 1.0 / config_.qps;
  double t_s = 0.0;
  const double horizon_s = std::chrono::duration<double>(config_.duration).count();
  for (;;) {
    // Exponential inter-arrival gap: -ln(U) * mean. Clamp U away from zero
    // (uniform() can return exactly 0, whose log is -inf).
    double u = static_cast<double>(rng.uniform());
    if (u < 1e-12) u = 1e-12;
    t_s += -std::log(u) * mean_gap_s;
    if (t_s >= horizon_s) break;
    Arrival a;
    a.offset = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t_s));
    a.priority = rng.bernoulli(static_cast<float>(config_.interactive_fraction))
                     ? Priority::kInteractive
                     : Priority::kBatch;
    if (config_.no_deadline_fraction > 0.0 &&
        rng.bernoulli(static_cast<float>(config_.no_deadline_fraction))) {
      a.deadline = std::chrono::milliseconds(0);  // engine: "no deadline"
    } else {
      const DeadlineDist& dist = a.priority == Priority::kInteractive
                                     ? config_.interactive_deadline
                                     : config_.batch_deadline;
      const std::int64_t span = dist.max.count() - dist.min.count();
      a.deadline = std::chrono::milliseconds(
          dist.min.count() + (span > 0 ? rng.uniform_int(span + 1) : 0));
    }
    schedule.push_back(a);
  }

  LoadReport report;
  Mutex report_mu;  // guards report.per_class during collection

  // Completion side: collectors block on futures so the submitter never
  // does. The queue is sized for the whole run — it must never refuse an
  // accepted request's future (that would break conservation).
  LaneQueue<Outstanding, 1> completions(
      {static_cast<std::int64_t>(schedule.size()) + 1});
  std::vector<std::thread> collectors;
  collectors.reserve(static_cast<std::size_t>(config_.collectors));
  for (std::int64_t c = 0; c < config_.collectors; ++c) {
    collectors.emplace_back([&completions, &report, &report_mu] {
      Outstanding item;
      while (completions.pop(&item, std::chrono::milliseconds(50))) {
        const InferResponse response = item.future.get();
        // Coordinated-omission-safe latency: the engine's own
        // admission-to-fulfillment time (stamped inside the fulfillment
        // critical section) plus the submitter's lateness against the
        // intended Poisson arrival. Composing the two timestamps instead of
        // reading Clock::now() here keeps the measurement independent of
        // when this collector got around to draining the future — a
        // collector blocked on one slow response must not inflate the
        // recorded latency of the fast responses queued behind it.
        const double latency_ms = item.submit_lag_ms + response.total_ms;
        MutexLock lock(report_mu);
        ClassLoadStats& cls = report.cls(item.priority);
        switch (response.status) {
          case ResponseStatus::kOk:
            ++cls.ok;
            cls.latency.record(latency_ms);
            break;
          case ResponseStatus::kDegraded:
            ++cls.degraded;
            cls.latency.record(latency_ms);
            break;
          case ResponseStatus::kExpired:
          case ResponseStatus::kShed:
            ++cls.shed;
            break;
          case ResponseStatus::kTimeout:
          case ResponseStatus::kUnavailable:
          case ResponseStatus::kError:
            ++cls.failed;
            break;
          case ResponseStatus::kRejected:
            // Unreachable: rejections never produce a future.
            ++cls.failed;
            break;
        }
      }
    });
  }

  // Open-loop submission against the fixed schedule. sleep_until self-
  // corrects: if one submit runs late the next wakeup is still anchored to
  // the original start, so lateness never compounds.
  const auto start = Clock::now();
  std::size_t image_index = 0;
  double max_lag_ms = 0.0;
  for (const Arrival& arrival : schedule) {
    const auto intended = start + arrival.offset;
    std::this_thread::sleep_until(intended);
    const double lag_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - intended).count();
    if (lag_ms > max_lag_ms) max_lag_ms = lag_ms;

    SubmitOptions options;
    options.deadline = arrival.deadline;
    options.priority = arrival.priority;
    Tensor image = config_.images[image_index];  // copy; submit takes ownership
    image_index = (image_index + 1) % config_.images.size();
    SubmitResult result = engine.submit(std::move(image), options);
    {
      MutexLock lock(report_mu);
      ClassLoadStats& cls = report.cls(arrival.priority);
      ++cls.submitted;
      if (result.accepted) {
        ++cls.accepted;
      } else if (result.response.status == ResponseStatus::kExpired) {
        ++cls.shed_admission;
      } else {
        ++cls.rejected;
      }
    }
    if (result.accepted) {
      // Cannot fail: capacity covers the whole schedule.
      completions.try_push(Outstanding{std::move(result.future),
                                       lag_ms > 0.0 ? lag_ms : 0.0,
                                       arrival.priority},
                             /*lane=*/0);
    }
  }
  const auto submit_end = Clock::now();

  // Drain: every accepted future resolves (the watchdog guarantees it), so
  // closing the queue and joining collectors loses nothing.
  completions.close();
  for (auto& t : collectors) t.join();

  report.wall_seconds =
      std::chrono::duration<double>(submit_end - start).count();
  report.max_submit_lag_ms = max_lag_ms;
  return report;
}

}  // namespace ullsnn::serve
