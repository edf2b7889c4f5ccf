// Numeric health guards for the hybrid pipeline's training stages.
//
// A single NaN produced by BPTT through the spike discontinuities (or by a
// hardware fault on a neuromorphic substrate) silently destroys a multi-hour
// run: it propagates through the optimizer into every weight within one
// step. HealthMonitor scans losses, weights, gradients, and membrane
// potentials once per epoch and reacts per a configurable policy:
//
//   kOff       no checks (zero overhead; the default — behavior unchanged).
//   kWarn      print a diagnostic and continue.
//   kThrow     abort the run with a descriptive std::runtime_error.
//   kRollback  restore the last known-good snapshot (weights + momentum +
//              RNG), shrink the learning rate by `lr_backoff`, and retry the
//              epoch — up to `retry_budget` times, then abort.
//
// The snapshot includes the trainer's RNG state so a retried epoch replays
// the same shuffle/augmentation stream: a rollback is bitwise-deterministic,
// not merely "approximately resumed".
//
// Thread safety: scan_tensor/check are const and touch only immutable config,
// so concurrent scans need no coordination (the serving engine and the model
// registry call scan_tensor from their worker threads). The mutating trio —
// snapshot/restore/decide — serializes on an internal mutex, and the
// lr_scale/rollbacks counters are atomic, so one monitor may be shared across
// threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dnn/module.h"
#include "src/tensor/random.h"
#include "src/util/mutex.h"

namespace ullsnn::robust {

enum class GuardPolicy { kOff, kWarn, kThrow, kRollback };

const char* to_string(GuardPolicy policy);

struct GuardConfig {
  GuardPolicy policy = GuardPolicy::kOff;
  /// |value| above this counts as an explosion even when still finite.
  float explosion_threshold = 1e6F;
  /// Maximum rollbacks before a kRollback monitor gives up and aborts.
  std::int64_t retry_budget = 3;
  /// Learning-rate multiplier applied on every rollback (compounding).
  float lr_backoff = 0.5F;
  bool verbose = false;
};

/// Aggregate scan result over one epoch's loss/tensors.
struct HealthReport {
  std::int64_t nan_count = 0;
  std::int64_t inf_count = 0;
  std::int64_t exploded_count = 0;  // finite but beyond explosion_threshold
  float max_abs = 0.0F;
  bool loss_finite = true;
  std::string worst;  // name of the first offending tensor, if any

  bool healthy() const {
    return loss_finite && nan_count == 0 && inf_count == 0 && exploded_count == 0;
  }
  std::string describe() const;
};

/// What the training loop should do after a check.
enum class GuardAction { kProceed, kRetry, kAbort };

class HealthMonitor {
 public:
  explicit HealthMonitor(GuardConfig config);

  bool enabled() const { return config_.policy != GuardPolicy::kOff; }
  const GuardConfig& config() const { return config_; }

  /// Accumulate one tensor's NaN/Inf/explosion counts into `report`.
  void scan_tensor(const std::string& name, const Tensor& t,
                   HealthReport& report) const;

  /// Scan a parameter set (values and gradients) plus the epoch loss.
  HealthReport check(const std::vector<dnn::Param*>& params, float loss) const;

  /// Record a known-good state to roll back to. Tensors are deep-copied.
  void snapshot(const std::vector<dnn::Param*>& params,
                const std::vector<Tensor>& velocity, const Rng& rng);
  bool has_snapshot() const {
    return has_snapshot_.load(std::memory_order_acquire);
  }

  /// Restore the last snapshot into `params`/`velocity`/`rng`.
  /// Returns false (and leaves everything untouched) if none was taken.
  bool restore(const std::vector<dnn::Param*>& params,
               std::vector<Tensor>& velocity, Rng& rng) const;

  /// Apply the policy to a report: may print (kWarn), count a rollback and
  /// shrink lr_scale (kRollback), or request an abort (kThrow, or kRollback
  /// with the retry budget exhausted).
  GuardAction decide(const HealthReport& report);

  /// Compounded learning-rate backoff factor (1.0 until a rollback happens).
  float lr_scale() const { return lr_scale_.load(std::memory_order_relaxed); }
  std::int64_t rollbacks() const {
    return rollbacks_.load(std::memory_order_relaxed);
  }
  /// Set the backoff and the spent rollbacks, as a resumed run recorded them.
  void restore_backoff(float lr_scale, std::int64_t rollbacks) {
    MutexLock lock(mu_);
    lr_scale_.store(lr_scale, std::memory_order_relaxed);
    rollbacks_.store(rollbacks, std::memory_order_relaxed);
  }

 private:
  GuardConfig config_;
  mutable Mutex mu_;  // guards the snapshot buffers and decide()
  std::vector<Tensor> saved_values_ GUARDED_BY(mu_);
  std::vector<Tensor> saved_velocity_ GUARDED_BY(mu_);
  RngState saved_rng_ GUARDED_BY(mu_);
  // release on store (after the buffers are filled under mu_), acquire on
  // load: a true has_snapshot() implies the snapshot contents are visible.
  std::atomic<bool> has_snapshot_{false};
  // relaxed: independent tallies read in isolation.
  std::atomic<std::int64_t> rollbacks_{0};
  std::atomic<float> lr_scale_{1.0F};
};

}  // namespace ullsnn::robust
