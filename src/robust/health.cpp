#include "src/robust/health.h"

#include <cmath>
#include <stdexcept>

#include "src/obs/log.h"
#include "src/obs/metrics.h"

namespace ullsnn::robust {

const char* to_string(GuardPolicy policy) {
  switch (policy) {
    case GuardPolicy::kOff: return "off";
    case GuardPolicy::kWarn: return "warn";
    case GuardPolicy::kThrow: return "throw";
    case GuardPolicy::kRollback: return "rollback";
  }
  return "unknown";
}

std::string HealthReport::describe() const {
  if (healthy()) return "healthy";
  std::string msg = "numeric fault:";
  if (!loss_finite) msg += " non-finite loss;";
  if (nan_count > 0) msg += " " + std::to_string(nan_count) + " NaN;";
  if (inf_count > 0) msg += " " + std::to_string(inf_count) + " Inf;";
  if (exploded_count > 0) {
    msg += " " + std::to_string(exploded_count) + " exploded (max |x| = " +
           std::to_string(max_abs) + ");";
  }
  if (!worst.empty()) msg += " first offender: " + worst;
  return msg;
}

HealthMonitor::HealthMonitor(GuardConfig config) : config_(config) {
  if (config_.retry_budget < 0) {
    throw std::invalid_argument("HealthMonitor: retry_budget must be >= 0");
  }
  if (config_.lr_backoff <= 0.0F || config_.lr_backoff > 1.0F) {
    throw std::invalid_argument("HealthMonitor: lr_backoff must be in (0, 1]");
  }
}

void HealthMonitor::scan_tensor(const std::string& name, const Tensor& t,
                                HealthReport& report) const {
  const bool was_healthy = report.healthy();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float v = t[i];
    if (std::isnan(v)) {
      ++report.nan_count;
    } else if (std::isinf(v)) {
      ++report.inf_count;
    } else {
      const float a = std::fabs(v);
      report.max_abs = std::max(report.max_abs, a);
      if (a > config_.explosion_threshold) ++report.exploded_count;
    }
  }
  if (was_healthy && !report.healthy() && report.worst.empty()) {
    report.worst = name;
  }
}

HealthReport HealthMonitor::check(const std::vector<dnn::Param*>& params,
                                  float loss) const {
  HealthReport report;
  report.loss_finite = std::isfinite(loss);
  if (!report.loss_finite) report.worst = "loss";
  for (const dnn::Param* p : params) {
    scan_tensor(p->name + ".value", p->value, report);
    scan_tensor(p->name + ".grad", p->grad, report);
  }
  return report;
}

void HealthMonitor::snapshot(const std::vector<dnn::Param*>& params,
                             const std::vector<Tensor>& velocity, const Rng& rng) {
  MutexLock lock(mu_);
  saved_values_.clear();
  saved_values_.reserve(params.size());
  for (const dnn::Param* p : params) saved_values_.push_back(p->value);
  saved_velocity_ = velocity;
  saved_rng_ = rng.state();
  has_snapshot_.store(true, std::memory_order_release);
}

bool HealthMonitor::restore(const std::vector<dnn::Param*>& params,
                            std::vector<Tensor>& velocity, Rng& rng) const {
  MutexLock lock(mu_);
  if (!has_snapshot_.load(std::memory_order_acquire)) return false;
  if (params.size() != saved_values_.size() ||
      velocity.size() != saved_velocity_.size()) {
    throw std::logic_error("HealthMonitor::restore: parameter set changed size");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = saved_values_[i];
    params[i]->zero_grad();
  }
  velocity = saved_velocity_;
  rng.set_state(saved_rng_);
  return true;
}

GuardAction HealthMonitor::decide(const HealthReport& report) {
  if (config_.policy == GuardPolicy::kOff || report.healthy()) {
    return GuardAction::kProceed;
  }
  ULLSNN_COUNTER_ADD("health.faults", 1);
  switch (config_.policy) {
    case GuardPolicy::kWarn:
      obs::logf(obs::LogLevel::kWarn, "[health] WARNING: %s", report.describe().c_str());
      return GuardAction::kProceed;
    case GuardPolicy::kThrow:
      return GuardAction::kAbort;
    case GuardPolicy::kRollback: {
      MutexLock lock(mu_);
      const std::int64_t done = rollbacks_.load(std::memory_order_relaxed);
      if (!has_snapshot_.load(std::memory_order_acquire) ||
          done >= config_.retry_budget) {
        ULLSNN_COUNTER_ADD("health.aborts", 1);
        return GuardAction::kAbort;
      }
      rollbacks_.store(done + 1, std::memory_order_relaxed);
      const float scale =
          lr_scale_.load(std::memory_order_relaxed) * config_.lr_backoff;
      lr_scale_.store(scale, std::memory_order_relaxed);
      ULLSNN_COUNTER_ADD("health.rollbacks", 1);
      ULLSNN_GAUGE_SET("health.lr_scale", scale);
      if (config_.verbose) {
        obs::logf(obs::LogLevel::kWarn,
                  "[health] rollback %lld/%lld (lr scale %.3g): %s",
                  static_cast<long long>(done + 1),
                  static_cast<long long>(config_.retry_budget),
                  static_cast<double>(scale), report.describe().c_str());
      }
      return GuardAction::kRetry;
    }
    case GuardPolicy::kOff: break;  // unreachable
  }
  return GuardAction::kProceed;
}

}  // namespace ullsnn::robust
