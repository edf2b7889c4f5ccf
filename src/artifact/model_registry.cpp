#include "src/artifact/model_registry.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/robust/health.h"

namespace ullsnn::artifact {

ModelRegistry::ModelRegistry(RegistryConfig config) : config_(config) {
  if (config_.health_window < 0 || config_.health_failure_threshold <= 0) {
    throw std::invalid_argument("ModelRegistry: bad health window config");
  }
}

void ModelRegistry::run_canary(const UllsnnArtifact& candidate) const {
  std::unique_ptr<snn::SnnNetwork> replica = candidate.make_network();
  replica->set_time_steps(candidate.probe_time_steps());
  replica->reset_state();
  const Tensor inputs = candidate.probe_inputs();
  const Tensor logits = replica->forward(inputs, /*train=*/false);

  robust::GuardConfig gc;
  gc.policy = robust::GuardPolicy::kOff;
  robust::HealthMonitor monitor(gc);
  robust::HealthReport report;
  monitor.scan_tensor("canary.logits", logits, report);
  if (!report.healthy()) {
    throw ArtifactError(ArtifactErrorCode::kMalformed,
                        "canary: " + candidate.path() +
                            ": probe logits failed the numeric health scan");
  }

  const Tensor expected = candidate.probe_logits();
  if (logits.shape() != expected.shape()) {
    throw ArtifactError(ArtifactErrorCode::kMalformed,
                        "canary: " + candidate.path() + ": probe logits shape " +
                            shape_to_string(logits.shape()) +
                            " != recorded " + shape_to_string(expected.shape()));
  }
  if (std::memcmp(logits.data(), expected.data(),
                  static_cast<std::size_t>(expected.numel()) * sizeof(float)) != 0) {
    throw ArtifactError(
        ArtifactErrorCode::kMalformed,
        "canary: " + candidate.path() +
            ": replayed probe logits are not bit-identical to the packed ones");
  }
}

void ModelRegistry::note(const char* event, std::string detail) {
  Transition t;
  t.sequence = ++sequence_;
  t.version = version_;
  t.event = event;
  t.detail = std::move(detail);
  // Mirror every registry transition into the flight recorder's event ring.
  // An auto-rollback (or a regression with no rollback target) is an anomaly
  // and additionally triggers a rate-limited dump.
  const bool anomaly = std::strcmp(event, "auto-rollback") == 0 ||
                       std::strcmp(event, "health-regression") == 0;
  if (anomaly) {
    obs::FlightRecorder::instance().note_anomaly(
        "registry", "%s v%llu: %s", event,
        static_cast<unsigned long long>(version_), t.detail.c_str());
  } else {
    obs::FlightRecorder::instance().record_event(
        "registry", "%s v%llu: %s", event,
        static_cast<unsigned long long>(version_), t.detail.c_str());
  }
  history_.push_back(std::move(t));
}

void ModelRegistry::activate_locked(std::shared_ptr<const UllsnnArtifact> next,
                                    const char* event, std::string detail) {
  previous_ = std::move(active_);
  active_ = std::move(next);
  ++version_;
  window_remaining_ = config_.health_window;
  window_unhealthy_ = 0;
  note(event, std::move(detail));
  obs::logf(obs::LogLevel::kInfo, "[registry] %s -> v%llu (%s)", event,
            static_cast<unsigned long long>(version_),
            history_.back().detail.c_str());
}

std::uint64_t ModelRegistry::deploy(const std::string& path) {
  std::shared_ptr<const UllsnnArtifact> candidate;
  try {
    candidate = UllsnnArtifact::load(path);

    {
      MutexLock lock(mu_);
      if (config_.require_same_arch && active_ != nullptr &&
          candidate->fingerprint() != active_->fingerprint()) {
        throw ArtifactError(
            ArtifactErrorCode::kArchMismatch,
            "deploy: " + path + ": arch fingerprint differs from the active "
                                "model (topology change needs a new registry)");
      }
    }

    if (config_.verify_canary) run_canary(*candidate);
  } catch (const ArtifactError& e) {
    MutexLock lock(mu_);
    ++rejects_;
    note("reject", path + ": " + e.what());
    obs::logf(obs::LogLevel::kWarn, "[registry] rejected %s: %s", path.c_str(),
              e.what());
    throw;
  }

  MutexLock lock(mu_);
  ++deploys_;
  activate_locked(std::move(candidate), "activate", path);
  return version_;
}

std::uint64_t ModelRegistry::rollback(const std::string& reason) {
  MutexLock lock(mu_);
  if (previous_ == nullptr) {
    throw std::logic_error("ModelRegistry::rollback: no previous version");
  }
  ++rollbacks_;
  std::shared_ptr<const UllsnnArtifact> target = std::move(previous_);
  activate_locked(std::move(target), "rollback", reason);
  // The rolled-away artifact is dropped as a target: rolling "back" to the
  // model we just fled would ping-pong.
  previous_ = nullptr;
  return version_;
}

ModelRegistry::Snapshot ModelRegistry::active() const {
  MutexLock lock(mu_);
  return Snapshot{active_, version_};
}

std::uint64_t ModelRegistry::version() const {
  MutexLock lock(mu_);
  return version_;
}

bool ModelRegistry::can_rollback() const {
  MutexLock lock(mu_);
  return previous_ != nullptr;
}

void ModelRegistry::record_batch_health(std::uint64_t version, bool healthy) {
  MutexLock lock(mu_);
  if (version != version_ || window_remaining_ <= 0) return;
  --window_remaining_;
  if (healthy) return;
  ++window_unhealthy_;
  if (window_unhealthy_ < config_.health_failure_threshold) return;
  if (previous_ == nullptr) {
    // Nothing to fall back to; record the regression and keep serving.
    note("health-regression",
         "post-swap health regression with no rollback target");
    obs::logf(obs::LogLevel::kError,
              "[registry] health regression on v%llu but no rollback target",
              static_cast<unsigned long long>(version_));
    window_remaining_ = 0;
    return;
  }
  ++rollbacks_;
  std::shared_ptr<const UllsnnArtifact> target = std::move(previous_);
  activate_locked(std::move(target), "auto-rollback",
                  std::to_string(window_unhealthy_) +
                      " unhealthy batch(es) inside the post-swap window");
  previous_ = nullptr;
}

std::vector<ModelRegistry::Transition> ModelRegistry::history() const {
  MutexLock lock(mu_);
  return history_;
}

std::int64_t ModelRegistry::deploys() const {
  MutexLock lock(mu_);
  return deploys_;
}

std::int64_t ModelRegistry::rejects() const {
  MutexLock lock(mu_);
  return rejects_;
}

std::int64_t ModelRegistry::rollbacks() const {
  MutexLock lock(mu_);
  return rollbacks_;
}

}  // namespace ullsnn::artifact
