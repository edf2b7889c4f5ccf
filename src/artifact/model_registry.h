// ModelRegistry: versioned artifact hot-swap with a canary gate and
// automatic rollback.
//
// Deploy lifecycle (one deploy() call):
//
//   load          mmap + full validation (UllsnnArtifact::load) — any
//     |           corruption rejects here with a typed ArtifactError.
//   arch gate     fingerprint must match the active model's topology
//     |           (kArchMismatch) so a swap can never change input/output
//     |           contracts mid-flight.
//   canary        a replica is built from the candidate and the packer's
//     |           recorded probe batch is replayed at the recorded T. The
//     |           logits must (a) pass the HealthMonitor numeric scan and
//     |           (b) match the recorded logits bit-for-bit — the kernels
//     |           are bitwise deterministic, so any mismatch means the
//     |           weights or descriptors do not reproduce the packed model.
//   flip          the active pointer swaps atomically; version increments.
//     |           Workers notice between batches and rebuild; in-flight
//     |           batches complete on the old replica (drain, zero loss).
//   watch         the first `health_window` batches served on the new
//               version are watched; a regression auto-rolls back to the
//               previous artifact and records why.
//
// Every accept, reject, rollback, and auto-rollback is appended to a
// transition history (same spirit as serve::TimeStepGovernor::history()), so
// a deploy that went wrong can be reconstructed after the fact.
//
// Thread-safety: all methods are safe to call concurrently; active() hands
// out a shared_ptr snapshot that pins the mmap for as long as any replica
// built from it is alive.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/artifact/artifact.h"
#include "src/util/mutex.h"

namespace ullsnn::artifact {

struct RegistryConfig {
  /// Replay the packed probe batch and require bit-exact logits before
  /// activating a candidate. Disable only in tests that study the gate.
  bool verify_canary = true;
  /// Require the candidate's arch fingerprint to equal the active model's.
  /// Ignored for the first deploy (nothing to match against).
  bool require_same_arch = true;
  /// Number of batches after an activation that are watched for a health
  /// regression. 0 disables the post-swap watch.
  std::int64_t health_window = 8;
  /// Unhealthy batches within the window that trigger auto-rollback.
  std::int64_t health_failure_threshold = 1;
};

class ModelRegistry {
 public:
  explicit ModelRegistry(RegistryConfig config = {});

  /// Immutable view of the currently active model. `artifact` is null and
  /// `version` is 0 until the first successful deploy.
  struct Snapshot {
    std::shared_ptr<const UllsnnArtifact> artifact;
    std::uint64_t version = 0;
  };

  /// One history entry per accepted, rejected, or rolled-back deploy.
  struct Transition {
    std::int64_t sequence = 0;   // monotonic event counter
    std::uint64_t version = 0;   // active version AFTER the event
    std::string event;           // "activate" | "reject" | "rollback" | "auto-rollback"
    std::string detail;
  };

  /// Validate, canary, and activate the artifact at `path`. Returns the new
  /// active version. Throws ArtifactError on any rejection (load failure,
  /// kArchMismatch, failed canary); the active model is untouched and the
  /// rejection is recorded in history().
  std::uint64_t deploy(const std::string& path);

  /// Swap back to the artifact that was active before the last activation.
  /// Returns the new version. Throws std::logic_error when there is nothing
  /// to roll back to.
  std::uint64_t rollback(const std::string& reason);

  Snapshot active() const;
  /// Current version; cheap enough for workers to poll between batches.
  std::uint64_t version() const;
  bool has_active() const { return version() != 0; }
  /// True while a previous artifact is retained as a rollback target.
  bool can_rollback() const;

  /// Post-swap health feed (ServeEngine workers call this after every
  /// batch). Verdicts for non-active versions are ignored, so a draining
  /// worker can never trigger a rollback of a model it is not serving.
  /// Within the first `health_window` batches of a fresh activation,
  /// `health_failure_threshold` unhealthy verdicts roll back automatically.
  void record_batch_health(std::uint64_t version, bool healthy);

  std::vector<Transition> history() const;
  std::int64_t deploys() const;
  std::int64_t rejects() const;
  std::int64_t rollbacks() const;  // manual + automatic

 private:
  /// Replay the probe batch; throws ArtifactError(kMalformed/kArchMismatch)
  /// style errors via `fail` on mismatch. Runs the candidate's forward pass,
  /// so it must NOT hold mu_ (EXCLUDES keeps a deploy from serializing the
  /// serving path behind a canary replay).
  void run_canary(const UllsnnArtifact& candidate) const EXCLUDES(mu_);
  /// Append a transition.
  void note(const char* event, std::string detail) REQUIRES(mu_);
  /// Flip to `next`, reset the health window.
  void activate_locked(std::shared_ptr<const UllsnnArtifact> next,
                       const char* event, std::string detail) REQUIRES(mu_);

  RegistryConfig config_;
  mutable Mutex mu_;
  std::shared_ptr<const UllsnnArtifact> active_ GUARDED_BY(mu_);
  /// Rollback target.
  std::shared_ptr<const UllsnnArtifact> previous_ GUARDED_BY(mu_);
  std::uint64_t version_ GUARDED_BY(mu_) = 0;
  std::int64_t sequence_ GUARDED_BY(mu_) = 0;
  std::int64_t deploys_ GUARDED_BY(mu_) = 0;
  std::int64_t rejects_ GUARDED_BY(mu_) = 0;
  std::int64_t rollbacks_ GUARDED_BY(mu_) = 0;
  // Post-activation watch window.
  std::int64_t window_remaining_ GUARDED_BY(mu_) = 0;
  std::int64_t window_unhealthy_ GUARDED_BY(mu_) = 0;
  std::vector<Transition> history_ GUARDED_BY(mu_);
};

}  // namespace ullsnn::artifact
