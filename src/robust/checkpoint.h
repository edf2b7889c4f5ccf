// Stage- and epoch-level checkpoint/resume for the hybrid pipeline.
//
// The pipeline's three stages (DNN training -> conversion -> SGL
// fine-tuning) are a long serial computation; a crash in stage (c) must not
// throw away stages (a) and (b). Two cooperating pieces:
//
//  * PipelineManifest — a tiny record of which stage last completed and the
//    accuracies/timings already measured, persisted after every stage.
//  * TrainCheckpointer — a per-epoch snapshot of one training stage: weights,
//    optimizer momentum, the trainer's RNG state and the health guard's
//    learning-rate backoff and spent rollbacks, so a resumed stage continues
//    bitwise-identically (same shuffles, same augmentations, same LR).
//
// Everything is stored in the CRC-checked v2 tensor-dict format
// (util/serialize.h) and written atomically, so a crash mid-save leaves the
// previous checkpoint intact and any corruption is rejected at load time.
// Non-float payloads (epoch counters, RNG words, accuracy doubles) are
// bit-packed into f32 tensors — pure memcpy both ways, no value ever passes
// through float arithmetic, so the round-trip is exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/dnn/module.h"
#include "src/robust/health.h"
#include "src/tensor/random.h"

namespace ullsnn::robust {

/// Canonical file locations inside a checkpoint directory.
std::string manifest_path(const std::string& dir);
/// Completed-stage weights; `stage` is 1 (DNN), 2 (converted SNN), 3 (SGL).
std::string stage_weights_path(const std::string& dir, int stage);
/// Mid-stage per-epoch training state; `stage` is 1 (DNN) or 3 (SGL).
std::string stage_train_state_path(const std::string& dir, int stage);

struct PipelineManifest {
  std::int64_t stage_completed = 0;  // 0 = nothing, 1 = (a), 2 = (b), 3 = (c)
  double dnn_accuracy = 0.0;
  double converted_accuracy = 0.0;
  double sgl_accuracy = 0.0;
  double dnn_train_seconds = 0.0;
  double sgl_train_seconds = 0.0;
};

void save_manifest(const PipelineManifest& manifest, const std::string& path);
/// Throws std::runtime_error on a missing, corrupt, or incompatible file.
PipelineManifest load_manifest(const std::string& path);

/// Save parameter values as a tensor dict keyed "p0", "p1", ... (atomic).
void save_params(const std::vector<dnn::Param*>& params, const std::string& path);
/// Load values saved by save_params back into `params`. Throws on a missing
/// file, corruption, or any count/shape mismatch.
void load_params(const std::vector<dnn::Param*>& params, const std::string& path);

/// Epoch-granular checkpointing of one training stage. The training loop
/// calls save() after every completed epoch and restore() once at the start
/// of fit(); an interrupted stage resumes from its last completed epoch.
class TrainCheckpointer {
 public:
  explicit TrainCheckpointer(std::string path);

  void save(std::int64_t epochs_completed, const std::vector<dnn::Param*>& params,
            const std::vector<Tensor>& velocity, const Rng& rng,
            const HealthMonitor& guard) const;

  /// Restore a state saved by save(), the guard's backoff included. Returns
  /// the number of completed epochs, or 0 (leaving everything untouched) when
  /// no checkpoint file exists. Throws std::runtime_error if the file exists
  /// but is corrupt or does not match the model.
  std::int64_t restore(const std::vector<dnn::Param*>& params,
                       std::vector<Tensor>& velocity, Rng& rng,
                       HealthMonitor& guard) const;

  /// Delete the checkpoint file (called once its stage completes).
  void remove() const;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ullsnn::robust
