// Surrogate-gradient learning (SGL) in the SNN domain — stage (c) of the
// paper's pipeline: after conversion, jointly fine-tune weights, thresholds,
// and leaks [7] with BPTT over the T time steps, starting from a small
// learning rate (1e-4 in Sec. IV-A) with the same step-decay schedule.
#pragma once

#include <cstdint>

#include "src/dnn/trainer.h"
#include "src/robust/health.h"
#include "src/snn/snn_network.h"

namespace ullsnn::snn {

struct SglConfig {
  std::int64_t epochs = 10;
  std::int64_t batch_size = 32;
  float lr = 1e-4F;
  float momentum = 0.9F;
  float weight_decay = 0.0F;  // fine-tuning: decay off by default
  /// Global L2 gradient-norm clip. BPTT through the spike discontinuities
  /// occasionally produces outlier batches whose unclipped step destroys the
  /// converted initialization; 0 disables.
  float grad_clip_norm = 5.0F;
  bool augment = true;
  std::uint64_t seed = 11;
  bool verbose = false;
  /// Per-epoch numeric health guard; in the SGL stage it also scans the
  /// membrane potentials left by the last batch. kOff by default.
  robust::GuardConfig guard;
};

/// Stage (c): fine-tunes `net` in the shared dnn::TrainLoop (resume, guard
/// and checkpoint semantics included), clipping the global gradient norm
/// after backward and keeping the neuron parameters physical after each step.
class SglTrainer : public dnn::TrainLoop {
 public:
  SglTrainer(SnnNetwork& net, SglConfig config);

  SnnNetwork& network() { return *net_; }

 private:
  Tensor forward(const Tensor& images, bool train) override;
  void backward(const Tensor& grad_logits) override;
  void after_backward() override;
  void after_step() override;
  void scan_state(const robust::HealthMonitor& monitor,
                  robust::HealthReport& report) override;

  SnnNetwork* net_;
  float grad_clip_norm_;
};

}  // namespace ullsnn::snn
