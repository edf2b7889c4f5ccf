// The training loop of both trained stages of the paper's pipeline
// (Sec. IV-A): SGD + momentum, step-decay LR at 60/80/90% of epochs, pad-4
// crop + flip augmentation. Stage (a) is DnnTrainer below; stage (c),
// SGL fine-tuning of the converted SNN, is snn::SglTrainer. Both run the one
// TrainLoop and add only what differs around its optimizer step.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/data/augment.h"
#include "src/data/dataset.h"
#include "src/dnn/optimizer.h"
#include "src/dnn/sequential.h"
#include "src/robust/checkpoint.h"
#include "src/robust/health.h"

namespace ullsnn::dnn {

struct TrainConfig {
  std::int64_t epochs = 20;
  std::int64_t batch_size = 32;
  float lr = 0.01F;
  float momentum = 0.9F;
  float weight_decay = 5e-4F;
  /// L2 coefficient on thresholds mu (applied separately from weight decay).
  float mu_l2 = 1e-3F;
  bool augment = true;
  std::uint64_t seed = 7;
  bool verbose = false;
  /// Per-epoch numeric health guard (NaN/Inf/explosion in loss, weights, and
  /// gradients). kOff by default: no checks, no overhead.
  robust::GuardConfig guard;
};

struct EpochStats {
  std::int64_t epoch = 0;
  float train_loss = 0.0F;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;
  double seconds = 0.0;
};

/// Minibatch SGD over one network with the per-epoch resume, health-guard
/// and checkpoint policy of fit(). A stage derives from it, runs its network
/// in forward()/backward() and shapes the step in the hooks below.
class TrainLoop {
 public:
  virtual ~TrainLoop() = default;
  TrainLoop(const TrainLoop&) = delete;
  TrainLoop& operator=(const TrainLoop&) = delete;

  /// One pass over `train`; applies the schedule's LR for `epoch` (times any
  /// health-guard backoff accumulated by fit()'s rollbacks).
  EpochStats train_epoch(const data::LabeledImages& train, std::int64_t epoch);

  /// Full run; evaluates on `test` after each epoch when provided. With a
  /// checkpointer, restores any saved state first (resuming from the last
  /// completed epoch) and persists weights + momentum + RNG + guard backoff
  /// after each epoch. With guard.policy != kOff, every epoch is
  /// health-checked; under kRollback an unhealthy epoch is undone and
  /// retried at a reduced LR.
  std::vector<EpochStats> fit(const data::LabeledImages& train,
                              const data::LabeledImages* test = nullptr,
                              robust::TrainCheckpointer* checkpointer = nullptr);

  /// Top-1 accuracy of the network on `dataset` (inference mode).
  double evaluate(const data::LabeledImages& dataset);

  /// Invoked at the top of every fit() epoch with the epoch index. Test and
  /// fault-injection hook: lets a harness perturb state mid-run.
  void set_epoch_hook(std::function<void(std::int64_t)> hook) {
    epoch_hook_ = std::move(hook);
  }

 protected:
  /// `tag` names the stage's metrics ("<tag>.epochs") and log lines
  /// ("[<tag>]"), `who` its abort messages.
  struct Names {
    const char* tag;
    const char* who;
  };

  template <typename Config>
  TrainLoop(Names names, std::vector<Param*> params, const Config& config)
      : params_(std::move(params)),
        names_(names),
        epochs_(config.epochs),
        batch_size_(config.batch_size),
        augment_(config.augment),
        verbose_(config.verbose),
        guard_(config.guard),
        optimizer_(params_, SgdConfig{config.lr, config.momentum, config.weight_decay}),
        schedule_(config.lr, config.epochs),
        rng_(config.seed) {}

  virtual Tensor forward(const Tensor& images, bool train) = 0;
  virtual void backward(const Tensor& grad_logits) = 0;
  /// Between backward() and the optimizer step.
  virtual void after_backward() {}
  /// After every optimizer step.
  virtual void after_step() {}
  /// After the last minibatch of an epoch.
  virtual void end_epoch() {}
  /// Adds state beyond the parameters and the loss to an epoch's report.
  virtual void scan_state(const robust::HealthMonitor& /*monitor*/,
                          robust::HealthReport& /*report*/) {}

  /// The network's parameters, index-aligned with the optimizer's momentum.
  const std::vector<Param*> params_;

 private:
  Names names_;
  std::int64_t epochs_;
  std::int64_t batch_size_;
  bool augment_;
  bool verbose_;
  robust::GuardConfig guard_;
  Sgd optimizer_;
  StepDecaySchedule schedule_;
  Rng rng_;
  float lr_scale_ = 1.0F;  // health-guard backoff, applied on top of the schedule
  std::function<void(std::int64_t)> epoch_hook_;
};

/// Stage (a): the DNN with trainable clip thresholds, plus an optional L2
/// pull on those thresholds to keep them near the bulk of the
/// pre-activation distribution.
class DnnTrainer : public TrainLoop {
 public:
  DnnTrainer(Sequential& model, TrainConfig config);

  Sequential& model() { return *model_; }

 private:
  Tensor forward(const Tensor& images, bool train) override;
  void backward(const Tensor& grad_logits) override;
  void after_backward() override;
  void after_step() override;
  void end_epoch() override;

  Sequential* model_;
  float mu_l2_;
  std::vector<Param*> mu_;  // the ThresholdReLU clip thresholds
};

/// Top-1 accuracy of `forward` (logits of an image batch) on `dataset`,
/// taken in fixed-order batches of `batch_size`.
double top1_accuracy(const data::LabeledImages& dataset, std::int64_t batch_size,
                     const std::function<Tensor(const Tensor&)>& forward);

/// Standalone top-1 evaluation of any model (used for converted SNNs' source
/// DNNs and in tests).
double evaluate_model(Sequential& model, const data::LabeledImages& dataset,
                      std::int64_t batch_size = 64);

}  // namespace ullsnn::dnn
