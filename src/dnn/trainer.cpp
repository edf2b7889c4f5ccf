#include "src/dnn/trainer.h"

#include <stdexcept>
#include <string>

#include "src/dnn/activations.h"
#include "src/dnn/loss.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/util/timer.h"

namespace ullsnn::dnn {

EpochStats TrainLoop::train_epoch(const data::LabeledImages& train,
                                  std::int64_t epoch) {
  Timer timer;
  optimizer_.set_lr(schedule_.lr_at(epoch) * lr_scale_);
  data::BatchIterator batches(train, batch_size_, rng_);
  const data::AugmentSpec aug;
  double loss_sum = 0.0;
  std::int64_t correct = 0;
  std::int64_t seen = 0;
  for (std::int64_t b = 0; b < batches.num_batches(); ++b) {
    data::Batch batch = batches.batch(b);
    if (augment_) data::augment_batch(batch, aug, rng_);
    optimizer_.zero_grad();
    const Tensor logits = forward(batch.images, /*train=*/true);
    LossResult loss = softmax_cross_entropy(logits, batch.labels);
    backward(loss.grad);
    after_backward();
    optimizer_.step();
    after_step();
    loss_sum += static_cast<double>(loss.loss) * static_cast<double>(batch.size());
    correct += loss.correct;
    seen += batch.size();
  }
  end_epoch();
  EpochStats stats;
  stats.epoch = epoch;
  stats.train_loss = static_cast<float>(loss_sum / static_cast<double>(seen));
  stats.train_accuracy = static_cast<double>(correct) / static_cast<double>(seen);
  stats.seconds = timer.seconds();
  return stats;
}

std::vector<EpochStats> TrainLoop::fit(const data::LabeledImages& train,
                                       const data::LabeledImages* test,
                                       robust::TrainCheckpointer* checkpointer) {
  robust::HealthMonitor monitor(guard_);
  std::vector<EpochStats> history;
  history.reserve(static_cast<std::size_t>(epochs_));
  std::int64_t start = 0;
  if (checkpointer != nullptr) {
    start = checkpointer->restore(params_, optimizer_.velocity(), rng_, monitor);
    if (start > 0) {
      lr_scale_ = monitor.lr_scale();
      if (verbose_) {
        obs::logf(obs::LogLevel::kInfo, "  [%s] resuming from epoch %lld (%s)", names_.tag,
                  static_cast<long long>(start), checkpointer->path().c_str());
      }
    }
  }
  const bool rollback = guard_.policy == robust::GuardPolicy::kRollback;
  if (rollback) monitor.snapshot(params_, optimizer_.velocity(), rng_);
  const std::string tag = names_.tag;
  for (std::int64_t e = start; e < epochs_;) {
    if (epoch_hook_) epoch_hook_(e);
    EpochStats stats = train_epoch(train, e);
    if (monitor.enabled()) {
      robust::HealthReport report = monitor.check(params_, stats.train_loss);
      scan_state(monitor, report);
      switch (monitor.decide(report)) {
        case robust::GuardAction::kAbort:
          throw std::runtime_error(std::string(names_.who) + ": " + report.describe());
        case robust::GuardAction::kRetry:
          monitor.restore(params_, optimizer_.velocity(), rng_);
          lr_scale_ = monitor.lr_scale();
          continue;  // replay the same epoch from the restored state
        case robust::GuardAction::kProceed:
          break;
      }
      if (rollback) monitor.snapshot(params_, optimizer_.velocity(), rng_);
    }
    if (test != nullptr) stats.test_accuracy = evaluate(*test);
    obs::Registry& metrics = obs::Registry::instance();
    metrics.counter(tag + ".epochs").add(1);
    metrics.gauge(tag + ".train_loss").set(stats.train_loss);
    metrics.gauge(tag + ".train_accuracy").set(stats.train_accuracy);
    metrics.histogram(tag + ".epoch_seconds").observe(stats.seconds);
    if (verbose_) {
      obs::logf(obs::LogLevel::kInfo,
                "  [%s] epoch %3lld  loss %.4f  train %.4f  test %.4f  (%.1fs)",
                names_.tag, static_cast<long long>(stats.epoch), stats.train_loss,
                stats.train_accuracy, stats.test_accuracy, stats.seconds);
    }
    history.push_back(stats);
    if (checkpointer != nullptr) {
      checkpointer->save(e + 1, params_, optimizer_.velocity(), rng_, monitor);
    }
    ++e;
  }
  return history;
}

double TrainLoop::evaluate(const data::LabeledImages& dataset) {
  return top1_accuracy(dataset, batch_size_,
                       [this](const Tensor& images) { return forward(images, false); });
}

DnnTrainer::DnnTrainer(Sequential& model, TrainConfig config)
    : TrainLoop({"dnn", "DnnTrainer"}, model.params(), config),
      model_(&model),
      mu_l2_(config.mu_l2) {
  for (Param* p : params_) {
    if (p->name == "threshold_relu.mu") mu_.push_back(p);
  }
}

Tensor DnnTrainer::forward(const Tensor& images, bool train) {
  return model_->forward(images, train);
}

void DnnTrainer::backward(const Tensor& grad_logits) { model_->backward(grad_logits); }

void DnnTrainer::after_backward() {
  // L2 regularizer on the clip thresholds: grad += 2 * lambda * mu.
  if (mu_l2_ > 0.0F) {
    for (Param* p : mu_) p->grad[0] += 2.0F * mu_l2_ * p->value[0];
  }
}

void DnnTrainer::after_step() {
  // Keep clip thresholds positive: a mu driven to <= 0 silences its layer
  // permanently (zero output and zero gradient — unrecoverable).
  for (Param* p : mu_) {
    if (p->value[0] < 1e-2F) p->value[0] = 1e-2F;
  }
}

void DnnTrainer::end_epoch() { model_->clear_cache(); }

double top1_accuracy(const data::LabeledImages& dataset, std::int64_t batch_size,
                     const std::function<Tensor(const Tensor&)>& forward) {
  Rng rng(0);  // unused: evaluation neither shuffles nor augments
  data::BatchIterator batches(dataset, batch_size, rng, /*shuffle_each_epoch=*/false);
  std::int64_t correct = 0;
  for (std::int64_t b = 0; b < batches.num_batches(); ++b) {
    const data::Batch batch = batches.batch(b);
    const Tensor logits = forward(batch.images);
    correct += static_cast<std::int64_t>(
        accuracy(logits, batch.labels) * static_cast<double>(batch.size()) + 0.5);
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

double evaluate_model(Sequential& model, const data::LabeledImages& dataset,
                      std::int64_t batch_size) {
  return top1_accuracy(dataset, batch_size, [&model](const Tensor& images) {
    return model.forward(images, false);
  });
}

}  // namespace ullsnn::dnn
