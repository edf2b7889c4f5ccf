#include "src/snn/sgl_trainer.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace ullsnn::snn {

SglTrainer::SglTrainer(SnnNetwork& net, SglConfig config)
    : TrainLoop({"sgl", "SglTrainer"}, net.params(), config),
      net_(&net),
      grad_clip_norm_(config.grad_clip_norm) {}

Tensor SglTrainer::forward(const Tensor& images, bool train) {
  return net_->forward(images, train);
}

void SglTrainer::backward(const Tensor& grad_logits) { net_->backward(grad_logits); }

void SglTrainer::after_backward() {
  if (grad_clip_norm_ <= 0.0F) return;
  double sq = 0.0;
  for (dnn::Param* p : params_) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      sq += static_cast<double>(p->grad[i]) * p->grad[i];
    }
  }
  const double norm = std::sqrt(sq);
  if (norm <= grad_clip_norm_) return;
  const float scale = grad_clip_norm_ / static_cast<float>(norm);
  for (dnn::Param* p : params_) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) p->grad[i] *= scale;
  }
}

void SglTrainer::after_step() {
  // Keep the neuron dynamics physical: thresholds strictly positive, leaks in
  // [0, 1]. SGD steps can momentarily push them outside, after which the
  // forward dynamics (and the surrogate support) would be meaningless.
  for (dnn::Param* p : params_) {
    if (p->name == "if.threshold") {
      p->value[0] = std::max(p->value[0], 1e-3F);
    } else if (p->name == "if.leak") {
      p->value[0] = std::clamp(p->value[0], 0.0F, 1.0F);
    }
  }
}

void SglTrainer::scan_state(const robust::HealthMonitor& monitor,
                            robust::HealthReport& report) {
  // BPTT-specific: the membrane potentials left by the last batch reveal
  // in-dynamics blowups that the weights alone may not show yet.
  for (std::int64_t i = 0; i < net_->size(); ++i) {
    if (IfNeuron* neuron = net_->layer(i).neuron_or_null()) {
      monitor.scan_tensor("layer" + std::to_string(i) + ".membrane",
                          neuron->membrane(), report);
    }
  }
}

}  // namespace ullsnn::snn
