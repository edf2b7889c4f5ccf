#include "src/snn/snn_network.h"

#include <stdexcept>

#include "src/dnn/trainer.h"
#include "src/obs/metrics.h"

namespace ullsnn::snn {

SnnNetwork::SnnNetwork(std::int64_t time_steps) : time_steps_(time_steps) {
  if (time_steps <= 0) throw std::invalid_argument("SnnNetwork: time_steps must be positive");
}

void SnnNetwork::append(SpikingLayerPtr layer) {
  layer->set_precision(precision_);
  layers_.push_back(std::move(layer));
}

void SnnNetwork::set_precision(Precision precision) {
  precision_ = precision;
  for (auto& layer : layers_) layer->set_precision(precision);
}

void SnnNetwork::set_time_steps(std::int64_t t) {
  if (t <= 0) throw std::invalid_argument("SnnNetwork: time_steps must be positive");
  time_steps_ = t;
}

void SnnNetwork::set_encoding(Encoding encoding, std::uint64_t seed) {
  encoding_ = encoding;
  encoder_seed_ = seed;
  encoder_rng_ = Rng(seed);
}

void SnnNetwork::reset_state() {
  for (auto& layer : layers_) layer->reset_runtime_state();
  encoder_rng_ = Rng(encoder_seed_);
  cached_input_shape_ = Shape{};
}

Tensor SnnNetwork::forward(const Tensor& images, bool train) {
  if (layers_.empty()) throw std::logic_error("SnnNetwork::forward: empty network");
  ULLSNN_COUNTER_ADD("snn.forward.sequences", 1);
  cached_input_shape_ = images.shape();
  // Direct encoding presents the same image at every step, so the first
  // layer may compute its synaptic current once and hold it (it does in
  // eval). The image is passed as is, never copied per step.
  const bool direct = encoding_ == Encoding::kDirect;
  Shape shape = images.shape();
  for (auto& layer : layers_) {
    layer->begin_sequence(shape, time_steps_, train);
    shape = layer->output_shape(shape);
  }
  layers_[0]->hold_input(direct);
  if (observer_ != nullptr) {
    observer_->on_sequence_begin(*this, images.shape(), time_steps_, train);
  }
  Tensor logits(shape);
  for (std::int64_t t = 0; t < time_steps_; ++t) {
    Tensor x = direct ? layers_[0]->step_forward(images, t, train)
                      : layers_[0]->step_forward(
                            encode_step(images, encoding_, encoder_rng_), t, train);
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      if (i > 0) x = layers_[i]->step_forward(x, t, train);
      if (observer_ != nullptr) {
        observer_->on_layer_step(*this, static_cast<std::int64_t>(i), x, t);
      }
    }
    logits += x;
    if (step_hook_) step_hook_(*this, t);
  }
  if (observer_ != nullptr) observer_->on_sequence_end(*this);
  return logits;
}

void SnnNetwork::backward(const Tensor& grad_logits) {
  for (auto& layer : layers_) layer->begin_backward();
  for (std::int64_t t = time_steps_ - 1; t >= 0; --t) {
    Tensor g = grad_logits;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      g = (*it)->step_backward(g, t);
    }
  }
}

std::vector<Param*> SnnNetwork::params() {
  std::vector<Param*> all;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) all.push_back(p);
  }
  return all;
}

void SnnNetwork::reset_stats() {
  for (auto& layer : layers_) layer->reset_stats();
}

std::int64_t SnnNetwork::total_spikes() const {
  std::int64_t total = 0;
  for (const auto& layer : layers_) total += layer->spikes_emitted();
  return total;
}

double evaluate_snn(SnnNetwork& net, const data::LabeledImages& dataset,
                    std::int64_t batch_size) {
  return dnn::top1_accuracy(dataset, batch_size, [&net](const Tensor& images) {
    return net.forward(images, false);
  });
}

}  // namespace ullsnn::snn
