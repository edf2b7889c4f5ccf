#include "src/snn/neuron.h"

#include <stdexcept>


namespace ullsnn::snn {

IfNeuron::IfNeuron(const IfConfig& config)
    : beta_(config.beta),
      init_fraction_(config.initial_membrane_fraction),
      reset_(config.reset),
      train_threshold_(config.train_threshold),
      train_leak_(config.train_leak) {
  if (config.v_threshold <= 0.0F) {
    throw std::invalid_argument("IfNeuron: threshold must be positive");
  }
  if (config.leak < 0.0F || config.leak > 1.0F) {
    throw std::invalid_argument("IfNeuron: leak must be in [0, 1]");
  }
  threshold_.name = "if.threshold";
  threshold_.value = Tensor({1}, config.v_threshold);
  threshold_.grad = Tensor({1});
  threshold_.decay = false;
  leak_.name = "if.leak";
  leak_.value = Tensor({1}, config.leak);
  leak_.grad = Tensor({1});
  leak_.decay = false;
}

void IfNeuron::set_threshold(float v) {
  if (v <= 0.0F) throw std::invalid_argument("IfNeuron: threshold must be positive");
  threshold_.value[0] = v;
}

void IfNeuron::begin_sequence(const Shape& shape, std::int64_t time_steps, bool train) {
  membrane_ = init_fraction_ != 0.0F
                  ? Tensor(shape, init_fraction_ * threshold_.value[0])
                  : Tensor(shape);
  neurons_ = shape.empty() || shape[0] == 0 ? 0 : membrane_.numel() / shape[0];
  cached_utemp_.clear();
  cached_prev_u_.clear();
  if (train) {
    cached_utemp_.resize(static_cast<std::size_t>(time_steps));
    cached_prev_u_.resize(static_cast<std::size_t>(time_steps));
  }
}

void IfNeuron::clear_state() {
  membrane_ = Tensor();
  grad_membrane_ = Tensor();
  cached_utemp_.clear();
  cached_prev_u_.clear();
}

Tensor IfNeuron::step_forward(const Tensor& current, std::int64_t t, bool train) {
  if (current.shape() != membrane_.shape()) {
    throw std::invalid_argument("IfNeuron: current shape " +
                                shape_to_string(current.shape()) +
                                " != membrane shape " +
                                shape_to_string(membrane_.shape()));
  }
  const float v_th = threshold_.value[0];
  const float lam = leak_.value[0];
  const float amplitude = beta_ * v_th;
  const bool hard_reset = reset_ == ResetMode::kZero;
  float* utemp_out = nullptr;  // set only when training records U_temp(t)
  if (train) {
    if (t < 0 || static_cast<std::size_t>(t) >= cached_utemp_.size()) {
      throw std::out_of_range("IfNeuron::step_forward: step index out of range");
    }
    cached_prev_u_[static_cast<std::size_t>(t)] = membrane_;
    cached_utemp_[static_cast<std::size_t>(t)] = Tensor(current.shape());
    utemp_out = cached_utemp_[static_cast<std::size_t>(t)].data();
  }
  Tensor spikes(current.shape());
  const float* cur = current.data();
  float* mem = membrane_.data();
  float* out = spikes.data();
  const std::int64_t n = membrane_.numel();
  // The leak is its own pass, so lam * U(t-1) is rounded before I(t) is
  // added: a compiler that contracts floating-point expressions cannot fuse
  // the two into one multiply-add here, in train or eval. IF (lam == 1)
  // skips it; 1 * U is exact.
  if (lam != 1.0F) {
    for (std::int64_t i = 0; i < n; ++i) mem[i] *= lam;
  }
  // One select-based loop for train and eval, which the compiler
  // vectorizes: each operation is the scalar dynamics', so spikes,
  // membranes and counts are bitwise those of a per-element branch.
  std::int64_t count = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float u_temp = mem[i] + cur[i];
    const bool fired = u_temp > v_th;
    const float reset_to = hard_reset ? 0.0F : u_temp - v_th;
    out[i] = fired ? amplitude : 0.0F;
    mem[i] = fired ? reset_to : u_temp;
    count += fired ? 1 : 0;
    if (utemp_out != nullptr) utemp_out[i] = u_temp;
  }
  spikes_emitted_ += count;
  return spikes;
}

void IfNeuron::begin_backward() {
  if (cached_utemp_.empty()) {
    throw std::logic_error("IfNeuron::begin_backward without a training forward pass");
  }
  grad_membrane_ = Tensor(membrane_.shape());
}

Tensor IfNeuron::step_backward(const Tensor& grad_spikes, std::int64_t t) {
  const Tensor& u_temp = cached_utemp_[static_cast<std::size_t>(t)];
  const Tensor& prev_u = cached_prev_u_[static_cast<std::size_t>(t)];
  const float v_th = threshold_.value[0];
  const float lam = leak_.value[0];
  Tensor grad_current(grad_spikes.shape());
  double g_threshold = 0.0;
  double g_leak = 0.0;
  for (std::int64_t i = 0; i < grad_spikes.numel(); ++i) {
    const float u = u_temp[i];
    // Boxcar surrogate around the threshold: supported on [0, 2*V_th].
    const float surr = (u >= 0.0F && u <= 2.0F * v_th) ? 1.0F : 0.0F;
    const bool spiked = u > v_th;
    const float g_s = grad_spikes[i];
    // dL/dU_temp = gS * dS/dU_temp + gU (reset path detached).
    const float g_utemp = g_s * surr + grad_membrane_[i];
    grad_current[i] = g_utemp;           // dU_temp/dI = 1
    grad_membrane_[i] = lam * g_utemp;   // carry to U(t-1)
    if (train_threshold_) {
      g_threshold += static_cast<double>(g_s) * ((spiked ? beta_ : 0.0F) - surr);
    }
    if (train_leak_) {
      g_leak += static_cast<double>(g_utemp) * prev_u[i];
    }
  }
  // Normalize the scalar-parameter gradients by the per-sample neuron count:
  // the raw sums scale with the feature-map size, which would otherwise make
  // a shared learning rate unusable across layers of different widths.
  const auto denom = static_cast<double>(std::max<std::int64_t>(neurons_, 1));
  if (train_threshold_) {
    threshold_.grad[0] += static_cast<float>(g_threshold / denom);
  }
  if (train_leak_) leak_.grad[0] += static_cast<float>(g_leak / denom);
  return grad_current;
}

std::vector<dnn::Param*> IfNeuron::params() {
  std::vector<dnn::Param*> ps;
  if (train_threshold_) ps.push_back(&threshold_);
  if (train_leak_) ps.push_back(&leak_);
  return ps;
}

}  // namespace ullsnn::snn
