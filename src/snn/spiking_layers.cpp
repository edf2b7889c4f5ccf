#include "src/snn/spiking_layers.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace ullsnn::snn {

namespace {

/// The operand for `weight` ([rows, ...], viewed as [rows, numel/rows]):
/// `prepared` when it was built from the memory the weight reads now and has
/// the dense panels asked for, else a fresh one built from the weight.
const PreparedWeight& prepare(std::shared_ptr<const PreparedWeight>& prepared,
                              const Tensor& weight, bool int8) {
  // A const read: non-const data() would detach (copy) a borrowed weight.
  const float* w = weight.data();
  if (!prepared || prepared->source() != w ||
      (int8 && prepared->int8_panels() == nullptr)) {
    const std::int64_t rows = weight.dim(0);
    const std::int64_t cols = rows > 0 ? weight.numel() / rows : 0;
    prepared = std::make_shared<const PreparedWeight>(
        w, rows, cols, int8 ? Precision::kInt8 : Precision::kFp32);
  }
  return *prepared;
}

}  // namespace

// ---------------------------------------------------------------------------
// Synapse
// ---------------------------------------------------------------------------

Synapse::Synapse(Tensor weight, Conv2dSpec spec)
    : Synapse(Kind::kConv, std::move(weight), spec) {}

Synapse::Synapse(Tensor weight) : Synapse(Kind::kLinear, std::move(weight), {}) {}

Synapse::Synapse(Kind kind, Tensor weight, Conv2dSpec spec) : kind_(kind), spec_(spec) {
  if (kind == Kind::kConv) {
    const Shape expected = {spec.out_channels, spec.in_channels, spec.kernel,
                            spec.kernel};
    if (weight.shape() != expected) {
      throw std::invalid_argument("Synapse: conv weight shape " +
                                  shape_to_string(weight.shape()) + " != " +
                                  shape_to_string(expected));
    }
  } else if (weight.rank() != 2) {
    throw std::invalid_argument("Synapse: linear weight must be [out, in]");
  }
  weight_.name = kind == Kind::kConv ? "synaptic_conv.weight" : "synaptic_linear.weight";
  weight_.value = std::move(weight);
  // Borrowed (artifact-shared) weights are inference-only until someone
  // trains them; defer the full-size grad allocation so replica spin-up
  // stays O(page-fault) instead of O(parameters).
  if (!weight_.value.borrowed()) weight_.grad = Tensor(weight_.value.shape());
}

void Synapse::begin_sequence(std::int64_t time_steps, bool train) {
  cached_inputs_.clear();
  if (train) cached_inputs_.resize(static_cast<std::size_t>(time_steps));
  drop_owned_operand();  // an owned weight may have changed since last sequence
}

void Synapse::set_prepared_weight(std::shared_ptr<const PreparedWeight> prepared) {
  const Tensor& w = weight_.value;
  if (prepared == nullptr || !w.borrowed() || prepared->source() != w.data() ||
      prepared->rows() != w.dim(0) || prepared->rows() * prepared->cols() != w.numel()) {
    throw std::invalid_argument(
        "Synapse: prepared weight was not built from this layer's borrowed weight");
  }
  prepared_ = std::move(prepared);
}

Tensor Synapse::forward(const Tensor& input, std::int64_t t, bool train) {
  if (kind_ == Kind::kLinear &&
      (input.rank() != 2 || input.dim(1) != weight_.value.dim(1))) {
    throw std::invalid_argument("Synapse: bad linear input shape " +
                                shape_to_string(input.shape()));
  }
  Tensor out(output_shape(input.shape()));
  // Density dispatch (sparse spike kernel vs blocked GEMM); the dispatch scan
  // also produces the exact nonzero tally for the activity accounting.
  const bool int8 = !train && precision_ == Precision::kInt8;
  const PreparedWeight& prepared = prepare(prepared_, weight_.value, int8);
  const Precision precision = int8 ? Precision::kInt8 : Precision::kFp32;
  if (kind_ == Kind::kConv) {
    conv2d_forward_spiking(input, prepared, out, spec_, kDefaultSpikeDensityThreshold,
                           precision, stats_);
  } else {
    linear_forward_spiking(input, weight_.value, prepared, out,
                           kDefaultSpikeDensityThreshold, precision, stats_);
  }
  if (train) cached_inputs_[static_cast<std::size_t>(t)] = input;
  return out;
}

Tensor Synapse::backward(const Tensor& grad_current, std::int64_t t) {
  const Tensor& input = cached_inputs_.at(static_cast<std::size_t>(t));
  if (input.empty()) throw std::logic_error("Synapse::backward without forward");
  if (weight_.grad.empty()) {
    // First backward on artifact-borrowed weights: own them now so the
    // optimizer's per-element update never writes through the mapping.
    weight_.value.detach();
    weight_.grad = Tensor(weight_.value.shape());
  }
  Tensor grad_input(input.shape());
  if (kind_ == Kind::kConv) {
    conv2d_backward(input, weight_.value, grad_current, &grad_input, weight_.grad,
                    nullptr, spec_);
  } else {
    const std::int64_t n = input.dim(0);
    const std::int64_t in = weight_.value.dim(1);
    const std::int64_t out = weight_.value.dim(0);
    matmul_at(grad_current.data(), input.data(), weight_.grad.data(), out, n, in,
              /*accumulate=*/true);
    matmul(grad_current.data(), weight_.value.data(), grad_input.data(), n, out, in);
  }
  return grad_input;
}

Shape Synapse::output_shape(const Shape& input) const {
  if (kind_ == Kind::kLinear) return {input[0], weight_.value.dim(0)};
  return {input[0], spec_.out_channels, spec_.out_extent(input[2]),
          spec_.out_extent(input[3])};
}

std::int64_t Synapse::macs(const Shape& input) const {
  // One MAC per weight per output position; a linear op has one position.
  if (kind_ == Kind::kLinear) return weight_.value.numel();
  return spec_.out_extent(input[2]) * spec_.out_extent(input[3]) * weight_.value.numel();
}

double Synapse::acs(const Shape& input, std::int64_t time_steps) const {
  const double rate =
      stats_.elements > 0
          ? static_cast<double>(stats_.nonzeros) / static_cast<double>(stats_.elements)
          : 0.0;
  return static_cast<double>(macs(input)) * rate * static_cast<double>(time_steps);
}

// ---------------------------------------------------------------------------
// SynapticLayer
// ---------------------------------------------------------------------------

SynapticLayer::SynapticLayer(Synapse synapse, const std::optional<IfConfig>& neuron)
    : synapse_(std::move(synapse)) {
  if (neuron) {
    neuron_ = std::make_unique<IfNeuron>(*neuron);
  } else if (synapse_.kind() == Synapse::Kind::kConv) {
    throw std::invalid_argument("SynapticLayer: a conv synapse must feed a neuron");
  }
}

void SynapticLayer::begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                                   bool train) {
  synapse_.begin_sequence(time_steps, train);
  if (neuron_) {
    neuron_->begin_sequence(synapse_.output_shape(input_shape), time_steps, train);
  }
  hold_current_ = false;
  held_current_ = Tensor();
}

Tensor SynapticLayer::step_forward(const Tensor& input, std::int64_t t, bool train) {
  // Training caches every step's input for BPTT, so it never holds.
  if (hold_current_ && !train) {
    if (t == 0) held_current_ = synapse_.forward(input, t, train);
    if (neuron_) return neuron_->step_forward(held_current_, t, train);
    return held_current_;
  }
  Tensor current = synapse_.forward(input, t, train);
  if (neuron_) return neuron_->step_forward(current, t, train);
  return current;
}

Tensor SynapticLayer::step_backward(const Tensor& grad_output, std::int64_t t) {
  if (neuron_) return synapse_.backward(neuron_->step_backward(grad_output, t), t);
  return synapse_.backward(grad_output, t);
}

std::vector<Param*> SynapticLayer::params() {
  std::vector<Param*> ps = {&synapse_.weight()};
  if (neuron_) {
    for (Param* p : neuron_->params()) ps.push_back(p);
  }
  return ps;
}

void SynapticLayer::reset_stats() {
  synapse_.reset_stats();
  if (neuron_) neuron_->reset_stats();
}

void SynapticLayer::reset_runtime_state() {
  if (neuron_) neuron_->clear_state();
  synapse_.clear_runtime_state();
  held_current_ = Tensor();
}

// ---------------------------------------------------------------------------
// SpikingMaxPool
// ---------------------------------------------------------------------------

SpikingMaxPool::SpikingMaxPool(Pool2dSpec spec) : spec_(spec) {}

void SpikingMaxPool::begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                                    bool train) {
  validate_pool_geometry(spec_, input_shape[2], input_shape[3]);
  input_shape_ = input_shape;
  argmax_per_step_.clear();
  if (train) argmax_per_step_.resize(static_cast<std::size_t>(time_steps));
}

Tensor SpikingMaxPool::step_forward(const Tensor& input, std::int64_t t, bool train) {
  Tensor out(output_shape(input.shape()));
  // Only BPTT reads the argmax; eval pools values alone.
  maxpool2d_forward(input, out, spec_,
                    train ? &argmax_per_step_.at(static_cast<std::size_t>(t)) : nullptr);
  return out;
}

Tensor SpikingMaxPool::step_backward(const Tensor& grad_output, std::int64_t t) {
  const auto& argmax = argmax_per_step_.at(static_cast<std::size_t>(t));
  if (argmax.empty()) throw std::logic_error("SpikingMaxPool::step_backward without forward");
  Tensor grad_input(input_shape_);
  maxpool2d_backward(grad_output, argmax, grad_input);
  return grad_input;
}

Shape SpikingMaxPool::output_shape(const Shape& input) const {
  return {input[0], input[1], spec_.out_extent(input[2]), spec_.out_extent(input[3])};
}

// ---------------------------------------------------------------------------
// SpikingAvgPool
// ---------------------------------------------------------------------------

SpikingAvgPool::SpikingAvgPool(Pool2dSpec spec) : spec_(spec) {}

void SpikingAvgPool::begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                                    bool train) {
  (void)time_steps;
  (void)train;
  validate_pool_geometry(spec_, input_shape[2], input_shape[3]);
  input_shape_ = input_shape;
}

Tensor SpikingAvgPool::step_forward(const Tensor& input, std::int64_t t, bool train) {
  (void)t;
  (void)train;
  Tensor out(output_shape(input.shape()));
  avgpool2d_forward(input, out, spec_);
  return out;
}

Tensor SpikingAvgPool::step_backward(const Tensor& grad_output, std::int64_t t) {
  (void)t;
  Tensor grad_input(input_shape_);
  avgpool2d_backward(grad_output, grad_input, spec_);
  return grad_input;
}

Shape SpikingAvgPool::output_shape(const Shape& input) const {
  return {input[0], input[1], spec_.out_extent(input[2]), spec_.out_extent(input[3])};
}

// ---------------------------------------------------------------------------
// SpikingDropout
// ---------------------------------------------------------------------------

SpikingDropout::SpikingDropout(float drop_prob, Rng& rng)
    : drop_prob_(drop_prob), rng_(rng.split()) {
  if (drop_prob < 0.0F || drop_prob >= 1.0F) {
    throw std::invalid_argument("SpikingDropout: drop_prob must be in [0, 1)");
  }
}

void SpikingDropout::begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                                    bool train) {
  (void)time_steps;
  active_ = train && drop_prob_ > 0.0F;
  if (!active_) return;
  mask_.resize(static_cast<std::size_t>(shape_numel(input_shape)));
  const float keep_scale = 1.0F / (1.0F - drop_prob_);
  for (auto& m : mask_) m = rng_.bernoulli(drop_prob_) ? 0.0F : keep_scale;
}

Tensor SpikingDropout::step_forward(const Tensor& input, std::int64_t t, bool train) {
  (void)t;
  (void)train;
  if (!active_) return input;
  if (mask_.size() != static_cast<std::size_t>(input.numel())) {
    throw std::logic_error("SpikingDropout: mask size mismatch");
  }
  Tensor out = input;
  for (std::int64_t i = 0; i < out.numel(); ++i) out[i] *= mask_[static_cast<std::size_t>(i)];
  return out;
}

Tensor SpikingDropout::step_backward(const Tensor& grad_output, std::int64_t t) {
  return step_forward(grad_output, t, /*train=*/false).reshape(grad_output.shape());
}

// ---------------------------------------------------------------------------
// SpikingFlatten
// ---------------------------------------------------------------------------

void SpikingFlatten::begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                                    bool train) {
  (void)time_steps;
  (void)train;
  input_shape_ = input_shape;
}

Tensor SpikingFlatten::step_forward(const Tensor& input, std::int64_t t, bool train) {
  (void)t;
  (void)train;
  return input.reshape({input.dim(0), -1});
}

Tensor SpikingFlatten::step_backward(const Tensor& grad_output, std::int64_t t) {
  (void)t;
  return grad_output.reshape(input_shape_);
}

Shape SpikingFlatten::output_shape(const Shape& input) const {
  std::int64_t features = 1;
  for (std::size_t i = 1; i < input.size(); ++i) features *= input[i];
  return {input[0], features};
}

// ---------------------------------------------------------------------------
// SpikingResidualBlock
// ---------------------------------------------------------------------------

SpikingResidualBlock::SpikingResidualBlock(Tensor conv1_weight, Conv2dSpec conv1_spec,
                                           const IfConfig& neuron1,
                                           Tensor conv2_weight, Conv2dSpec conv2_spec,
                                           const IfConfig& neuron2,
                                           Tensor projection_weight,
                                           Conv2dSpec projection_spec)
    : conv1_(std::move(conv1_weight), conv1_spec),
      neuron1_(neuron1),
      conv2_(std::move(conv2_weight), conv2_spec),
      neuron2_(neuron2) {
  if (!projection_weight.empty()) {
    projection_ = std::make_unique<Synapse>(std::move(projection_weight),
                                            projection_spec);
  }
}

void SpikingResidualBlock::begin_sequence(const Shape& input_shape,
                                          std::int64_t time_steps, bool train) {
  conv1_.begin_sequence(time_steps, train);
  const Shape mid = conv1_.output_shape(input_shape);
  neuron1_.begin_sequence(mid, time_steps, train);
  conv2_.begin_sequence(time_steps, train);
  if (projection_) projection_->begin_sequence(time_steps, train);
  neuron2_.begin_sequence(conv2_.output_shape(mid), time_steps, train);
}

Tensor SpikingResidualBlock::step_forward(const Tensor& input, std::int64_t t,
                                          bool train) {
  const Tensor s1 =
      neuron1_.step_forward(conv1_.forward(input, t, train), t, train);
  Tensor current = conv2_.forward(s1, t, train);
  if (projection_) {
    current += projection_->forward(input, t, train);
  } else {
    current += input;
  }
  return neuron2_.step_forward(current, t, train);
}

void SpikingResidualBlock::begin_backward() {
  neuron1_.begin_backward();
  neuron2_.begin_backward();
}

Tensor SpikingResidualBlock::step_backward(const Tensor& grad_output, std::int64_t t) {
  const Tensor g_current = neuron2_.step_backward(grad_output, t);
  Tensor g_in = conv1_.backward(neuron1_.step_backward(conv2_.backward(g_current, t), t), t);
  if (projection_) {
    g_in += projection_->backward(g_current, t);
  } else {
    g_in += g_current;
  }
  return g_in;
}

std::vector<Param*> SpikingResidualBlock::params() {
  std::vector<Param*> ps = {&conv1_.weight()};
  for (Param* p : neuron1_.params()) ps.push_back(p);
  ps.push_back(&conv2_.weight());
  if (projection_) ps.push_back(&projection_->weight());
  for (Param* p : neuron2_.params()) ps.push_back(p);
  return ps;
}

Shape SpikingResidualBlock::output_shape(const Shape& input) const {
  return conv2_.output_shape(conv1_.output_shape(input));
}

std::int64_t SpikingResidualBlock::macs(const Shape& input) const {
  const Shape mid = conv1_.output_shape(input);
  std::int64_t total = conv1_.macs(input) + conv2_.macs(mid);
  if (projection_) total += projection_->macs(input);
  return total;
}

double SpikingResidualBlock::acs_estimate(const Shape& input,
                                          std::int64_t time_steps) const {
  double acs = conv1_.acs(input, time_steps);
  acs += conv2_.acs(conv1_.output_shape(input), time_steps);
  if (projection_) acs += projection_->acs(input, time_steps);
  return acs;
}

void SpikingResidualBlock::reset_stats() {
  conv1_.reset_stats();
  neuron1_.reset_stats();
  conv2_.reset_stats();
  if (projection_) projection_->reset_stats();
  neuron2_.reset_stats();
}

}  // namespace ullsnn::snn
