// Spiking layer zoo. Layers process one time step at a time under an
// explicit temporal protocol driven by SnnNetwork:
//
//   begin_sequence(shape, T, train)          once per batch
//   step_forward(x, t, train)                t = 0 .. T-1
//   begin_backward()                         once, training only
//   step_backward(g, t)                      t = T-1 .. 0   (BPTT)
//
// Every weighted layer is one Synapse (a convolution or a fully connected
// op: weights only, no membrane dynamics) feeding an IF neuron with
// threshold alpha*mu and amplitude beta*V_th (Sec. III). SynapticLayer is
// that pair; the classifier readout is the same layer without the neuron.
// Synapses stand apart from the IF dynamics so that residual blocks can sum
// currents into a shared post-neuron, exactly like the DNN residual join
// converts (DESIGN.md).
//
// Synapses route through the sparsity-aware kernels in tensor/ops.h: each
// time step's input density decides between the dense blocked GEMM and the
// row-compressed spike kernel, and the exact nonzero tally that dispatch
// scan produces feeds the Sec. VI spiking-activity / FLOPs / energy
// accounting — there is no separate counting pass. IF neurons count emitted
// spikes.
//
// Held input current: hold_input(true), called after begin_sequence,
// promises that step_forward will see the same input at every step of the
// sequence (direct encoding, Sec. I). In eval, a SynapticLayer then runs its
// synapse once, at t = 0, and integrates that held current at every step:
// the same T membrane updates on bitwise the same current, and the one
// synaptic pass the Sec. VI energy model already counts. Training runs the
// synapse every step (BPTT caches each step's input); other layers ignore
// the promise.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/dnn/module.h"
#include "src/snn/neuron.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace ullsnn::snn {

using dnn::Param;

// ---------------------------------------------------------------------------
// Synapse: weights only, no membrane dynamics.
// ---------------------------------------------------------------------------

/// One synaptic op, a convolution or a fully connected layer. The two kinds
/// share the weight, the BPTT input cache, the prepared operand, precision
/// and the activity counters; they differ only in the kernel, the backward
/// pass, the output shape and the MAC count.
class Synapse {
 public:
  enum class Kind { kConv, kLinear };

  /// Convolution; weight [out_channels, in_channels, kernel, kernel].
  Synapse(Tensor weight, Conv2dSpec spec);
  /// Fully connected; weight [out, in].
  explicit Synapse(Tensor weight);

  Kind kind() const { return kind_; }
  void begin_sequence(std::int64_t time_steps, bool train);
  Tensor forward(const Tensor& input, std::int64_t t, bool train);
  /// Gradient w.r.t. the step-t input; accumulates the weight gradient.
  Tensor backward(const Tensor& grad_current, std::int64_t t);

  Param& weight() { return weight_; }
  const Param& weight() const { return weight_; }
  /// Convolution geometry; meaningful for kConv only.
  const Conv2dSpec& spec() const { return spec_; }
  Shape output_shape(const Shape& input) const;
  /// Dense per-step per-sample MAC count at this input shape.
  std::int64_t macs(const Shape& input) const;
  /// Measured accumulate-operation count per sample over `time_steps` steps:
  /// macs() scaled by the observed input nonzero rate (each input spike
  /// triggers exactly its fan-out's worth of ACs).
  double acs(const Shape& input, std::int64_t time_steps) const;

  std::int64_t input_nonzeros() const { return stats_.nonzeros; }
  std::int64_t input_elements() const { return stats_.elements; }
  const SpikeKernelStats& kernel_stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  /// Drop cached inputs and, for an owned weight, the prepared operand
  /// (isolation contract). An operand prepared from a borrowed weight is
  /// parameter-like and survives: borrowed memory is immutable.
  void clear_runtime_state() {
    cached_inputs_.clear();
    drop_owned_operand();
  }

  /// Inference precision: int8 applies to the eval-mode dense forward only
  /// (training steps and sparse samples stay fp32).
  void set_precision(Precision precision) { precision_ = precision; }
  Precision precision() const { return precision_; }

  /// Install an operand prepared from this synapse's borrowed weight (an
  /// artifact shares one across all its replicas). Throws unless it was
  /// prepared from exactly the memory the weight reads.
  void set_prepared_weight(std::shared_ptr<const PreparedWeight> prepared);
  /// The installed operand, or the one the last forward built; null before
  /// either.
  const std::shared_ptr<const PreparedWeight>& prepared_weight() const {
    return prepared_;
  }

 private:
  Synapse(Kind kind, Tensor weight, Conv2dSpec spec);
  void drop_owned_operand() {
    if (!weight_.value.borrowed()) prepared_.reset();
  }

  Kind kind_;
  Param weight_;
  Conv2dSpec spec_;
  std::vector<Tensor> cached_inputs_;
  // W^T plus dense panels. A borrowed weight's operand is permanent (shared
  // across replicas when the artifact installs it); an owned weight's is
  // built on first use and dropped every begin_sequence, because owned
  // weights may be written in place between sequences.
  std::shared_ptr<const PreparedWeight> prepared_;
  SpikeKernelStats stats_;
  Precision precision_ = Precision::kFp32;
};

// ---------------------------------------------------------------------------
// Spiking layer interface.
// ---------------------------------------------------------------------------

class SpikingLayer {
 public:
  virtual ~SpikingLayer() = default;
  SpikingLayer() = default;
  SpikingLayer(const SpikingLayer&) = delete;
  SpikingLayer& operator=(const SpikingLayer&) = delete;

  virtual void begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                              bool train) = 0;
  /// Every step of the current sequence gets the same input (see the held
  /// input current above). begin_sequence forgets it.
  virtual void hold_input(bool /*repeats*/) {}
  virtual Tensor step_forward(const Tensor& input, std::int64_t t, bool train) = 0;
  virtual void begin_backward() {}
  virtual Tensor step_backward(const Tensor& grad_output, std::int64_t t) = 0;

  virtual std::vector<Param*> params() { return {}; }
  virtual Shape output_shape(const Shape& input) const = 0;
  virtual std::string name() const = 0;

  /// Dense per-step per-sample synaptic MAC count at this input shape
  /// (0 for weightless layers).
  virtual std::int64_t macs(const Shape& input) const { (void)input; return 0; }

  /// Measured accumulate-operation count per sample over `time_steps` steps:
  /// dense MACs scaled by the observed input non-zero rate (each input spike
  /// triggers exactly its fan-out's worth of ACs). Valid after inference has
  /// populated the activity counters; 0 for weightless layers.
  virtual double acs_estimate(const Shape& input, std::int64_t time_steps) const {
    (void)input;
    (void)time_steps;
    return 0.0;
  }

  // Activity statistics (accumulated across sequences until reset_stats()).
  virtual std::int64_t spikes_emitted() const { return 0; }
  virtual std::int64_t neurons() const { return 0; }
  virtual std::int64_t input_nonzeros() const { return 0; }
  virtual std::int64_t input_elements() const { return 0; }
  virtual void reset_stats() {}

  /// Drop ALL per-sequence runtime state (membranes, BPTT caches, cached
  /// inputs, pooling argmax, dropout masks) so the next begin_sequence /
  /// step_forward runs as if the layer were freshly constructed. Parameters
  /// and activity counters are untouched. Weightless shape-only layers have
  /// nothing to drop. Part of the SnnNetwork::reset_state() isolation
  /// contract (see snn_network.h).
  virtual void reset_runtime_state() {}

  /// Primary IF neuron of this layer, or nullptr for weight/shape-only layers.
  virtual IfNeuron* neuron_or_null() { return nullptr; }

  /// Inference precision for this layer's synapses (no-op on weightless
  /// layers). See Synapse::set_precision for the exact semantics.
  virtual void set_precision(Precision precision) { (void)precision; }
};

using SpikingLayerPtr = std::unique_ptr<SpikingLayer>;

// ---------------------------------------------------------------------------
// Concrete layers.
// ---------------------------------------------------------------------------

/// One weighted spiking layer: a synapse feeding IF dynamics. Only a linear
/// synapse may go without a neuron: the classifier readout, whose currents
/// SnnNetwork accumulates into logits across the T steps. The first network
/// layer receives the analog image directly each step (direct encoding) —
/// the math is identical, only the energy accounting differs (MACs vs ACs;
/// see energy/flops.h).
class SynapticLayer final : public SpikingLayer {
 public:
  /// An empty `neuron` makes the neuron-free readout; throws for a
  /// convolution.
  SynapticLayer(Synapse synapse, const std::optional<IfConfig>& neuron);

  void begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                      bool train) override;
  void hold_input(bool repeats) override { hold_current_ = repeats; }
  Tensor step_forward(const Tensor& input, std::int64_t t, bool train) override;
  void begin_backward() override {
    if (neuron_) neuron_->begin_backward();
  }
  Tensor step_backward(const Tensor& grad_output, std::int64_t t) override;
  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override {
    return synapse_.output_shape(input);
  }
  std::string name() const override {
    return synapse_.kind() == Synapse::Kind::kConv ? "SpikingConv2d" : "SpikingLinear";
  }
  std::int64_t macs(const Shape& input) const override { return synapse_.macs(input); }
  double acs_estimate(const Shape& input, std::int64_t time_steps) const override {
    return synapse_.acs(input, time_steps);
  }
  std::int64_t spikes_emitted() const override {
    return neuron_ ? neuron_->spikes_emitted() : 0;
  }
  std::int64_t neurons() const override { return neuron_ ? neuron_->neurons() : 0; }
  std::int64_t input_nonzeros() const override { return synapse_.input_nonzeros(); }
  std::int64_t input_elements() const override { return synapse_.input_elements(); }
  void reset_stats() override;
  void reset_runtime_state() override;
  IfNeuron* neuron_or_null() override { return neuron_.get(); }
  void set_precision(Precision precision) override {
    synapse_.set_precision(precision);
  }

  Synapse& synapse() { return synapse_; }
  bool has_neuron() const { return neuron_ != nullptr; }

 private:
  Synapse synapse_;
  std::unique_ptr<IfNeuron> neuron_;  // null => readout
  bool hold_current_ = false;         // this sequence's input repeats
  Tensor held_current_;               // synaptic current of t = 0 when holding
};

/// Max pooling over spike maps. On {0, amplitude} inputs the output stays in
/// {0, amplitude}, preserving the accumulate-only property (Sec. IV-A).
class SpikingMaxPool final : public SpikingLayer {
 public:
  explicit SpikingMaxPool(Pool2dSpec spec);

  void begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                      bool train) override;
  Tensor step_forward(const Tensor& input, std::int64_t t, bool train) override;
  Tensor step_backward(const Tensor& grad_output, std::int64_t t) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "SpikingMaxPool"; }
  void reset_runtime_state() override { argmax_per_step_.clear(); }
  const Pool2dSpec& spec() const { return spec_; }

 private:
  Pool2dSpec spec_;
  Shape input_shape_;
  std::vector<std::vector<std::int64_t>> argmax_per_step_;
};

/// Average pooling (used by the ResNet head and the pooling ablation).
class SpikingAvgPool final : public SpikingLayer {
 public:
  explicit SpikingAvgPool(Pool2dSpec spec);

  void begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                      bool train) override;
  Tensor step_forward(const Tensor& input, std::int64_t t, bool train) override;
  Tensor step_backward(const Tensor& grad_output, std::int64_t t) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "SpikingAvgPool"; }
  const Pool2dSpec& spec() const { return spec_; }

 private:
  Pool2dSpec spec_;
  Shape input_shape_;
};

/// Dropout with a mask held FIXED across the T steps of each sequence so the
/// temporal statistics of a sample are not scrambled (standard for SNN SGL).
class SpikingDropout final : public SpikingLayer {
 public:
  /// Forks an independent RNG stream from `rng` at construction; the layer
  /// owns its stream, so the argument need not outlive the layer.
  SpikingDropout(float drop_prob, Rng& rng);

  void begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                      bool train) override;
  Tensor step_forward(const Tensor& input, std::int64_t t, bool train) override;
  Tensor step_backward(const Tensor& grad_output, std::int64_t t) override;
  Shape output_shape(const Shape& input) const override { return input; }
  std::string name() const override { return "SpikingDropout"; }
  /// Drops the mask. The layer's private RNG stream is NOT rewound: masks
  /// are only drawn in training mode, and rewinding would silently repeat
  /// dropout patterns across epochs.
  void reset_runtime_state() override { mask_.clear(); active_ = false; }

  float drop_prob() const { return drop_prob_; }

 private:
  float drop_prob_;
  Rng rng_;
  std::vector<float> mask_;
  bool active_ = false;
};

class SpikingFlatten final : public SpikingLayer {
 public:
  void begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                      bool train) override;
  Tensor step_forward(const Tensor& input, std::int64_t t, bool train) override;
  Tensor step_backward(const Tensor& grad_output, std::int64_t t) override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "SpikingFlatten"; }

 private:
  Shape input_shape_;
};

/// Spiking residual block mirroring dnn::ResidualBlock: the second conv's
/// current and the skip current sum into the post-join IF neuron's membrane.
class SpikingResidualBlock final : public SpikingLayer {
 public:
  SpikingResidualBlock(Tensor conv1_weight, Conv2dSpec conv1_spec,
                       const IfConfig& neuron1, Tensor conv2_weight,
                       Conv2dSpec conv2_spec, const IfConfig& neuron2,
                       Tensor projection_weight,  // empty => identity skip
                       Conv2dSpec projection_spec);

  void begin_sequence(const Shape& input_shape, std::int64_t time_steps,
                      bool train) override;
  Tensor step_forward(const Tensor& input, std::int64_t t, bool train) override;
  void begin_backward() override;
  Tensor step_backward(const Tensor& grad_output, std::int64_t t) override;
  std::vector<Param*> params() override;
  Shape output_shape(const Shape& input) const override;
  std::string name() const override { return "SpikingResidualBlock"; }
  std::int64_t macs(const Shape& input) const override;
  double acs_estimate(const Shape& input, std::int64_t time_steps) const override;
  std::int64_t spikes_emitted() const override {
    return neuron1_.spikes_emitted() + neuron2_.spikes_emitted();
  }
  std::int64_t neurons() const override { return neuron1_.neurons() + neuron2_.neurons(); }
  std::int64_t input_nonzeros() const override { return conv1_.input_nonzeros(); }
  std::int64_t input_elements() const override { return conv1_.input_elements(); }
  void reset_stats() override;
  void reset_runtime_state() override {
    neuron1_.clear_state();
    neuron2_.clear_state();
    conv1_.clear_runtime_state();
    conv2_.clear_runtime_state();
    if (projection_) projection_->clear_runtime_state();
  }
  IfNeuron* neuron_or_null() override { return &neuron2_; }
  void set_precision(Precision precision) override {
    conv1_.set_precision(precision);
    conv2_.set_precision(precision);
    if (projection_) projection_->set_precision(precision);
  }

  IfNeuron& neuron1() { return neuron1_; }
  IfNeuron& neuron2() { return neuron2_; }
  Synapse& conv1_synapse() { return conv1_; }
  Synapse& conv2_synapse() { return conv2_; }
  Synapse* projection_synapse_or_null() { return projection_.get(); }

 private:
  Synapse conv1_;
  IfNeuron neuron1_;
  Synapse conv2_;
  std::unique_ptr<Synapse> projection_;  // null => identity
  IfNeuron neuron2_;
};

}  // namespace ullsnn::snn
