// SnnNetwork: temporal orchestration of a spiking layer chain.
//
// Forward (direct input encoding, Sec. I): the analog image is presented to
// the first layer at every step t = 0..T-1. In eval that input repeats, so
// the first layer computes its synaptic current once, at t = 0, and
// integrates the held current at every step (SpikingLayer::hold_input);
// logits are bitwise those of running the synapse every
// step. Training and Poisson encoding run it every step. The final layer is
// a neuron-free linear SynapticLayer whose per-step currents are summed into
// the logits (output accumulation — the standard readout for
// converted/direct-encoded SNNs).
//
// Backward (SGL): logits = sum_t out_t, so each step receives the same
// d(loss)/d(logits); the network sweeps t from T-1 down to 0 calling each
// layer's step_backward in reverse chain order (full BPTT).
//
// State-isolation contract (serving depends on this): every forward() call
// re-initializes all per-sequence runtime state — membranes, BPTT caches,
// the first layer's held input current, pooling argmax, dropout masks — via
// begin_sequence before the first time step, so no membrane charge, held
// current, cached input, or fault-injected corruption from a previous call
// can leak into the next one. The ONLY state that
// persists across calls is (a) trainable parameters, plus the prepared
// kernel operands of borrowed (artifact) weights, which derive from
// immutable memory and so cannot go stale, (b) accumulated activity
// counters (reset_stats), and (c) the encoder and dropout RNG stream
// positions. Direct encoding draws nothing from the encoder stream,
// so for an inference-mode direct-encoded network two identical inputs
// produce bitwise-identical logits regardless of what ran in between
// (regression-tested in snn_network_test.cpp). For Poisson encoding, call
// reset_state() to rewind the encoder stream and restore that guarantee.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/snn/encoding.h"
#include "src/snn/spiking_layers.h"

namespace ullsnn::snn {

class SnnNetwork;

/// Per-layer, per-step observation interface for runtime telemetry
/// (obs::SnnRuntimeProbe). The network invokes the callbacks during
/// forward(); a null observer (the default) costs one pointer check.
class StepObserver {
 public:
  virtual ~StepObserver() = default;
  virtual void on_sequence_begin(SnnNetwork& net, const Shape& input_shape,
                                 std::int64_t time_steps, bool train) = 0;
  /// After layer `layer_index` produced `output` for step `t`.
  virtual void on_layer_step(SnnNetwork& net, std::int64_t layer_index,
                             const Tensor& output, std::int64_t t) = 0;
  virtual void on_sequence_end(SnnNetwork& net) = 0;
};

class SnnNetwork {
 public:
  explicit SnnNetwork(std::int64_t time_steps);

  void append(SpikingLayerPtr layer);

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    append(std::move(layer));
    return ref;
  }

  std::int64_t size() const { return static_cast<std::int64_t>(layers_.size()); }
  bool empty() const { return layers_.empty(); }
  SpikingLayer& layer(std::int64_t i) { return *layers_[static_cast<std::size_t>(i)]; }
  const SpikingLayer& layer(std::int64_t i) const {
    return *layers_[static_cast<std::size_t>(i)];
  }

  std::int64_t time_steps() const { return time_steps_; }
  void set_time_steps(std::int64_t t);

  Encoding encoding() const { return encoding_; }
  void set_encoding(Encoding encoding, std::uint64_t seed = 99);
  std::uint64_t encoder_seed() const { return encoder_seed_; }

  /// Inference precision, propagated to every weighted layer (current and
  /// future appends). int8 affects only the eval-mode dense forward; training
  /// and sparse-dispatched samples stay fp32 (see docs/performance.md).
  Precision precision() const { return precision_; }
  void set_precision(Precision precision);

  /// Shared RNG for SpikingDropout layers built into this network (the
  /// network outlives its layers' Rng* references by construction).
  Rng& dropout_rng() { return dropout_rng_; }
  void seed_dropout(std::uint64_t seed) { dropout_rng_ = Rng(seed); }

  /// Called after every completed time step of forward() with the step index.
  /// Used by robust::FaultInjector to perturb membrane state mid-sequence;
  /// an empty hook (the default) costs nothing.
  using StepHook = std::function<void(SnnNetwork&, std::int64_t)>;
  void set_step_hook(StepHook hook) { step_hook_ = std::move(hook); }
  void clear_step_hook() { step_hook_ = nullptr; }
  /// Current hook (may be null). Lets an instrumenting caller — e.g. the
  /// serving engine's per-step timer — chain an existing hook instead of
  /// clobbering a fault injector installed by a chaos test.
  const StepHook& step_hook() const { return step_hook_; }

  /// Attach a runtime telemetry observer (not owned; must outlive the network
  /// or detach first). Only one observer at a time; null detaches.
  void set_observer(StepObserver* observer) { observer_ = observer; }
  StepObserver* observer() const { return observer_; }

  /// Hard-reset all per-sequence runtime state on every layer (membranes,
  /// BPTT caches, held input current, pooling argmax, dropout masks) and
  /// rewind the encoder RNG to its seed. After this call the next forward()
  /// is a pure function of (parameters, input, T): bitwise-identical inputs
  /// give bitwise-identical logits under ANY encoding, regardless of what ran before. forward()
  /// already re-initializes the per-sequence state by itself (see the
  /// contract above); reset_state() additionally pins the RNG streams and
  /// frees the retained buffers, which is what a serving engine wants
  /// between unrelated requests.
  void reset_state();

  /// Accumulated logits over all T steps for a batch of analog images.
  Tensor forward(const Tensor& images, bool train);

  /// BPTT given d(loss)/d(logits). Requires a preceding forward(train=true).
  void backward(const Tensor& grad_logits);

  std::vector<Param*> params();

  /// Drop activity counters on every layer.
  void reset_stats();

  /// Total spikes emitted across all layers since the last reset_stats().
  std::int64_t total_spikes() const;

 private:
  std::vector<SpikingLayerPtr> layers_;
  std::int64_t time_steps_;
  Precision precision_ = Precision::kFp32;
  Encoding encoding_ = Encoding::kDirect;
  std::uint64_t encoder_seed_ = 99;
  Rng encoder_rng_{99};
  Rng dropout_rng_{123};
  Shape cached_input_shape_;
  StepHook step_hook_;
  StepObserver* observer_ = nullptr;
};

/// Top-1 accuracy of an SNN on a labeled set (inference mode).
double evaluate_snn(SnnNetwork& net, const data::LabeledImages& dataset,
                    std::int64_t batch_size = 64);

}  // namespace ullsnn::snn
