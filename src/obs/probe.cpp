#include "src/obs/probe.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/snn/neuron.h"

namespace ullsnn::obs {

SnnRuntimeProbe::SnnRuntimeProbe(snn::SnnNetwork& net)
    : SnnRuntimeProbe(net, Config{}) {}

SnnRuntimeProbe::SnnRuntimeProbe(snn::SnnNetwork& net, Config config)
    : net_(&net), config_(config) {
  layers_.resize(static_cast<std::size_t>(net.size()));
  for (std::int64_t i = 0; i < net.size(); ++i) {
    LayerState& state = layers_[static_cast<std::size_t>(i)];
    state.probed = net.layer(i).neuron_or_null() != nullptr;
    state.name = net.layer(i).name() + "#" + std::to_string(i);
  }
  net.set_observer(this);
}

SnnRuntimeProbe::~SnnRuntimeProbe() { detach(); }

void SnnRuntimeProbe::detach() {
  if (net_ != nullptr && net_->observer() == this) net_->set_observer(nullptr);
  net_ = nullptr;
}

void SnnRuntimeProbe::set_layer_mu(std::vector<float> mu_by_layer) {
  mu_by_layer_ = std::move(mu_by_layer);
}

void SnnRuntimeProbe::on_sequence_begin(snn::SnnNetwork& net, const Shape& input_shape,
                                        std::int64_t time_steps, bool train) {
  (void)train;
  current_batch_ = input_shape.empty() ? 0 : input_shape[0];
  current_time_steps_ = time_steps;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    LayerState& state = layers_[i];
    if (!state.probed) continue;
    // Re-baseline against the cumulative counter so an external reset_stats()
    // between sequences cannot skew deltas.
    state.prev_spikes = net.layer(static_cast<std::int64_t>(i)).spikes_emitted();
    state.out_sum.clear();
  }
}

void SnnRuntimeProbe::on_layer_step(snn::SnnNetwork& net, std::int64_t layer_index,
                                    const Tensor& output, std::int64_t t) {
  LayerState& state = layers_[static_cast<std::size_t>(layer_index)];
  if (!state.probed) return;
  const snn::SpikingLayer& layer = net.layer(layer_index);
  const std::int64_t cumulative = layer.spikes_emitted();
  const std::int64_t step_spikes = cumulative - state.prev_spikes;
  state.prev_spikes = cumulative;
  state.spikes_total += step_spikes;
  state.neurons = layer.neurons();

  if (state.out_sum.empty()) {
    state.out_sum.assign(static_cast<std::size_t>(output.numel()), 0.0F);
  }
  for (std::int64_t i = 0; i < output.numel(); ++i) {
    state.out_sum[static_cast<std::size_t>(i)] += output[i];
  }

  if (!config_.keep_step_stats) return;
  LayerStepStats stats;
  stats.sequence = sequences_;
  stats.layer = layer_index;
  stats.name = state.name;
  stats.step = t;
  stats.batch = current_batch_;
  stats.neurons = state.neurons;
  stats.spikes = step_spikes;
  const double population =
      static_cast<double>(current_batch_) * static_cast<double>(state.neurons);
  stats.spike_rate = population > 0.0 ? static_cast<double>(step_spikes) / population : 0.0;

  // neuron_or_null() is non-const only because fault injection mutates
  // membranes through it; the probe reads only.
  snn::IfNeuron* neuron = const_cast<snn::SpikingLayer&>(layer).neuron_or_null();
  const Tensor& u = neuron->membrane();
  const float v_th = neuron->threshold();
  const std::int64_t n = u.numel();
  if (n > 0 && v_th > 0.0F) {
    double sum = 0.0;
    double sq_sum = 0.0;
    std::int64_t saturated = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double v = u[i];
      sum += v;
      sq_sum += v * v;
      if (v >= v_th) ++saturated;
      const double ratio = v / v_th;
      std::size_t bucket = kMembraneBucketEdges.size();
      for (std::size_t b = 0; b < kMembraneBucketEdges.size(); ++b) {
        if (ratio <= kMembraneBucketEdges[b]) {
          bucket = b;
          break;
        }
      }
      ++stats.membrane_histogram[bucket];
    }
    const double mean = sum / static_cast<double>(n);
    stats.membrane_mean = mean;
    stats.membrane_var = std::max(sq_sum / static_cast<double>(n) - mean * mean, 0.0);
    stats.saturation_fraction = static_cast<double>(saturated) / static_cast<double>(n);
  }
  step_stats_.push_back(std::move(stats));
}

void SnnRuntimeProbe::on_sequence_end(snn::SnnNetwork& net) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    LayerState& state = layers_[i];
    if (!state.probed || state.out_sum.empty()) continue;
    snn::IfNeuron* neuron = net.layer(static_cast<std::int64_t>(i)).neuron_or_null();
    if (neuron == nullptr) continue;
    // The input-reconstruction identity needs pure IF dynamics.
    if (!snn::delta_identity_valid(neuron->leak(), neuron->reset_mode())) {
      state.delta_valid = false;
      continue;
    }
    const double v_th = neuron->threshold();
    const double amplitude = static_cast<double>(neuron->beta()) * v_th;
    if (v_th <= 0.0 || amplitude <= 0.0) continue;
    const double init_charge =
        static_cast<double>(neuron->initial_membrane_fraction()) * v_th;
    const double t_steps = static_cast<double>(current_time_steps_);
    double mu = v_th;
    if (i < mu_by_layer_.size() && mu_by_layer_[i] > 0.0F) mu = mu_by_layer_[i];
    const Tensor& u = neuron->membrane();
    if (u.numel() != static_cast<std::int64_t>(state.out_sum.size())) continue;
    double gap_sum = 0.0;
    for (std::int64_t j = 0; j < u.numel(); ++j) {
      const double out_sum = state.out_sum[static_cast<std::size_t>(j)];
      const double spike_count = out_sum / amplitude;
      const double in_sum = u[j] + v_th * spike_count - init_charge;
      const double avg_in = in_sum / t_steps;
      const double avg_out = out_sum / t_steps;
      gap_sum += std::clamp(avg_in, 0.0, mu) - avg_out;
    }
    state.delta_sum += gap_sum;
    state.delta_samples += u.numel();
  }
  ++sequences_;
  samples_ += current_batch_;
}

std::vector<LayerSummary> SnnRuntimeProbe::summaries() const {
  std::vector<LayerSummary> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const LayerState& state = layers_[i];
    if (!state.probed) continue;
    LayerSummary s;
    s.layer = static_cast<std::int64_t>(i);
    s.name = state.name;
    s.neurons = state.neurons;
    s.spikes_total = state.spikes_total;
    s.samples = samples_;
    const double population = static_cast<double>(samples_) * static_cast<double>(state.neurons);
    s.spikes_per_neuron =
        population > 0.0 ? static_cast<double>(state.spikes_total) / population : 0.0;
    s.delta_gap = (state.delta_valid && state.delta_samples > 0)
                      ? state.delta_sum / static_cast<double>(state.delta_samples)
                      : std::numeric_limits<double>::quiet_NaN();
    out.push_back(std::move(s));
  }
  return out;
}

std::int64_t SnnRuntimeProbe::total_spikes() const {
  std::int64_t total = 0;
  for (const LayerState& state : layers_) total += state.spikes_total;
  return total;
}

double SnnRuntimeProbe::mean_spikes_per_neuron() const {
  const std::vector<LayerSummary> layers = summaries();
  if (layers.empty()) return 0.0;
  double acc = 0.0;
  for (const LayerSummary& layer : layers) acc += layer.spikes_per_neuron;
  return acc / static_cast<double>(layers.size());
}

void SnnRuntimeProbe::reset() {
  for (LayerState& state : layers_) {
    state.spikes_total = 0;
    state.prev_spikes = 0;
    state.out_sum.clear();
    state.delta_sum = 0.0;
    state.delta_samples = 0;
    state.delta_valid = true;
  }
  step_stats_.clear();
  sequences_ = 0;
  samples_ = 0;
}

void SnnRuntimeProbe::emit_step_records(TelemetrySink& sink) const {
  for (const LayerStepStats& s : step_stats_) {
    TelemetryRecord r;
    r.kind = "snn.layer_step";
    r.add("sequence", s.sequence)
        .add("layer", s.layer)
        .add("name", s.name)
        .add("step", s.step)
        .add("batch", s.batch)
        .add("neurons", s.neurons)
        .add("spikes", s.spikes)
        .add("spike_rate", s.spike_rate)
        .add("membrane_mean", s.membrane_mean)
        .add("membrane_var", s.membrane_var)
        .add("saturation_fraction", s.saturation_fraction);
    for (std::size_t b = 0; b < s.membrane_histogram.size(); ++b) {
      r.add("mem_bucket" + std::to_string(b), s.membrane_histogram[b]);
    }
    sink.emit(r);
  }
}

void SnnRuntimeProbe::emit_summary_records(TelemetrySink& sink) const {
  for (const LayerSummary& s : summaries()) {
    TelemetryRecord r;
    r.kind = "snn.layer_activity";
    r.add("layer", s.layer)
        .add("name", s.name)
        .add("neurons", s.neurons)
        .add("samples", s.samples)
        .add("spikes_total", s.spikes_total)
        .add("spikes_per_neuron", s.spikes_per_neuron)
        .add("delta_gap", s.delta_gap);
    sink.emit(r);
  }
}

}  // namespace ullsnn::obs
