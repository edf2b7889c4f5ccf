// SNN runtime probes: per-layer spike rates, membrane-potential statistics,
// threshold-crossing histograms, and a live estimate of the paper's layer
// activation gap Delta_{alpha,beta}, collected during ordinary forward passes
// via snn::StepObserver. This is the one per-layer activity reader: Fig. 4(a)
// spikes per neuron per image come from summaries() and
// mean_spikes_per_neuron().
//
// Spike counts are read from the layers' own activity counters (per-step
// deltas of spikes_emitted()), so probe totals agree with
// SnnNetwork::total_spikes() / count_snn_flops EXACTLY — same counters, no
// second bookkeeping.
//
// The live Delta estimate uses the soft-reset IF identity: over a sequence,
//   sum_t I(t) = U(T) - U(0) + V_th * n_spikes        (leak = 1, Eq. 2-4)
// so the per-neuron average DNN-equivalent input is recoverable from the
// final membrane plus the spike count — no extra forward state. The gap is
//   Delta ~= mean_i [ clip(avg_in_i, 0, mu) - avg_out_i ],
// the empirical form of Eq. 7 evaluated on live traffic. Layers with leak
// != 1 or hard reset do not satisfy the identity and report NaN.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/sink.h"
#include "src/snn/snn_network.h"

namespace ullsnn::obs {

/// Membrane histogram: buckets of U / V_th with these upper edges plus an
/// overflow bucket (> 1 means the neuron crosses threshold again next step).
inline constexpr std::array<double, 8> kMembraneBucketEdges = {
    -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0};
inline constexpr std::size_t kMembraneBuckets = kMembraneBucketEdges.size() + 1;

struct LayerStepStats {
  std::int64_t sequence = 0;  // 0-based forward() count since attach/reset
  std::int64_t layer = 0;     // index into the network
  std::string name;           // e.g. "SpikingConv2d#2"
  std::int64_t step = 0;
  std::int64_t batch = 0;
  std::int64_t neurons = 0;  // per sample
  std::int64_t spikes = 0;   // this step, summed over batch and neurons
  double spike_rate = 0.0;   // spikes / (batch * neurons)
  double membrane_mean = 0.0;
  double membrane_var = 0.0;
  /// Fraction of membranes still >= V_th after the step (guaranteed to fire
  /// again next step regardless of input — the saturation regime).
  double saturation_fraction = 0.0;
  std::array<std::int64_t, kMembraneBuckets> membrane_histogram{};
};

struct LayerSummary {
  std::int64_t layer = 0;
  std::string name;
  std::int64_t neurons = 0;       // per sample
  std::int64_t spikes_total = 0;  // since attach/reset, all steps and samples
  std::int64_t samples = 0;
  double spikes_per_neuron = 0.0;  // per image, summed over T (Fig. 4(a))
  /// Live Delta_{alpha,beta} estimate averaged over all observed samples;
  /// NaN when the identity does not hold (leak != 1, hard reset) or the
  /// layer was never observed.
  double delta_gap = 0.0;
};

class SnnRuntimeProbe final : public snn::StepObserver {
 public:
  /// Summaries (spike totals and the live Delta estimate) are always kept;
  /// each per-step row carries the membrane mean, variance, saturation and
  /// histogram.
  struct Config {
    bool keep_step_stats = true;  // retain per-step rows
  };

  /// Attaches to `net` (replacing any previous observer). Detaches on
  /// destruction.
  explicit SnnRuntimeProbe(snn::SnnNetwork& net);
  SnnRuntimeProbe(snn::SnnNetwork& net, Config config);
  ~SnnRuntimeProbe() override;

  SnnRuntimeProbe(const SnnRuntimeProbe&) = delete;
  SnnRuntimeProbe& operator=(const SnnRuntimeProbe&) = delete;

  void detach();

  /// Per-network-layer clip thresholds mu for the Delta estimate, indexed by
  /// layer position (entries for non-neuron layers are ignored; 0 entries
  /// fall back to the neuron's V_th, i.e. alpha = 1). core::convert() fills
  /// ConversionReport::layer_mu in this form.
  void set_layer_mu(std::vector<float> mu_by_layer);

  // snn::StepObserver
  void on_sequence_begin(snn::SnnNetwork& net, const Shape& input_shape,
                         std::int64_t time_steps, bool train) override;
  void on_layer_step(snn::SnnNetwork& net, std::int64_t layer_index,
                     const Tensor& output, std::int64_t t) override;
  void on_sequence_end(snn::SnnNetwork& net) override;

  const std::vector<LayerStepStats>& step_stats() const { return step_stats_; }
  /// One entry per layer that has IF neurons, in network order.
  std::vector<LayerSummary> summaries() const;
  std::int64_t sequences() const { return sequences_; }
  std::int64_t samples() const { return samples_; }
  /// Total spikes across probed layers (== SnnNetwork::total_spikes() over
  /// the same run).
  std::int64_t total_spikes() const;
  /// Mean over probed layers of spikes per neuron per image (the Fig. 4(a)
  /// rollup); 0 when the network has no IF layer.
  double mean_spikes_per_neuron() const;

  /// Drop all collected data (the attachment and mu table are kept).
  void reset();

  /// Emit one "snn.layer_step" record per collected step row.
  void emit_step_records(TelemetrySink& sink) const;
  /// Emit one "snn.layer_activity" record per probed layer.
  void emit_summary_records(TelemetrySink& sink) const;

 private:
  struct LayerState {
    bool probed = false;  // has IF neurons
    std::string name;
    std::int64_t neurons = 0;
    std::int64_t spikes_total = 0;
    std::int64_t prev_spikes = 0;   // counter baseline for per-step deltas
    std::vector<float> out_sum;     // per neuron-element spike amplitude sum
    double delta_sum = 0.0;         // sum over samples of per-sample mean gap
    std::int64_t delta_samples = 0;
    bool delta_valid = true;
  };

  snn::SnnNetwork* net_;
  Config config_;
  std::vector<LayerState> layers_;
  std::vector<float> mu_by_layer_;
  std::vector<LayerStepStats> step_stats_;
  std::int64_t sequences_ = 0;
  std::int64_t samples_ = 0;
  std::int64_t current_batch_ = 0;
  std::int64_t current_time_steps_ = 0;
};

}  // namespace ullsnn::obs
