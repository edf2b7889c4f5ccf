// DNN -> SNN conversion (Sec. III-B plus the baselines it is compared to).
//
// Every mode copies the DNN weights verbatim into an SnnNetwork with the same
// topology; the modes differ only in how each IF neuron's threshold / spike
// amplitude / initial charge are derived from the layer's pre-activation
// distribution:
//
//   kOursAlphaBeta      V_th = alpha*mu, amplitude beta*V_th, no bias shift.
//                       (alpha, beta) from Algorithm 1 per layer. The
//                       paper's proposed method.
//   kThresholdReLU      V_th = mu (the trained clip threshold), bias shift
//                       delta = V_th/2T. The "our modification" baseline of
//                       Fig. 2.
//   kMaxAct             V_th = d_max (maximum observed pre-activation), bias
//                       shift. Deng et al. [15]-style conversion; d_max is an
//                       outlier of the skewed distribution, which is exactly
//                       why this fails at low T (Sec. III-A).
//   kPercentileHeuristic V_th = percentile(d, q). The threshold down-scaling
//                       heuristics of [16], [24] (ablation: collapses at
//                       T <= 3 even with SGL).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/activation_collector.h"
#include "src/core/scaling_search.h"
#include "src/snn/snn_network.h"

namespace ullsnn::core {

enum class ConversionMode {
  kOursAlphaBeta,
  kThresholdReLU,
  kMaxAct,
  kPercentileHeuristic,
};

const char* to_string(ConversionMode mode);

struct ConversionConfig {
  ConversionMode mode = ConversionMode::kOursAlphaBeta;
  std::int64_t time_steps = 2;
  float beta_step = 0.01F;            // Algorithm 1 beta grid step
  float heuristic_percentile = 99.0F; // kPercentileHeuristic: quantile q
  /// Ablation hook: when >= 0, overrides every site's initial-membrane
  /// fraction (e.g. 0.5 re-adds the bias shift to the (alpha, beta) mode the
  /// paper removed it from; 0 strips it from the baselines).
  float bias_fraction_override = -1.0F;
  float leak = 1.0F;                  // 1.0 => IF (conversion target)
  snn::ResetMode reset = snn::ResetMode::kSubtract;  // soft reset (Eq. 4)
  bool train_threshold = true;        // expose V_th / leak to SGL fine-tuning
  bool train_leak = true;
};

struct SiteScaling {
  float v_threshold = 1.0F;
  float beta = 1.0F;
  float initial_membrane_fraction = 0.0F;
  float alpha = 1.0F;  // recorded for reporting; V_th already includes it
};

struct ConversionReport {
  std::vector<SiteScaling> sites;
  /// Filled by convert(): the clip threshold mu = V_th / alpha of the site
  /// that configures each SNN layer, indexed by layer position. A residual
  /// block reports its second site (the one governing the block's output);
  /// layers without a neuron read 0. Feed it to
  /// obs::SnnRuntimeProbe::set_layer_mu for live Delta tracking.
  std::vector<float> layer_mu;
};

/// Derive per-site thresholds for `mode` from an activation profile.
ConversionReport plan_conversion(const ActivationProfile& profile,
                                 const ConversionConfig& config);

/// Build the spiking twin of `model` with the planned thresholds. The DNN is
/// walked in the same site order as collect_activations. Weights are plain
/// copies (the SNN owns its parameters; SGL fine-tuning does not disturb the
/// DNN).
std::unique_ptr<snn::SnnNetwork> convert(dnn::Sequential& model,
                                         const ActivationProfile& profile,
                                         const ConversionConfig& config,
                                         ConversionReport* report_out = nullptr);

/// Convenience: collect + plan + build in one call.
std::unique_ptr<snn::SnnNetwork> convert(dnn::Sequential& model,
                                         const data::LabeledImages& calibration,
                                         const ConversionConfig& config,
                                         ConversionReport* report_out = nullptr);

}  // namespace ullsnn::core
