#include "src/core/converter.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "src/dnn/activations.h"
#include "src/dnn/conv2d.h"
#include "src/dnn/dropout.h"
#include "src/dnn/linear.h"
#include "src/dnn/pooling.h"
#include "src/dnn/residual.h"
#include "src/tensor/stats.h"

namespace ullsnn::core {

const char* to_string(ConversionMode mode) {
  switch (mode) {
    case ConversionMode::kOursAlphaBeta: return "ours(alpha,beta)";
    case ConversionMode::kThresholdReLU: return "threshold-relu";
    case ConversionMode::kMaxAct: return "max-act[15]";
    case ConversionMode::kPercentileHeuristic: return "pct-heuristic[16,24]";
  }
  return "unknown";
}

ConversionReport plan_conversion(const ActivationProfile& profile,
                                 const ConversionConfig& config) {
  ConversionReport report;
  report.sites.reserve(profile.sites.size());
  for (const ActivationSite& site : profile.sites) {
    SiteScaling scaling;
    switch (config.mode) {
      case ConversionMode::kOursAlphaBeta: {
        const ScalingResult result = find_scaling_factors(
            site.percentiles, site.mu, config.time_steps, config.beta_step);
        scaling.alpha = result.alpha;
        scaling.v_threshold = result.alpha * site.mu;
        scaling.beta = result.beta;
        scaling.initial_membrane_fraction = 0.0F;  // bias removed (Sec. III-B)
        break;
      }
      case ConversionMode::kThresholdReLU:
        scaling.v_threshold = site.mu;
        scaling.initial_membrane_fraction = 0.5F;  // delta = V_th / 2T
        break;
      case ConversionMode::kMaxAct:
        scaling.v_threshold = site.d_max;
        scaling.initial_membrane_fraction = 0.5F;
        break;
      case ConversionMode::kPercentileHeuristic:
        scaling.v_threshold = percentile(site.samples, config.heuristic_percentile);
        break;
    }
    // A site whose pre-activations never go positive (a dead layer in the
    // source DNN) yields a non-positive threshold; clamp so the converted
    // neuron is simply silent rather than ill-defined.
    scaling.v_threshold = std::max(scaling.v_threshold, 1e-3F);
    if (config.bias_fraction_override >= 0.0F) {
      scaling.initial_membrane_fraction = config.bias_fraction_override;
    }
    report.sites.push_back(scaling);
  }
  return report;
}

namespace {

/// Seed of every converted network's SGL dropout stream.
constexpr std::uint64_t kDropoutSeed = 123;

snn::IfConfig make_if_config(const SiteScaling& scaling, const ConversionConfig& config) {
  snn::IfConfig neuron;
  neuron.v_threshold = scaling.v_threshold;
  neuron.beta = scaling.beta;
  neuron.leak = config.leak;
  neuron.reset = config.reset;
  neuron.initial_membrane_fraction = scaling.initial_membrane_fraction;
  neuron.train_threshold = config.train_threshold;
  neuron.train_leak = config.train_leak;
  return neuron;
}

}  // namespace

std::unique_ptr<snn::SnnNetwork> convert(dnn::Sequential& model,
                                         const ActivationProfile& profile,
                                         const ConversionConfig& config,
                                         ConversionReport* report_out) {
  ConversionReport report = plan_conversion(profile, config);
  auto net = std::make_unique<snn::SnnNetwork>(config.time_steps);
  net->seed_dropout(kDropoutSeed);

  std::size_t site_idx = 0;
  const auto next_site = [&]() -> const SiteScaling& {
    if (site_idx >= report.sites.size()) {
      throw std::logic_error("convert: DNN has more activation sites than profile");
    }
    return report.sites[site_idx++];
  };
  const auto clip_mu = [](const SiteScaling& s) {
    return s.alpha > 0.0F ? s.v_threshold / s.alpha : s.v_threshold;
  };

  for (std::int64_t i = 0; i < model.size(); ++i) {
    dnn::Layer& layer = model.layer(i);
    float mu = 0.0F;  // this layer's layer_mu entry; 0 without a neuron
    if (auto* conv = dynamic_cast<dnn::Conv2d*>(&layer)) {
      // Peek: a Conv2d in our model zoo is always followed by ThresholdReLU.
      const SiteScaling& s = next_site();
      net->emplace<snn::SynapticLayer>(snn::Synapse(conv->weight().value, conv->spec()),
                                       make_if_config(s, config));
      mu = clip_mu(s);
    } else if (auto* linear = dynamic_cast<dnn::Linear*>(&layer)) {
      // The classifier's last Linear has no following ThresholdReLU: it maps
      // to a neuron-free readout whose currents accumulate into logits.
      const bool followed_by_act =
          i + 1 < model.size() &&
          dynamic_cast<dnn::ThresholdReLU*>(&model.layer(i + 1)) != nullptr;
      if (followed_by_act) {
        const SiteScaling& s = next_site();
        net->emplace<snn::SynapticLayer>(snn::Synapse(linear->weight().value),
                                         make_if_config(s, config));
        mu = clip_mu(s);
      } else {
        net->emplace<snn::SynapticLayer>(snn::Synapse(linear->weight().value),
                                         std::nullopt);
      }
    } else if (auto* block = dynamic_cast<dnn::ResidualBlock*>(&layer)) {
      const SiteScaling& s1 = next_site();
      const SiteScaling& s2 = next_site();
      Tensor projection_weight;
      Conv2dSpec projection_spec;
      if (block->has_projection()) {
        projection_weight = block->projection().weight().value;
        projection_spec = block->projection().spec();
      }
      net->emplace<snn::SpikingResidualBlock>(
          block->conv1().weight().value, block->conv1().spec(), make_if_config(s1, config),
          block->conv2().weight().value, block->conv2().spec(), make_if_config(s2, config),
          std::move(projection_weight), projection_spec);
      mu = clip_mu(s2);
    } else if (auto* pool = dynamic_cast<dnn::MaxPool2d*>(&layer)) {
      net->emplace<snn::SpikingMaxPool>(pool->spec());
    } else if (auto* apool = dynamic_cast<dnn::AvgPool2d*>(&layer)) {
      net->emplace<snn::SpikingAvgPool>(apool->spec());
    } else if (auto* dropout = dynamic_cast<dnn::Dropout*>(&layer)) {
      net->emplace<snn::SpikingDropout>(dropout->drop_prob(), net->dropout_rng());
    } else if (dynamic_cast<dnn::Flatten*>(&layer) != nullptr) {
      net->emplace<snn::SpikingFlatten>();
    } else if (dynamic_cast<dnn::ThresholdReLU*>(&layer) != nullptr ||
               dynamic_cast<dnn::ReLU*>(&layer) != nullptr) {
      // Activation dynamics already folded into the preceding layer's neuron.
    } else {
      throw std::invalid_argument("convert: unsupported layer '" + layer.name() + "'");
    }
    // One entry per emplaced layer (an activation emplaces none).
    report.layer_mu.resize(static_cast<std::size_t>(net->size()), mu);
  }
  if (site_idx != report.sites.size()) {
    throw std::logic_error("convert: profile has more activation sites than DNN");
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return net;
}

std::unique_ptr<snn::SnnNetwork> convert(dnn::Sequential& model,
                                         const data::LabeledImages& calibration,
                                         const ConversionConfig& config,
                                         ConversionReport* report_out) {
  const ActivationProfile profile = collect_activations(model, calibration);
  return convert(model, profile, config, report_out);
}

}  // namespace ullsnn::core
