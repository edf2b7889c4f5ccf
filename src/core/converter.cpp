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
    case ConversionMode::kWeightNorm: return "weight-norm[22,23]";
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
        report.search_results.push_back(result);
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
      case ConversionMode::kPercentileHeuristic: {
        const float p = percentile(site.samples, config.heuristic_percentile);
        scaling.v_threshold = std::max(p * config.heuristic_scale, 1e-4F);
        break;
      }
      case ConversionMode::kWeightNorm: {
        scaling.v_threshold = 1.0F;
        scaling.norm_factor = std::max(
            percentile(site.samples, config.heuristic_percentile), 1e-4F);
        scaling.initial_membrane_fraction = 0.5F;
        break;
      }
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

  // kWeightNorm rescales layer l's weights by lambda_{l-1}/lambda_l so all
  // thresholds equal 1; for every other mode norm_factor is 1 and this is
  // the identity.
  float prev_norm = 1.0F;
  const auto scaled = [](const Tensor& w, float factor) {
    Tensor out = w;
    if (factor != 1.0F) out *= factor;
    return out;
  };

  for (std::int64_t i = 0; i < model.size(); ++i) {
    dnn::Layer& layer = model.layer(i);
    if (auto* conv = dynamic_cast<dnn::Conv2d*>(&layer)) {
      // Peek: a Conv2d in our model zoo is always followed by ThresholdReLU.
      const SiteScaling& s = next_site();
      net->emplace<snn::SynapticLayer>(
          snn::Synapse(scaled(conv->weight().value, prev_norm / s.norm_factor),
                       conv->spec()),
          make_if_config(s, config));
      prev_norm = s.norm_factor;
    } else if (auto* linear = dynamic_cast<dnn::Linear*>(&layer)) {
      // The classifier's last Linear has no following ThresholdReLU: it maps
      // to a neuron-free readout whose currents accumulate into logits.
      const bool followed_by_act =
          i + 1 < model.size() &&
          dynamic_cast<dnn::ThresholdReLU*>(&model.layer(i + 1)) != nullptr;
      if (followed_by_act) {
        const SiteScaling& s = next_site();
        net->emplace<snn::SynapticLayer>(
            snn::Synapse(scaled(linear->weight().value, prev_norm / s.norm_factor)),
            make_if_config(s, config));
        prev_norm = s.norm_factor;
      } else {
        // Readout: undo the running normalization so logits keep their scale.
        net->emplace<snn::SynapticLayer>(
            snn::Synapse(scaled(linear->weight().value, prev_norm)), std::nullopt);
        prev_norm = 1.0F;
      }
    } else if (auto* block = dynamic_cast<dnn::ResidualBlock*>(&layer)) {
      const SiteScaling s1 = next_site();
      const SiteScaling s2 = next_site();
      Tensor projection_weight;
      Conv2dSpec projection_spec;
      if (block->has_projection()) {
        projection_weight =
            scaled(block->projection().weight().value, prev_norm / s2.norm_factor);
        projection_spec = block->projection().spec();
      }
      net->emplace<snn::SpikingResidualBlock>(
          scaled(block->conv1().weight().value, prev_norm / s1.norm_factor),
          block->conv1().spec(), make_if_config(s1, config),
          scaled(block->conv2().weight().value, s1.norm_factor / s2.norm_factor),
          block->conv2().spec(), make_if_config(s2, config),
          std::move(projection_weight), projection_spec);
      prev_norm = s2.norm_factor;
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
  }
  if (site_idx != report.sites.size()) {
    throw std::logic_error("convert: profile has more activation sites than DNN");
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return net;
}

std::vector<float> per_layer_mu(snn::SnnNetwork& net, const ConversionReport& report) {
  std::vector<float> mu(static_cast<std::size_t>(net.size()), 0.0F);
  std::size_t site_idx = 0;
  const auto next_mu = [&]() -> float {
    if (site_idx >= report.sites.size()) {
      throw std::logic_error("per_layer_mu: network has more neuron sites than report");
    }
    const SiteScaling& s = report.sites[site_idx++];
    return s.alpha > 0.0F ? s.v_threshold / s.alpha : s.v_threshold;
  };
  for (std::int64_t i = 0; i < net.size(); ++i) {
    snn::SpikingLayer& layer = net.layer(i);
    if (dynamic_cast<snn::SpikingResidualBlock*>(&layer) != nullptr) {
      next_mu();  // neuron1 (internal)
      mu[static_cast<std::size_t>(i)] = next_mu();
    } else if (layer.neuron_or_null() != nullptr) {
      mu[static_cast<std::size_t>(i)] = next_mu();
    }
  }
  if (site_idx != report.sites.size()) {
    throw std::logic_error("per_layer_mu: report has more sites than the network");
  }
  return mu;
}

std::unique_ptr<snn::SnnNetwork> convert(dnn::Sequential& model,
                                         const data::LabeledImages& calibration,
                                         const ConversionConfig& config,
                                         ConversionReport* report_out) {
  const ActivationProfile profile = collect_activations(model, calibration);
  return convert(model, profile, config, report_out);
}

}  // namespace ullsnn::core
