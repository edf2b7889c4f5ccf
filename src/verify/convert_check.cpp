#include "src/verify/convert_check.h"

#include <cmath>
#include <sstream>

#include "src/dnn/activations.h"
#include "src/dnn/batchnorm.h"
#include "src/dnn/conv2d.h"
#include "src/dnn/dropout.h"
#include "src/dnn/linear.h"
#include "src/dnn/pooling.h"
#include "src/dnn/residual.h"
#include "src/snn/neuron.h"

namespace ullsnn::verify {

namespace {

bool is_activation(dnn::Layer& layer) {
  return dynamic_cast<dnn::ThresholdReLU*>(&layer) != nullptr ||
         dynamic_cast<dnn::ReLU*>(&layer) != nullptr;
}

bool is_pool(dnn::Layer& layer, bool* is_avg) {
  if (dynamic_cast<dnn::MaxPool2d*>(&layer) != nullptr) {
    *is_avg = false;
    return true;
  }
  if (dynamic_cast<dnn::AvgPool2d*>(&layer) != nullptr) {
    *is_avg = true;
    return true;
  }
  return false;
}

bool is_synaptic(dnn::Layer& layer) {
  return dynamic_cast<dnn::Conv2d*>(&layer) != nullptr ||
         dynamic_cast<dnn::Linear*>(&layer) != nullptr;
}

/// The activation site contract of one synaptic layer at chain index `i`:
/// the next layer must be a ThresholdReLU (the only site the collector
/// records and Algorithm 1 scales), except for the final readout Linear.
void check_site_pairing(dnn::Sequential& model, std::int64_t i, bool is_readout_candidate,
                        VerifyReport& report) {
  dnn::Layer& layer = model.layer(i);
  const bool is_last = i + 1 >= model.size();
  if (is_last) {
    if (!is_readout_candidate) {
      report.diagnostics.push_back(make_diagnostic(
          "C004", i, layer.name(),
          "trailing Conv2d has no activation site and cannot serve as the readout "
          "(only a final Linear maps to the neuron-free logit accumulator)",
          "finish the network with ThresholdReLU + Flatten + Linear"));
    }
    return;  // final Linear = readout, by design neuron-free
  }
  dnn::Layer& next = model.layer(i + 1);
  if (dynamic_cast<dnn::ThresholdReLU*>(&next) != nullptr) return;
  if (dynamic_cast<dnn::ReLU*>(&next) != nullptr) {
    report.diagnostics.push_back(make_diagnostic(
        "C004", i, layer.name(),
        "followed by a plain ReLU: no trainable clip threshold, so the "
        "activation collector records no site and Algorithm 1 has no "
        "(alpha, beta) entry for this layer's neuron",
        "replace the ReLU with ThresholdReLU"));
    return;
  }
  bool avg = false;
  if (is_pool(next, &avg) && i + 2 < model.size() && is_activation(model.layer(i + 2))) {
    std::ostringstream msg;
    msg << "pooling between " << layer.name() << " and its activation: the converter "
        << "pairs the activation site with this layer's neuron, but clipping "
        << (avg ? "does not commute with average pooling"
                : "is calibrated on the post-pool distribution (max pooling commutes, "
                  "but thresholds shift)");
    report.diagnostics.push_back(make_diagnostic(
        "C008", avg ? Severity::kError : Severity::kWarning, i + 1,
        model.layer(i + 1).name(), msg.str(),
        "move the pooling after the activation (conv -> act -> pool)"));
    return;
  }
  report.diagnostics.push_back(make_diagnostic(
      "C004", i, layer.name(),
      "not followed by a ThresholdReLU activation site; core::convert() would "
      "mis-align the remaining sites or treat this layer as a mid-network readout",
      "insert a ThresholdReLU directly after this layer"));
}

void check_dead_site(dnn::ThresholdReLU& act, std::int64_t i, const std::string& name,
                     VerifyReport& report) {
  if (act.mu() <= 0.0F) {
    std::ostringstream msg;
    msg << "trained clip threshold mu = " << act.mu()
        << " <= 0: the site never passes a positive activation and its converted "
           "neuron is clamped to the silent 1e-3 floor";
    report.diagnostics.push_back(make_diagnostic(
        "C009", i, name, msg.str(),
        "re-train, or re-initialize mu to a positive value"));
  }
}

}  // namespace

std::int64_t count_activation_sites(dnn::Sequential& model) {
  std::int64_t sites = 0;
  for (std::int64_t i = 0; i < model.size(); ++i) {
    dnn::Layer& layer = model.layer(i);
    if (dynamic_cast<dnn::ThresholdReLU*>(&layer) != nullptr) {
      ++sites;
    } else if (dynamic_cast<dnn::ResidualBlock*>(&layer) != nullptr) {
      sites += 2;
    }
  }
  return sites;
}

VerifyReport check_conversion_preconditions(dnn::Sequential& model,
                                            const core::ConversionConfig& config,
                                            const ConvertCheckOptions& options) {
  VerifyReport report;

  for (std::int64_t i = 0; i < model.size(); ++i) {
    dnn::Layer& layer = model.layer(i);
    if (dynamic_cast<dnn::BatchNorm2d*>(&layer) != nullptr) {
      report.diagnostics.push_back(make_diagnostic(
          "C001", i, layer.name(),
          "BatchNorm2d present at conversion time; core::convert() has no "
          "spiking equivalent for it",
          "run core::fold_batchnorm(model) before converting"));
      continue;
    }
    if (auto* conv = dynamic_cast<dnn::Conv2d*>(&layer)) {
      (void)conv;
      check_site_pairing(model, i, /*is_readout_candidate=*/false, report);
      continue;
    }
    if (dynamic_cast<dnn::Linear*>(&layer) != nullptr) {
      check_site_pairing(model, i, /*is_readout_candidate=*/true, report);
      continue;
    }
    if (auto* block = dynamic_cast<dnn::ResidualBlock*>(&layer)) {
      check_dead_site(block->act1(), i, layer.name() + "/act1", report);
      check_dead_site(block->act2(), i, layer.name() + "/act2", report);
      continue;
    }
    if (auto* act = dynamic_cast<dnn::ThresholdReLU*>(&layer)) {
      const bool paired = i > 0 && is_synaptic(model.layer(i - 1));
      if (!paired) {
        report.diagnostics.push_back(make_diagnostic(
            "C003", i, layer.name(),
            "activation with no immediately preceding Conv2d/Linear; the "
            "converter folds each activation into the preceding synaptic "
            "layer's IF neuron",
            "place the activation directly after its convolution/linear layer"));
      }
      check_dead_site(*act, i, layer.name(), report);
      continue;
    }
    if (dynamic_cast<dnn::ReLU*>(&layer) != nullptr) {
      const bool paired = i > 0 && is_synaptic(model.layer(i - 1));
      if (!paired) {
        report.diagnostics.push_back(make_diagnostic(
            "C003", i, layer.name(),
            "plain ReLU with no immediately preceding Conv2d/Linear",
            "place the activation directly after its synaptic layer"));
      }
      continue;  // paired plain ReLU is reported at the synaptic layer (C004)
    }
    if (dynamic_cast<dnn::MaxPool2d*>(&layer) != nullptr ||
        dynamic_cast<dnn::AvgPool2d*>(&layer) != nullptr ||
        dynamic_cast<dnn::Dropout*>(&layer) != nullptr ||
        dynamic_cast<dnn::Flatten*>(&layer) != nullptr) {
      continue;  // direct spiking twins exist
    }
    report.diagnostics.push_back(make_diagnostic(
        "C002", i, layer.name(),
        "layer type '" + layer.name() + "' has no spiking mapping in core::convert()",
        "restrict the model to conv/linear/residual/pool/dropout/flatten/"
        "ThresholdReLU layers, or extend the converter"));
  }

  // Config-level rules.
  if (config.time_steps < 1) {
    std::ostringstream msg;
    msg << "conversion at time_steps = " << config.time_steps
        << "; at least one step is required for any spike to be emitted";
    report.diagnostics.push_back(
        make_diagnostic("C006", -1, "", msg.str(), "set conversion.time_steps >= 1"));
  }
  if (config.bias_fraction_override > 1.0F) {
    std::ostringstream msg;
    msg << "bias_fraction_override = " << config.bias_fraction_override
        << " starts every membrane above threshold (spurious step-0 spikes)";
    report.diagnostics.push_back(make_diagnostic(
        "C006", -1, "", msg.str(), "use a fraction in [0, 1], or < 0 to disable"));
  }
  if (!snn::delta_identity_valid(config.leak, config.reset)) {
    std::ostringstream msg;
    msg << "reset mode "
        << (config.reset == snn::ResetMode::kSubtract ? "subtract" : "zero")
        << " with leak = " << config.leak
        << " invalidates the soft-reset identity sum_t I(t) = U(T) - U(0) + "
           "V_th * n_spikes; live Delta_{alpha,beta} estimates would be NaN";
    report.diagnostics.push_back(make_diagnostic(
        "C007",
        options.delta_identity_required ? Severity::kError : Severity::kWarning, -1, "",
        msg.str(), "use ResetMode::kSubtract with leak = 1, or disable the Delta probe"));
  }
  return report;
}

VerifyReport check_conversion_report(const core::ConversionReport& report_in,
                                     std::int64_t expected_sites) {
  VerifyReport report;
  if (expected_sites >= 0 &&
      static_cast<std::int64_t>(report_in.sites.size()) != expected_sites) {
    std::ostringstream msg;
    msg << "ConversionReport carries " << report_in.sites.size()
        << " scaling sites but the model exposes " << expected_sites
        << " activation sites; thresholds would configure the wrong neurons";
    report.diagnostics.push_back(make_diagnostic(
        "C005", -1, "", msg.str(),
        "re-plan the conversion against the exact model being converted"));
  }
  for (std::size_t k = 0; k < report_in.sites.size(); ++k) {
    const core::SiteScaling& s = report_in.sites[k];
    const std::int64_t site = static_cast<std::int64_t>(k);
    const std::string name = "site " + std::to_string(k);
    const auto bad = [&](const std::string& what, const std::string& hint) {
      report.diagnostics.push_back(make_diagnostic("C006", site, name, what, hint));
    };
    if (!std::isfinite(s.v_threshold) || !std::isfinite(s.alpha) ||
        !std::isfinite(s.beta) || !std::isfinite(s.initial_membrane_fraction)) {
      bad("non-finite scaling entry (alpha/beta/V_th/fraction)",
          "re-run Algorithm 1 on a finite activation profile");
      continue;
    }
    if (s.v_threshold <= 0.0F) {
      bad("V_th = " + std::to_string(s.v_threshold) +
              " <= 0: the neuron fires unconditionally every step",
          "thresholds must be positive (plan_conversion clamps to 1e-3)");
    }
    if (s.alpha <= 0.0F) {
      bad("alpha = " + std::to_string(s.alpha) + " <= 0 (V_th = alpha * mu must be positive)",
          "Algorithm 1 selects alpha from the positive percentile grid");
    }
    if (s.beta <= 0.0F || s.beta > 2.0F) {
      bad("beta = " + std::to_string(s.beta) +
              " outside (0, 2], Algorithm 1's spike-amplitude sweep range",
          "re-run the (alpha, beta) search");
    }
    if (s.initial_membrane_fraction < 0.0F || s.initial_membrane_fraction > 1.0F) {
      bad("initial membrane fraction " + std::to_string(s.initial_membrane_fraction) +
              " outside [0, 1]",
          "the Deng-style bias shift corresponds to fraction 0.5; ours uses 0");
    }
  }
  return report;
}

}  // namespace ullsnn::verify
