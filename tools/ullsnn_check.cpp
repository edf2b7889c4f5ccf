// ullsnn_check: command-line front end of the static verifier (src/verify/).
//
// Verifies a model-zoo architecture plus a conversion config without running
// anything: shape inference, conversion preconditions, and (with --tape) the
// autograd-tape invariants. Exit status: 0 = clean, 1 = errors (with
// --strict, warnings too), 2 = usage error.
//
//   ullsnn_check --arch vgg16 --time-steps 2
//   ullsnn_check --arch resnet20 --reset hard --delta-required   # C007 error
//   ullsnn_check --list-rules
//   ullsnn_check --selftest       # seeded-violation matrix (used by CI)
//
// --inject FAULT builds a deliberately broken model instead of the zoo
// architecture, demonstrating each diagnostic on a minimal chain.

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/dnn/activations.h"
#include "src/dnn/batchnorm.h"
#include "src/dnn/conv2d.h"
#include "src/dnn/linear.h"
#include "src/dnn/pooling.h"
#include "src/verify/verify.h"

namespace {

using namespace ullsnn;

struct CliOptions {
  core::Architecture arch = core::Architecture::kVgg11;
  dnn::ModelConfig model;
  core::ConversionConfig conversion;
  bool delta_required = false;
  bool tape = false;
  bool strict = false;
  std::string inject;  // empty => zoo architecture
};

void print_usage() {
  std::printf(
      "usage: ullsnn_check [options]\n"
      "  --arch NAME         vgg11|vgg13|vgg16|resnet20|resnet32 (default vgg11)\n"
      "  --width F           channel width multiplier (default 0.25)\n"
      "  --image-size N      input image extent (default 32)\n"
      "  --classes N         output classes (default 10)\n"
      "  --time-steps N      conversion time steps (default 2)\n"
      "  --reset soft|hard   SNN reset mode (default soft)\n"
      "  --leak F            membrane leak (default 1.0)\n"
      "  --delta-required    treat Delta-identity violations as errors\n"
      "  --tape              also run the autograd-tape invariant checker\n"
      "  --strict            nonzero exit on warnings too\n"
      "  --inject FAULT      verify a deliberately broken model instead:\n"
      "                      unfolded-bn | missing-site | shape-mismatch |\n"
      "                      orphan-act | pool-avg | dead-site | nan-weight |\n"
      "                      hard-reset\n"
      "  --list-rules        print the rule catalog and exit\n"
      "  --selftest          run the seeded-violation matrix and exit\n");
}

void list_rules() {
  std::printf("%-6s %-22s %-8s %s\n", "id", "name", "default", "summary");
  for (const verify::RuleInfo& rule : verify::rule_catalog()) {
    std::printf("%-6s %-22s %-8s %s\n", rule.id, rule.name,
                verify::to_string(rule.default_severity), rule.summary);
  }
}

/// Minimal broken chains, one per seeded fault. Each returns the model and
/// (via `options`) any config tweaks the fault needs.
std::unique_ptr<dnn::Sequential> build_injected(const std::string& fault,
                                                CliOptions& options, Rng& rng) {
  auto model = std::make_unique<dnn::Sequential>();
  const std::int64_t image = options.model.image_size;
  const auto add_head = [&](std::int64_t channels) {
    model->emplace<dnn::Flatten>();
    model->emplace<dnn::Linear>(channels * image * image, options.model.num_classes,
                                /*bias=*/false, rng);
  };
  if (fault == "unfolded-bn") {
    model->emplace<dnn::Conv2d>(3, 8, 3, 1, 1, /*bias=*/false, rng);
    model->emplace<dnn::BatchNorm2d>(8);
    model->emplace<dnn::ThresholdReLU>(4.0F);
    add_head(8);
  } else if (fault == "missing-site") {
    model->emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
    model->emplace<dnn::ReLU>();  // plain ReLU: no (alpha, beta) site
    add_head(8);
  } else if (fault == "shape-mismatch") {
    model->emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
    model->emplace<dnn::ThresholdReLU>(4.0F);
    model->emplace<dnn::Conv2d>(16, 8, 3, 1, 1, false, rng);  // expects 16, gets 8
    model->emplace<dnn::ThresholdReLU>(4.0F);
    add_head(8);
  } else if (fault == "orphan-act") {
    model->emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
    model->emplace<dnn::ThresholdReLU>(4.0F);
    model->emplace<dnn::MaxPool2d>(2, 2);
    model->emplace<dnn::ThresholdReLU>(4.0F);  // no preceding synaptic layer
    model->emplace<dnn::Flatten>();
    model->emplace<dnn::Linear>(8 * (image / 2) * (image / 2),
                                options.model.num_classes, false, rng);
  } else if (fault == "pool-avg") {
    model->emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
    model->emplace<dnn::AvgPool2d>(2, 2);  // clip does not commute with avg pool
    model->emplace<dnn::ThresholdReLU>(4.0F);
    model->emplace<dnn::Flatten>();
    model->emplace<dnn::Linear>(8 * (image / 2) * (image / 2),
                                options.model.num_classes, false, rng);
  } else if (fault == "dead-site") {
    model->emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
    // The constructor rejects mu <= 0; model a site that DIED during
    // training by overwriting the trained value.
    model->emplace<dnn::ThresholdReLU>(4.0F).set_mu(0.0F);
    add_head(8);
  } else if (fault == "nan-weight") {
    auto& conv = model->emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
    conv.weight().value[0] = std::numeric_limits<float>::quiet_NaN();
    model->emplace<dnn::ThresholdReLU>(4.0F);
    add_head(8);
    options.tape = true;
  } else if (fault == "hard-reset") {
    options.conversion.reset = snn::ResetMode::kZero;
    options.delta_required = true;
    return nullptr;  // zoo model; the fault is in the config
  } else {
    throw std::invalid_argument("unknown --inject fault '" + fault + "'");
  }
  return model;
}

verify::VerifyReport run_check(CliOptions options) {
  Rng rng(7);
  std::unique_ptr<dnn::Sequential> model;
  if (!options.inject.empty()) model = build_injected(options.inject, options, rng);
  if (!model) model = core::build_model(options.arch, options.model, rng);

  verify::VerifyOptions verify_options;
  verify_options.input_shape = {2, options.model.in_channels, options.model.image_size,
                                options.model.image_size};
  verify_options.conversion_config = options.conversion;
  verify_options.delta_identity_required = options.delta_required;
  verify_options.tape = options.tape;
  return verify::verify_model(*model, verify_options);
}

int selftest(CliOptions base) {
  struct Case {
    const char* fault;  // "" => clean model
    const char* expected_rule;
  };
  const std::vector<Case> cases = {
      {"", ""},
      {"unfolded-bn", "C001"},
      {"missing-site", "C004"},
      {"shape-mismatch", "G001"},
      {"orphan-act", "C003"},
      {"pool-avg", "C008"},
      {"dead-site", "C009"},
      {"nan-weight", "T003"},
      {"hard-reset", "C007"},
  };
  int failures = 0;
  for (const Case& test : cases) {
    CliOptions options = base;
    options.inject = test.fault;
    options.tape = true;  // the clean model must stay clean under every rule
    const verify::VerifyReport report = run_check(options);
    bool ok = false;
    if (test.expected_rule[0] == '\0') {
      ok = report.empty();
    } else {
      ok = report.has_rule(test.expected_rule);
    }
    std::printf("%-16s expected %-5s -> %lld error(s), %lld warning(s): %s\n",
                test.fault[0] == '\0' ? "(clean)" : test.fault,
                test.expected_rule[0] == '\0' ? "clean" : test.expected_rule,
                static_cast<long long>(report.error_count()),
                static_cast<long long>(report.warning_count()), ok ? "PASS" : "FAIL");
    if (!ok) {
      std::fputs(verify::format_report(report).c_str(), stdout);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

core::Architecture parse_arch(const std::string& name) {
  if (name == "vgg11") return core::Architecture::kVgg11;
  if (name == "vgg13") return core::Architecture::kVgg13;
  if (name == "vgg16") return core::Architecture::kVgg16;
  if (name == "resnet20") return core::Architecture::kResNet20;
  if (name == "resnet32") return core::Architecture::kResNet32;
  throw std::invalid_argument("unknown --arch '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  options.model.width = 0.25F;
  bool run_selftest = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        print_usage();
        return 0;
      } else if (arg == "--list-rules") {
        list_rules();
        return 0;
      } else if (arg == "--selftest") {
        run_selftest = true;
      } else if (arg == "--arch") {
        options.arch = parse_arch(value());
      } else if (arg == "--width") {
        options.model.width = std::stof(value());
      } else if (arg == "--image-size") {
        options.model.image_size = std::stoll(value());
      } else if (arg == "--classes") {
        options.model.num_classes = std::stoll(value());
      } else if (arg == "--time-steps") {
        options.conversion.time_steps = std::stoll(value());
      } else if (arg == "--reset") {
        const std::string mode = value();
        if (mode == "soft") {
          options.conversion.reset = snn::ResetMode::kSubtract;
        } else if (mode == "hard") {
          options.conversion.reset = snn::ResetMode::kZero;
        } else {
          throw std::invalid_argument("--reset must be soft|hard");
        }
      } else if (arg == "--leak") {
        options.conversion.leak = std::stof(value());
      } else if (arg == "--delta-required") {
        options.delta_required = true;
      } else if (arg == "--tape") {
        options.tape = true;
      } else if (arg == "--strict") {
        options.strict = true;
      } else if (arg == "--inject") {
        options.inject = value();
      } else {
        throw std::invalid_argument("unknown option '" + arg + "'");
      }
    }
    if (run_selftest) return selftest(options);
    const verify::VerifyReport report = run_check(options);
    std::fputs(verify::format_report(report).c_str(), stdout);
    if (report.error_count() > 0) return 1;
    if (options.strict && report.warning_count() > 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ullsnn_check: %s\n", e.what());
    print_usage();
    return 2;
  }
}
