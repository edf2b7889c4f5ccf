#include "src/verify/convert_check.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/dnn/activations.h"
#include "src/dnn/batchnorm.h"
#include "src/dnn/conv2d.h"
#include "src/dnn/dropout.h"
#include "src/dnn/linear.h"
#include "src/dnn/pooling.h"
#include "src/dnn/residual.h"

namespace ullsnn::verify {
namespace {

/// A layer type the converter has no spiking mapping for (C002 fixture).
class ExoticLayer final : public dnn::Layer {
 public:
  Tensor forward(const Tensor& input, bool) override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  std::string name() const override { return "ExoticLayer"; }
  Shape output_shape(const Shape& input) const override { return input; }
};

/// conv -> ThresholdReLU -> flatten -> readout: every precondition satisfied.
void build_clean(dnn::Sequential& model, Rng& rng) {
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, /*bias=*/false, rng);
  model.emplace<dnn::ThresholdReLU>(4.0F);
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 32 * 32, 10, false, rng);
}

TEST(ConvertCheckTest, CleanModelHasNoDiagnostics) {
  Rng rng(1);
  dnn::Sequential model;
  build_clean(model, rng);
  EXPECT_TRUE(check_conversion_preconditions(model, {}).empty());
}

TEST(ConvertCheckTest, C001UnfoldedBatchNorm) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  model.emplace<dnn::BatchNorm2d>(8);
  model.emplace<dnn::ThresholdReLU>(4.0F);
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 32 * 32, 10, false, rng);
  const VerifyReport report = check_conversion_preconditions(model, {});
  EXPECT_TRUE(report.has_rule("C001"));
}

TEST(ConvertCheckTest, C002UnmappedLayer) {
  Rng rng(1);
  dnn::Sequential model;
  build_clean(model, rng);
  model.emplace<ExoticLayer>();
  const VerifyReport report = check_conversion_preconditions(model, {});
  EXPECT_TRUE(report.has_rule("C002"));
}

TEST(ConvertCheckTest, C003OrphanActivation) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  model.emplace<dnn::ThresholdReLU>(4.0F);
  model.emplace<dnn::MaxPool2d>(2, 2);
  model.emplace<dnn::ThresholdReLU>(4.0F);  // follows a pool, not a synapse
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 16 * 16, 10, false, rng);
  const VerifyReport report = check_conversion_preconditions(model, {});
  EXPECT_TRUE(report.has_rule("C003"));
}

TEST(ConvertCheckTest, C004PlainReluSite) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  model.emplace<dnn::ReLU>();  // no trainable clip -> no scaling entry
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 32 * 32, 10, false, rng);
  const VerifyReport report = check_conversion_preconditions(model, {});
  EXPECT_TRUE(report.has_rule("C004"));
}

TEST(ConvertCheckTest, C004TrailingConv) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);  // last layer, no site
  const VerifyReport report = check_conversion_preconditions(model, {});
  EXPECT_TRUE(report.has_rule("C004"));
}

TEST(ConvertCheckTest, C005SiteCountMismatch) {
  core::ConversionReport plan;
  plan.sites.resize(3);  // model below exposes 1 site
  const VerifyReport report = check_conversion_report(plan, /*expected_sites=*/1);
  EXPECT_TRUE(report.has_rule("C005"));
  EXPECT_TRUE(check_conversion_report(plan, /*expected_sites=*/3).empty());
  // -1 disables the count rule entirely.
  EXPECT_FALSE(check_conversion_report(plan, -1).has_rule("C005"));
}

TEST(ConvertCheckTest, C006ScalingRanges) {
  core::ConversionReport plan;
  plan.sites.resize(4);
  plan.sites[0].v_threshold = 0.0F;                                 // <= 0
  plan.sites[1].beta = 2.5F;                                        // outside (0, 2]
  plan.sites[2].alpha = std::numeric_limits<float>::quiet_NaN();    // non-finite
  plan.sites[3].initial_membrane_fraction = 1.5F;                   // outside [0, 1]
  const VerifyReport report = check_conversion_report(plan, 4);
  EXPECT_TRUE(report.has_rule("C006"));
  EXPECT_EQ(report.error_count(), 4);
}

TEST(ConvertCheckTest, C006ConfigRules) {
  Rng rng(1);
  dnn::Sequential model;
  build_clean(model, rng);
  core::ConversionConfig config;
  config.time_steps = 0;
  EXPECT_TRUE(check_conversion_preconditions(model, config).has_rule("C006"));
  config.time_steps = 2;
  config.bias_fraction_override = 1.5F;
  EXPECT_TRUE(check_conversion_preconditions(model, config).has_rule("C006"));
}

TEST(ConvertCheckTest, C007DeltaIdentityEscalation) {
  Rng rng(1);
  dnn::Sequential model;
  build_clean(model, rng);
  core::ConversionConfig config;
  config.reset = snn::ResetMode::kZero;  // hard reset breaks the identity
  const VerifyReport warn = check_conversion_preconditions(model, config);
  ASSERT_TRUE(warn.has_rule("C007"));
  EXPECT_EQ(warn.error_count(), 0);
  EXPECT_EQ(warn.warning_count(), 1);
  ConvertCheckOptions options;
  options.delta_identity_required = true;  // a live probe consumes Delta
  const VerifyReport strict = check_conversion_preconditions(model, config, options);
  ASSERT_TRUE(strict.has_rule("C007"));
  EXPECT_EQ(strict.error_count(), 1);
  // Leaky neurons break the identity the same way.
  core::ConversionConfig leaky;
  leaky.leak = 0.9F;
  EXPECT_TRUE(check_conversion_preconditions(model, leaky).has_rule("C007"));
}

TEST(ConvertCheckTest, C008PoolBetweenConvAndActivation) {
  Rng rng(1);
  dnn::Sequential avg;
  avg.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  avg.emplace<dnn::AvgPool2d>(2, 2);
  avg.emplace<dnn::ThresholdReLU>(4.0F);
  avg.emplace<dnn::Flatten>();
  avg.emplace<dnn::Linear>(8 * 16 * 16, 10, false, rng);
  const VerifyReport avg_report = check_conversion_preconditions(avg, {});
  ASSERT_TRUE(avg_report.has_rule("C008"));
  // The misplaced pool also orphans the activation (C003 rides along); the
  // severity distinction lives on the C008 diagnostic itself.
  Severity avg_severity = Severity::kInfo;
  for (const Diagnostic& d : avg_report.diagnostics) {
    if (d.rule_id == "C008") avg_severity = d.severity;
  }
  EXPECT_EQ(avg_severity, Severity::kError);  // clip does not commute with avg

  dnn::Sequential max;
  max.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  max.emplace<dnn::MaxPool2d>(2, 2);
  max.emplace<dnn::ThresholdReLU>(4.0F);
  max.emplace<dnn::Flatten>();
  max.emplace<dnn::Linear>(8 * 16 * 16, 10, false, rng);
  const VerifyReport max_report = check_conversion_preconditions(max, {});
  ASSERT_TRUE(max_report.has_rule("C008"));
  Severity max_severity = Severity::kInfo;
  for (const Diagnostic& d : max_report.diagnostics) {
    if (d.rule_id == "C008") max_severity = d.severity;
  }
  EXPECT_EQ(max_severity, Severity::kWarning);  // max pooling commutes
}

TEST(ConvertCheckTest, C009DeadSite) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  // The constructor rejects mu <= 0; emulate a site that died in training.
  model.emplace<dnn::ThresholdReLU>(4.0F).set_mu(0.0F);
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 32 * 32, 10, false, rng);
  const VerifyReport report = check_conversion_preconditions(model, {});
  ASSERT_TRUE(report.has_rule("C009"));
  EXPECT_EQ(report.error_count(), 0);  // warning severity
}

TEST(ConvertCheckTest, C009DeadResidualSite) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  model.emplace<dnn::ThresholdReLU>(4.0F);
  auto& block = model.emplace<dnn::ResidualBlock>(8, 8, 1, 4.0F, rng);
  block.act2().set_mu(-1.0F);
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 32 * 32, 10, false, rng);
  const VerifyReport report = check_conversion_preconditions(model, {});
  ASSERT_TRUE(report.has_rule("C009"));
  EXPECT_NE(report.diagnostics[0].layer_name.find("act2"), std::string::npos);
}

TEST(ConvertCheckTest, CountActivationSites) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  model.emplace<dnn::ThresholdReLU>(4.0F);
  model.emplace<dnn::ResidualBlock>(8, 8, 1, 4.0F, rng);  // two sites
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 32 * 32, 10, false, rng);
  EXPECT_EQ(count_activation_sites(model), 3);
  dnn::Sequential empty;
  EXPECT_EQ(count_activation_sites(empty), 0);
}

}  // namespace
}  // namespace ullsnn::verify
