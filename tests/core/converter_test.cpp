#include "src/core/converter.h"

#include <gtest/gtest.h>

#include "src/dnn/activations.h"
#include "src/dnn/conv2d.h"
#include "src/dnn/dropout.h"
#include "src/dnn/linear.h"
#include "src/dnn/models.h"
#include "src/dnn/pooling.h"
#include "src/dnn/trainer.h"

namespace ullsnn::core {
namespace {

// Small DNN: conv+act+pool+flatten+fc+act+fc, enough to cover every
// conversion path except residual blocks.
std::unique_ptr<dnn::Sequential> small_dnn(Rng& rng, float mu = 2.0F) {
  auto model = std::make_unique<dnn::Sequential>();
  model->emplace<dnn::Conv2d>(3, 4, 3, 1, 1, false, rng);
  model->emplace<dnn::ThresholdReLU>(mu);
  model->emplace<dnn::MaxPool2d>();
  model->emplace<dnn::Flatten>();
  model->emplace<dnn::Dropout>(0.1F, rng);
  model->emplace<dnn::Linear>(4 * 4 * 4, 8, false, rng);
  model->emplace<dnn::ThresholdReLU>(mu);
  model->emplace<dnn::Linear>(8, 3, false, rng);
  return model;
}

// `easy` disables the sign-flip hardening: conversion-fidelity tests need a
// task the tiny DNN can actually master, not a hard benchmark.
data::LabeledImages small_data(std::int64_t n = 64, bool easy = false) {
  data::SyntheticCifarSpec spec;
  spec.image_size = 8;
  spec.num_classes = 3;
  if (easy) {
    spec.sign_flip_prob = 0.0F;
    spec.occluder_prob = 0.0F;
    spec.noise_stddev = 0.1F;
  }
  data::SyntheticCifar gen(spec);
  data::LabeledImages d = gen.generate(n, 1);
  data::standardize(d);
  return d;
}

TEST(CollectorTest, FindsAllSites) {
  Rng rng(1);
  auto model = small_dnn(rng);
  const auto data = small_data();
  const ActivationProfile profile = collect_activations(*model, data);
  ASSERT_EQ(profile.sites.size(), 2U);
  for (const auto& site : profile.sites) {
    EXPECT_FLOAT_EQ(site.mu, 2.0F);
    EXPECT_FALSE(site.samples.empty());
    EXPECT_EQ(site.percentiles.size(), 101U);
    EXPECT_GE(site.d_max, site.percentiles[100]);
  }
}

TEST(CollectorTest, EmptyCalibrationThrows) {
  Rng rng(1);
  auto model = small_dnn(rng);
  data::LabeledImages empty;
  empty.images = Tensor({0, 3, 8, 8});
  EXPECT_THROW(collect_activations(*model, empty), std::invalid_argument);
}

TEST(PlanConversionTest, ModesDeriveExpectedThresholds) {
  ActivationProfile profile;
  ActivationSite site;
  site.label = "s";
  site.mu = 1.0F;
  site.d_max = 5.0F;
  for (int i = 0; i <= 100; ++i) {
    site.samples.push_back(0.02F * static_cast<float>(i));
  }
  site.percentiles = site.samples;
  profile.sites.push_back(site);

  ConversionConfig config;
  config.time_steps = 2;

  config.mode = ConversionMode::kThresholdReLU;
  ConversionReport r = plan_conversion(profile, config);
  EXPECT_FLOAT_EQ(r.sites[0].v_threshold, 1.0F);
  EXPECT_FLOAT_EQ(r.sites[0].initial_membrane_fraction, 0.5F);

  config.mode = ConversionMode::kMaxAct;
  r = plan_conversion(profile, config);
  EXPECT_FLOAT_EQ(r.sites[0].v_threshold, 5.0F);

  config.mode = ConversionMode::kPercentileHeuristic;
  config.heuristic_percentile = 50.0F;
  config.heuristic_scale = 0.8F;
  r = plan_conversion(profile, config);
  EXPECT_NEAR(r.sites[0].v_threshold, 0.8F * 1.0F, 1e-4F);
  EXPECT_FLOAT_EQ(r.sites[0].initial_membrane_fraction, 0.0F);

  config.mode = ConversionMode::kOursAlphaBeta;
  r = plan_conversion(profile, config);
  ASSERT_EQ(r.search_results.size(), 1U);
  EXPECT_FLOAT_EQ(r.sites[0].v_threshold, r.sites[0].alpha * site.mu);
  EXPECT_FLOAT_EQ(r.sites[0].initial_membrane_fraction, 0.0F);
}

TEST(ConvertTest, TopologyMirrorsDnn) {
  Rng rng(2);
  auto model = small_dnn(rng);
  const auto data = small_data();
  ConversionConfig config;
  config.time_steps = 2;
  auto net = convert(*model, data, config, nullptr);
  // conv, pool, flatten, dropout, fc(+neuron), fc(readout) => 6 layers.
  EXPECT_EQ(net->size(), 6);
  EXPECT_EQ(net->layer(0).name(), "SpikingConv2d");
  EXPECT_EQ(net->layer(1).name(), "SpikingMaxPool");
  EXPECT_EQ(net->layer(2).name(), "SpikingFlatten");
  EXPECT_EQ(net->layer(3).name(), "SpikingDropout");
  EXPECT_EQ(net->layer(4).name(), "SpikingLinear");
  EXPECT_EQ(net->layer(5).name(), "SpikingLinear");
}

TEST(ConvertTest, WeightsAreCopies) {
  Rng rng(3);
  auto model = small_dnn(rng);
  const auto data = small_data();
  ConversionConfig config;
  auto net = convert(*model, data, config, nullptr);
  auto* sconv = dynamic_cast<snn::SynapticLayer*>(&net->layer(0));
  ASSERT_NE(sconv, nullptr);
  ASSERT_EQ(sconv->synapse().kind(), snn::Synapse::Kind::kConv);
  auto* dconv = dynamic_cast<dnn::Conv2d*>(&model->layer(0));
  ASSERT_NE(dconv, nullptr);
  EXPECT_TRUE(sconv->synapse().weight().value.allclose(dconv->weight().value));
  // Mutating the SNN copy must not touch the DNN.
  sconv->synapse().weight().value[0] += 1.0F;
  EXPECT_FALSE(sconv->synapse().weight().value.allclose(dconv->weight().value));
}

TEST(ConvertTest, HighTApproachesDnnAccuracy) {
  // Train the small DNN briefly, then check the converted SNN at T=64
  // reaches an accuracy close to the DNN's (threshold-ReLU conversion with
  // bias shift is the textbook-correct mode for high T).
  Rng rng(4);
  auto model = small_dnn(rng, 1.0F);
  auto train = small_data(256, /*easy=*/true);
  dnn::TrainConfig tc;
  tc.epochs = 30;
  tc.batch_size = 32;
  tc.augment = false;
  dnn::DnnTrainer trainer(*model, tc);
  trainer.fit(train);
  const double dnn_acc = trainer.evaluate(train);
  ASSERT_GT(dnn_acc, 0.75);

  ConversionConfig config;
  config.mode = ConversionMode::kThresholdReLU;
  config.time_steps = 64;
  auto net = convert(*model, train, config, nullptr);
  const double snn_acc = snn::evaluate_snn(*net, train);
  EXPECT_GT(snn_acc, dnn_acc - 0.1);
}

TEST(ConvertTest, LowTDegradesMoreThanHighT) {
  Rng rng(5);
  auto model = small_dnn(rng, 1.0F);
  auto train = small_data(256, /*easy=*/true);
  dnn::TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = 32;
  tc.augment = false;
  dnn::DnnTrainer trainer(*model, tc);
  trainer.fit(train);

  ConversionConfig config;
  config.mode = ConversionMode::kMaxAct;
  config.time_steps = 1;
  auto snn1 = convert(*model, train, config, nullptr);
  config.time_steps = 64;
  auto snn64 = convert(*model, train, config, nullptr);
  EXPECT_LE(snn::evaluate_snn(*snn1, train), snn::evaluate_snn(*snn64, train) + 0.05);
}

TEST(ConvertTest, SiteCountMismatchThrows) {
  Rng rng(6);
  auto model = small_dnn(rng);
  const auto data = small_data();
  ActivationProfile profile = collect_activations(*model, data);
  profile.sites.pop_back();
  ConversionConfig config;
  EXPECT_THROW(convert(*model, profile, config, nullptr), std::logic_error);
}

TEST(ConvertTest, ResNetConversionBuildsResidualBlocks) {
  Rng rng(7);
  dnn::ModelConfig mc;
  mc.width = 0.125F;
  mc.num_classes = 3;
  mc.image_size = 8;
  auto model = dnn::build_resnet(20, mc, rng);
  const auto data = small_data();
  ConversionConfig config;
  config.time_steps = 2;
  auto net = convert(*model, data, config, nullptr);
  std::int64_t blocks = 0;
  for (std::int64_t i = 0; i < net->size(); ++i) {
    if (net->layer(i).name() == "SpikingResidualBlock") ++blocks;
  }
  EXPECT_EQ(blocks, 9);
  // And the converted net runs.
  Tensor x({2, 3, 8, 8}, 0.1F);
  EXPECT_EQ(net->forward(x, false).shape(), Shape({2, 3}));
}

TEST(ConvertTest, ModeToString) {
  EXPECT_STREQ(to_string(ConversionMode::kOursAlphaBeta), "ours(alpha,beta)");
  EXPECT_STREQ(to_string(ConversionMode::kMaxAct), "max-act[15]");
}

}  // namespace
}  // namespace ullsnn::core
