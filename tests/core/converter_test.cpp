#include "src/core/converter.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/dnn/activations.h"
#include "src/dnn/conv2d.h"
#include "src/dnn/dropout.h"
#include "src/dnn/linear.h"
#include "src/dnn/models.h"
#include "src/dnn/pooling.h"
#include "src/dnn/residual.h"
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

std::unique_ptr<dnn::Sequential> small_resnet(Rng& rng) {
  dnn::ModelConfig mc;
  mc.width = 0.125F;
  mc.num_classes = 3;
  mc.image_size = 8;
  return dnn::build_resnet(20, mc, rng);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// V_th / alpha of `site`: the clip threshold the converter reports for the
/// layer that site configures.
float site_mu(const SiteScaling& site) {
  return site.alpha > 0.0F ? site.v_threshold / site.alpha : site.v_threshold;
}

/// Checks `report.layer_mu` against an independent walk over the converted
/// network: a residual block consumes two sites and reports its second, any
/// other layer with a neuron consumes one, and the rest read 0.
void expect_layer_mu_matches_sites(snn::SnnNetwork& net, const ConversionReport& report) {
  ASSERT_EQ(report.layer_mu.size(), static_cast<std::size_t>(net.size()));
  std::size_t site = 0;
  for (std::int64_t i = 0; i < net.size(); ++i) {
    const float mu = report.layer_mu[static_cast<std::size_t>(i)];
    snn::SpikingLayer& layer = net.layer(i);
    if (dynamic_cast<snn::SpikingResidualBlock*>(&layer) != nullptr) {
      ASSERT_LT(site + 1, report.sites.size());
      EXPECT_EQ(mu, site_mu(report.sites[site + 1])) << "layer " << i;
      site += 2;
    } else if (layer.neuron_or_null() != nullptr) {
      ASSERT_LT(site, report.sites.size());
      EXPECT_EQ(mu, site_mu(report.sites[site])) << "layer " << i;
      site += 1;
    } else {
      EXPECT_EQ(mu, 0.0F) << "layer " << i;
    }
  }
  EXPECT_EQ(site, report.sites.size());
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
  r = plan_conversion(profile, config);
  EXPECT_NEAR(r.sites[0].v_threshold, 1.0F, 1e-4F);
  EXPECT_FLOAT_EQ(r.sites[0].initial_membrane_fraction, 0.0F);

  config.mode = ConversionMode::kOursAlphaBeta;
  r = plan_conversion(profile, config);
  ASSERT_EQ(r.sites.size(), 1U);
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
  // Every DNN conv/linear weight, in order, against every SynapticLayer's,
  // readout included.
  std::vector<Tensor*> dnn_weights;
  for (std::int64_t i = 0; i < model->size(); ++i) {
    if (auto* conv = dynamic_cast<dnn::Conv2d*>(&model->layer(i))) {
      dnn_weights.push_back(&conv->weight().value);
    } else if (auto* linear = dynamic_cast<dnn::Linear*>(&model->layer(i))) {
      dnn_weights.push_back(&linear->weight().value);
    }
  }
  std::vector<snn::SynapticLayer*> synaptic;
  for (std::int64_t i = 0; i < net->size(); ++i) {
    if (auto* layer = dynamic_cast<snn::SynapticLayer*>(&net->layer(i))) {
      synaptic.push_back(layer);
    }
  }
  ASSERT_EQ(synaptic.size(), 3U);
  ASSERT_EQ(synaptic.size(), dnn_weights.size());
  EXPECT_FALSE(synaptic.back()->has_neuron());  // the readout
  for (std::size_t k = 0; k < synaptic.size(); ++k) {
    EXPECT_TRUE(bitwise_equal(synaptic[k]->synapse().weight().value, *dnn_weights[k]))
        << "synaptic layer " << k;
  }
  // Mutating the SNN copy must not touch the DNN.
  synaptic[0]->synapse().weight().value[0] += 1.0F;
  EXPECT_FALSE(bitwise_equal(synaptic[0]->synapse().weight().value, *dnn_weights[0]));
}

TEST(ConvertTest, ResidualWeightsAreCopies) {
  Rng rng(8);
  auto model = small_resnet(rng);
  const auto data = small_data();
  ConversionConfig config;
  config.time_steps = 2;
  auto net = convert(*model, data, config, nullptr);
  std::vector<dnn::ResidualBlock*> dnn_blocks;
  for (std::int64_t i = 0; i < model->size(); ++i) {
    if (auto* block = dynamic_cast<dnn::ResidualBlock*>(&model->layer(i))) {
      dnn_blocks.push_back(block);
    }
  }
  std::vector<snn::SpikingResidualBlock*> snn_blocks;
  for (std::int64_t i = 0; i < net->size(); ++i) {
    if (auto* block = dynamic_cast<snn::SpikingResidualBlock*>(&net->layer(i))) {
      snn_blocks.push_back(block);
    }
  }
  ASSERT_EQ(snn_blocks.size(), dnn_blocks.size());
  std::int64_t projections = 0;
  for (std::size_t k = 0; k < dnn_blocks.size(); ++k) {
    dnn::ResidualBlock& d = *dnn_blocks[k];
    snn::SpikingResidualBlock& s = *snn_blocks[k];
    EXPECT_TRUE(bitwise_equal(s.conv1_synapse().weight().value, d.conv1().weight().value))
        << "block " << k << " conv1";
    EXPECT_TRUE(bitwise_equal(s.conv2_synapse().weight().value, d.conv2().weight().value))
        << "block " << k << " conv2";
    ASSERT_EQ(s.projection_synapse_or_null() != nullptr, d.has_projection()) << "block " << k;
    if (d.has_projection()) {
      ++projections;
      EXPECT_TRUE(bitwise_equal(s.projection_synapse_or_null()->weight().value,
                                d.projection().weight().value))
          << "block " << k << " projection";
    }
  }
  EXPECT_GT(projections, 0);
}

TEST(ConvertTest, LayerMuFollowsSites) {
  Rng rng(9);
  auto model = small_dnn(rng);
  const auto data = small_data();
  ConversionConfig config;
  config.time_steps = 2;
  ConversionReport report;
  auto net = convert(*model, data, config, &report);
  // conv(site 0), pool, flatten, dropout, fc(site 1), readout.
  ASSERT_EQ(report.layer_mu.size(), 6U);
  EXPECT_EQ(report.layer_mu[0], site_mu(report.sites[0]));
  EXPECT_EQ(report.layer_mu[4], site_mu(report.sites[1]));
  for (const std::size_t k : {1U, 2U, 3U, 5U}) EXPECT_EQ(report.layer_mu[k], 0.0F);
  EXPECT_GT(report.layer_mu[0], 0.0F);
  expect_layer_mu_matches_sites(*net, report);
}

TEST(ConvertTest, LayerMuReportsResidualSecondSite) {
  Rng rng(10);
  auto model = small_resnet(rng);
  // Distinct clip thresholds inside each block, so its two sites differ.
  for (std::int64_t i = 0; i < model->size(); ++i) {
    if (auto* block = dynamic_cast<dnn::ResidualBlock*>(&model->layer(i))) {
      block->act1().set_mu(1.5F);
      block->act2().set_mu(3.0F);
    }
  }
  const auto data = small_data();
  ConversionConfig config;
  config.time_steps = 2;
  ConversionReport report;
  auto net = convert(*model, data, config, &report);
  expect_layer_mu_matches_sites(*net, report);
  // The first residual block follows the stem conv (site 0), so it holds
  // sites 1 and 2 and reports site 2.
  std::int64_t first_block = -1;
  for (std::int64_t i = 0; i < net->size() && first_block < 0; ++i) {
    if (dynamic_cast<snn::SpikingResidualBlock*>(&net->layer(i)) != nullptr) first_block = i;
  }
  ASSERT_GE(first_block, 0);
  ASSERT_NE(net->layer(0).neuron_or_null(), nullptr);
  ASSERT_NE(site_mu(report.sites[1]), site_mu(report.sites[2]));  // tells them apart
  EXPECT_EQ(report.layer_mu[static_cast<std::size_t>(first_block)], site_mu(report.sites[2]));
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
  auto model = small_resnet(rng);
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
