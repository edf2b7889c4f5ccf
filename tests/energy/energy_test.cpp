#include <gtest/gtest.h>

#include "src/dnn/conv2d.h"
#include "src/dnn/linear.h"
#include "src/dnn/activations.h"
#include "src/dnn/sequential.h"
#include "src/energy/energy_model.h"
#include "src/energy/flops.h"
#include "src/energy/memory_model.h"
#include "src/obs/probe.h"
#include "src/snn/snn_network.h"
#include "src/tensor/random.h"

namespace ullsnn::energy {
namespace {

TEST(DnnFlopsTest, ConvAndLinearMacs) {
  Rng rng(1);
  dnn::Sequential model;
  model.emplace<dnn::Conv2d>(3, 8, 3, 1, 1, false, rng);
  model.emplace<dnn::ThresholdReLU>(1.0F);
  model.emplace<dnn::Flatten>();
  model.emplace<dnn::Linear>(8 * 4 * 4, 10, false, rng);
  const FlopsReport r = count_dnn_flops(model, {1, 3, 4, 4});
  // Conv: 8*4*4*3*9 = 3456; Linear: 128*10 = 1280.
  EXPECT_DOUBLE_EQ(r.total_macs, 3456.0 + 1280.0);
  EXPECT_DOUBLE_EQ(r.total_acs, 0.0);
  ASSERT_EQ(r.layers.size(), 2U);  // activation/flatten contribute none
}

TEST(SnnFlopsTest, FirstLayerMacsRestAcs) {
  // Two spiking linears + readout; controlled spike rates.
  snn::IfConfig hot;
  hot.v_threshold = 0.5F;  // input current 1.0 => spikes every step
  auto net = std::make_unique<snn::SnnNetwork>(4);
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({8, 8}, 0.5F)), hot);
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({4, 8}, 0.5F)), hot);
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({2, 4}, 0.5F)), std::nullopt);
  Tensor images({1, 8}, 2.0F);
  net->reset_stats();
  net->forward(images, false);
  const FlopsReport r = count_snn_flops(*net, {1, 8});
  ASSERT_EQ(r.layers.size(), 3U);
  // Layer 1 (direct encoding): dense MACs counted once = 64.
  EXPECT_DOUBLE_EQ(r.layers[0].macs, 64.0);
  EXPECT_DOUBLE_EQ(r.layers[0].acs, 0.0);
  // Layer 2: every input neuron spikes at every step -> rate 1.0.
  // ACs = 32 dense * 1.0 * 4 steps = 128.
  EXPECT_DOUBLE_EQ(r.layers[1].acs, 128.0);
  // Readout: inputs also all-spiking -> 8 * 4 = 32 ACs.
  EXPECT_DOUBLE_EQ(r.layers[2].acs, 32.0);
  EXPECT_DOUBLE_EQ(r.total_macs, 64.0);
}

TEST(SnnFlopsTest, SparseInputsScaleAcs) {
  snn::IfConfig cold;
  cold.v_threshold = 100.0F;  // first layer never spikes
  auto net = std::make_unique<snn::SnnNetwork>(2);
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({8, 8}, 0.1F)), cold);
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({2, 8}, 0.1F)), std::nullopt);
  net->reset_stats();
  net->forward(Tensor({1, 8}, 1.0F), false);
  const FlopsReport r = count_snn_flops(*net, {1, 8});
  // Second layer saw only zero inputs -> 0 ACs.
  EXPECT_DOUBLE_EQ(r.layers[1].acs, 0.0);
}

TEST(EnergyModelTest, CmosConstants) {
  FlopsReport r;
  r.total_macs = 10.0;
  r.total_acs = 100.0;
  EXPECT_DOUBLE_EQ(compute_energy_pj(r), 10.0 * 3.2 + 100.0 * 0.1);
  const CmosConstants custom{1.0, 0.5};
  EXPECT_DOUBLE_EQ(compute_energy_pj(r, custom), 10.0 + 50.0);
}

TEST(EnergyModelTest, MacAcRatioIs32x) {
  // The headline ratio behind the paper's energy claims.
  const CmosConstants cmos;
  EXPECT_DOUBLE_EQ(cmos.e_mac_pj / cmos.e_ac_pj, 32.0);
}

TEST(EnergyModelTest, NeuromorphicComputeBound) {
  // FLOPs >> T: energy ~ FLOPs * E_compute (Sec. VI-B's argument).
  const double flops = 1e9;
  const double tn = neuromorphic_energy(flops, 2, kTrueNorth);
  EXPECT_NEAR(tn, flops * 0.4, flops * 1e-6);
  const double sp = neuromorphic_energy(flops, 2, kSpiNNaker);
  EXPECT_NEAR(sp, flops * 0.64, flops * 1e-6);
}

/// Spikes per image over every probed layer.
double spikes_per_image(const obs::SnnRuntimeProbe& probe) {
  return static_cast<double>(probe.total_spikes()) / static_cast<double>(probe.samples());
}

TEST(LayerActivityTest, MeasuresControlledRates) {
  snn::IfConfig hot;
  hot.v_threshold = 0.5F;
  auto net = std::make_unique<snn::SnnNetwork>(4);
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({4, 4}, 1.0F)), hot);
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({2, 4}, 1.0F)), std::nullopt);

  data::LabeledImages dataset;
  dataset.images = Tensor({6, 4}, 2.0F);  // always drives spikes
  dataset.labels = {0, 1, 0, 1, 0, 1};
  obs::SnnRuntimeProbe probe(*net, {.keep_step_stats = false});
  snn::evaluate_snn(*net, dataset, 3);
  const std::vector<obs::LayerSummary> layers = probe.summaries();
  ASSERT_EQ(layers.size(), 1U);
  EXPECT_EQ(probe.samples(), 6);
  // Every neuron spikes every step: 4 spikes per neuron per image.
  EXPECT_NEAR(layers[0].spikes_per_neuron, 4.0, 1e-9);
  EXPECT_NEAR(spikes_per_image(probe), 4.0 * 4.0, 1e-9);
  EXPECT_NEAR(probe.mean_spikes_per_neuron(), 4.0, 1e-9);
}

/// Fully hand-computable two-layer net: identity synapse into two IF neurons
/// (V_th = 1), then a [1, 1] readout. Input [0.6, 0.3] at T = 2 gives
/// membranes 0.6 -> 1.2 (one spike) and 0.3 -> 0.6 (none).
std::unique_ptr<snn::SnnNetwork> hand_net() {
  auto net = std::make_unique<snn::SnnNetwork>(2);
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(Tensor({2, 2}, std::vector<float>{1, 0, 0, 1})), snn::IfConfig{});
  net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({1, 2}, std::vector<float>{1, 1})),
                                   std::nullopt);
  return net;
}

data::LabeledImages hand_dataset() {
  data::LabeledImages dataset;
  dataset.images = Tensor({4, 2}, std::vector<float>{0.6F, 0.3F, 0.6F, 0.3F,
                                                     0.6F, 0.3F, 0.6F, 0.3F});
  dataset.labels = {0, 0, 0, 0};
  return dataset;
}

TEST(LayerActivityTest, HandComputedTwoLayerNetAtT2) {
  auto net = hand_net();
  obs::SnnRuntimeProbe probe(*net, {.keep_step_stats = false});
  const double accuracy = snn::evaluate_snn(*net, hand_dataset(), 4);
  const std::vector<obs::LayerSummary> layers = probe.summaries();
  ASSERT_EQ(layers.size(), 1U);  // the readout has no neurons
  EXPECT_EQ(probe.samples(), 4);
  EXPECT_EQ(layers[0].neurons, 2);
  // 1 spike per image over 2 neurons.
  EXPECT_DOUBLE_EQ(layers[0].spikes_per_neuron, 0.5);
  EXPECT_DOUBLE_EQ(spikes_per_image(probe), 1.0);
  EXPECT_DOUBLE_EQ(probe.mean_spikes_per_neuron(), 0.5);
  // Single output class: argmax is trivially the label.
  EXPECT_DOUBLE_EQ(accuracy, 1.0);
}

TEST(SnnFlopsTest, HandComputedAcsFromMeasuredRates) {
  auto net = hand_net();
  snn::evaluate_snn(*net, hand_dataset(), 4);
  const FlopsReport r = count_snn_flops(*net, {1, 2});
  ASSERT_EQ(r.layers.size(), 2U);
  // First layer is direct-encoded: 2x2 dense MACs counted once.
  EXPECT_DOUBLE_EQ(r.layers[0].macs, 4.0);
  EXPECT_DOUBLE_EQ(r.layers[0].acs, 0.0);
  // Readout inputs: 1 nonzero of 4 per image (2 neurons x 2 steps), so
  // ACs = 2 dense * 0.25 * 2 steps = 1.
  EXPECT_DOUBLE_EQ(r.layers[1].acs, 1.0);
  EXPECT_DOUBLE_EQ(r.total_macs, 4.0);
  EXPECT_DOUBLE_EQ(r.total_acs, 1.0);
}

TEST(MemoryModelTest, SnnTrainingScalesWithT) {
  auto make_net = [](std::int64_t t) {
    auto net = std::make_unique<snn::SnnNetwork>(t);
    net->emplace<snn::SynapticLayer>(
        snn::Synapse(Tensor({64, 64}, 0.1F)), snn::IfConfig{});
    net->emplace<snn::SynapticLayer>(snn::Synapse(Tensor({10, 64}, 0.1F)), std::nullopt);
    return net;
  };
  auto net2 = make_net(2);
  auto net5 = make_net(5);
  // Populate neuron counts.
  net2->forward(Tensor({1, 64}, 0.0F), false);
  net5->forward(Tensor({1, 64}, 0.0F), false);
  const MemoryEstimate m2 = estimate_snn_training_memory(*net2, {1, 64}, 8, 2);
  const MemoryEstimate m5 = estimate_snn_training_memory(*net5, {1, 64}, 8, 5);
  EXPECT_DOUBLE_EQ(m2.params_mib, m5.params_mib);
  EXPECT_NEAR(m5.activations_mib / m2.activations_mib, 2.5, 1e-9);
  EXPECT_NEAR(m5.membranes_mib / m2.membranes_mib, 2.5, 1e-9);
}

TEST(MemoryModelTest, DnnTrainingCountsParamsThrice) {
  Rng rng(2);
  dnn::Sequential model;
  model.emplace<dnn::Linear>(256, 256, false, rng);
  const MemoryEstimate m = estimate_dnn_training_memory(model, {1, 256}, 1);
  const double param_mib = 256.0 * 256.0 * 4.0 / (1024.0 * 1024.0);
  EXPECT_NEAR(m.params_mib, 3.0 * param_mib, 1e-9);
  const MemoryEstimate inf = estimate_dnn_inference_memory(model, {1, 256}, 1);
  EXPECT_NEAR(inf.params_mib, param_mib, 1e-9);
  EXPECT_LT(inf.total_mib(), m.total_mib());
}

TEST(MemoryModelTest, BatchScalesActivationsOnly) {
  Rng rng(3);
  dnn::Sequential model;
  model.emplace<dnn::Linear>(64, 64, false, rng);
  const MemoryEstimate b1 = estimate_dnn_training_memory(model, {1, 64}, 1);
  const MemoryEstimate b8 = estimate_dnn_training_memory(model, {1, 64}, 8);
  EXPECT_DOUBLE_EQ(b1.params_mib, b8.params_mib);
  EXPECT_NEAR(b8.activations_mib / b1.activations_mib, 8.0, 1e-9);
}

}  // namespace
}  // namespace ullsnn::energy
