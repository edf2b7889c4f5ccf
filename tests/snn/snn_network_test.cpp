#include "src/snn/snn_network.h"

#include <gtest/gtest.h>

#include "src/obs/probe.h"
#include "src/tensor/random.h"

namespace ullsnn::snn {
namespace {

IfConfig if_config(float v_th) {
  IfConfig c;
  c.v_threshold = v_th;
  return c;
}

// One hidden spiking linear + readout linear. With identity-ish weights the
// network's average transfer can be computed by hand.
std::unique_ptr<SnnNetwork> tiny_net(std::int64_t time_steps, float v_th) {
  auto net = std::make_unique<SnnNetwork>(time_steps);
  Tensor w1({4, 4});
  for (std::int64_t i = 0; i < 4; ++i) w1.at(i, i) = 1.0F;
  net->emplace<SynapticLayer>(Synapse(w1), if_config(v_th));
  Tensor w2({2, 4}, 0.5F);
  net->emplace<SynapticLayer>(Synapse(w2), std::nullopt);
  return net;
}

TEST(SnnNetworkTest, OutputAccumulatesOverSteps) {
  auto net = tiny_net(4, 1.0F);
  // Drive 1.5: spikes at every step (soft reset keeps surplus 0.5 -> next
  // step 2.0 -> spike...). Rate = 1 per step at drive >= threshold.
  Tensor images({1, 4}, 1.5F);
  const Tensor logits = net->forward(images, false);
  // Each hidden neuron spikes ~4 times with amplitude 1; readout row sums
  // 4 inputs * 0.5 each step: logits = 4 steps... spikes accumulate into
  // logits = sum_t 0.5 * sum_j spikes_j(t) = 0.5 * 4 * (spikes per neuron).
  EXPECT_EQ(logits.shape(), Shape({1, 2}));
  EXPECT_NEAR(logits[0], 0.5F * 4.0F * 4.0F, 1e-4F);
}

TEST(SnnNetworkTest, RateApproximatesClipAsTGrows) {
  // The average SNN output of a single layer approaches clip(x, 0, V_th) as
  // T grows (DNN-to-SNN conversion principle, Eq. 5).
  const float v_th = 1.0F;
  for (const float drive : {0.3F, 0.7F, 1.3F}) {
    auto net = tiny_net(256, v_th);
    Tensor images({1, 4}, drive);
    const Tensor logits = net->forward(images, false);
    const float avg_per_step = logits[0] / 256.0F;
    const float expected = 0.5F * 4.0F * std::min(drive, v_th);
    EXPECT_NEAR(avg_per_step, expected, 0.05F) << "drive " << drive;
  }
}

TEST(SnnNetworkTest, NegativeDriveProducesNoSpikes) {
  auto net = tiny_net(8, 1.0F);
  Tensor images({1, 4}, -2.0F);
  const Tensor logits = net->forward(images, false);
  EXPECT_FLOAT_EQ(logits[0], 0.0F);
  EXPECT_EQ(net->total_spikes(), 0);
}

TEST(SnnNetworkTest, SpikesPerNeuronNormalization) {
  auto net = tiny_net(4, 1.0F);
  data::LabeledImages batch;
  batch.images = Tensor({2, 4}, 1.5F);  // 2 samples, all neurons spike every step
  batch.labels = {0, 1};
  obs::SnnRuntimeProbe probe(*net, {.keep_step_stats = false});
  evaluate_snn(*net, batch);
  const std::vector<obs::LayerSummary> layers = probe.summaries();
  ASSERT_EQ(layers.size(), 1U);  // only the hidden layer has neurons
  EXPECT_NEAR(layers[0].spikes_per_neuron, 4.0, 1e-9);  // per neuron per image
}

TEST(SnnNetworkTest, ResetStatsClearsCounters) {
  auto net = tiny_net(4, 1.0F);
  net->forward(Tensor({1, 4}, 1.5F), false);
  EXPECT_GT(net->total_spikes(), 0);
  net->reset_stats();
  EXPECT_EQ(net->total_spikes(), 0);
}

TEST(SnnNetworkTest, SetTimeStepsValidates) {
  SnnNetwork net(2);
  EXPECT_THROW(net.set_time_steps(0), std::invalid_argument);
  net.set_time_steps(5);
  EXPECT_EQ(net.time_steps(), 5);
  EXPECT_THROW(SnnNetwork(0), std::invalid_argument);
}

TEST(SnnNetworkTest, EmptyNetworkThrows) {
  SnnNetwork net(2);
  EXPECT_THROW(net.forward(Tensor({1, 4}), false), std::logic_error);
}

TEST(SnnNetworkTest, BackwardRunsAfterTrainingForward) {
  auto net = tiny_net(2, 1.0F);
  Tensor images({1, 4}, 0.8F);
  const Tensor logits = net->forward(images, true);
  net->backward(Tensor(logits.shape(), 1.0F));
  // Weight gradients populated on both synapses.
  bool any_nonzero = false;
  for (dnn::Param* p : net->params()) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      if (p->grad[i] != 0.0F) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(SnnNetworkTest, MoreStepsMoreSpikes) {
  auto net2 = tiny_net(2, 1.0F);
  auto net8 = tiny_net(8, 1.0F);
  Tensor images({1, 4}, 0.9F);
  net2->forward(images, false);
  net8->forward(images, false);
  EXPECT_GT(net8->total_spikes(), net2->total_spikes());
}

// Regression test for the serving isolation contract: repeating an input
// must reproduce the logits bit for bit, no matter what ran in between —
// no membrane charge, cache, or RNG drift may leak across forward calls.
TEST(SnnNetworkTest, ResetStateMakesRepeatedForwardsBitwiseIdentical) {
  auto net = tiny_net(4, 1.0F);
  Tensor probe({1, 4});
  probe[0] = 1.3F;
  probe[1] = 0.4F;
  probe[2] = 0.9F;
  probe[3] = 1.7F;
  net->reset_state();
  const Tensor first = net->forward(probe, false);
  // Interleave unrelated work: different input, different batch size.
  net->forward(Tensor({3, 4}, 0.8F), false);
  net->reset_state();
  const Tensor repeat = net->forward(probe, false);
  ASSERT_EQ(first.shape(), repeat.shape());
  for (std::int64_t i = 0; i < first.numel(); ++i) {
    EXPECT_EQ(first[i], repeat[i]) << "logit " << i << " drifted across calls";
  }
}

TEST(SnnNetworkTest, ResetStateRewindsThePoissonEncoderStream) {
  // Poisson encoding draws from the encoder RNG every step, so without
  // reset_state() a second forward sees a different spike train. With it,
  // the stream rewinds to the seed and the logits repeat exactly.
  auto net = tiny_net(16, 1.0F);
  net->set_encoding(Encoding::kPoisson, /*seed=*/7);
  Tensor probe({1, 4}, 0.6F);
  const Tensor first = net->forward(probe, false);
  net->reset_state();
  const Tensor rewound = net->forward(probe, false);
  ASSERT_EQ(first.shape(), rewound.shape());
  for (std::int64_t i = 0; i < first.numel(); ++i) {
    EXPECT_EQ(first[i], rewound[i]) << "Poisson logit " << i;
  }
}

TEST(SnnNetworkTest, ResetStateClearsLayerRuntimeState) {
  auto net = tiny_net(4, 1.0F);
  net->forward(Tensor({1, 4}, 1.5F), false);
  // A training forward leaves BPTT caches behind; reset_state drops them.
  net->forward(Tensor({1, 4}, 1.5F), true);
  net->reset_state();
  // After reset, backward must fail loudly (no stale tape to consume).
  EXPECT_THROW(net->backward(Tensor({1, 2}, 1.0F)), std::exception);
  // And a fresh inference forward still works.
  const Tensor logits = net->forward(Tensor({1, 4}, 1.5F), false);
  EXPECT_EQ(logits.shape(), Shape({1, 2}));
}

}  // namespace
}  // namespace ullsnn::snn
