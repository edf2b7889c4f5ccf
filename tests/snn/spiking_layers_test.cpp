#include "src/snn/spiking_layers.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/tensor/random.h"

namespace ullsnn::snn {
namespace {

IfConfig if_config(float v_th = 1.0F) {
  IfConfig c;
  c.v_threshold = v_th;
  return c;
}

TEST(SynapticConvTest, ForwardMatchesDenseConv) {
  Rng rng(1);
  Tensor weight({2, 1, 3, 3});
  uniform_fill(weight, -0.5F, 0.5F, rng);
  Conv2dSpec spec{1, 2, 3, 1, 1};
  Synapse synapse(weight, spec);
  synapse.begin_sequence(1, false);
  Tensor input({1, 1, 4, 4});
  uniform_fill(input, -1.0F, 1.0F, rng);
  const Tensor out = synapse.forward(input, 0, false);
  Tensor expected({1, 2, 4, 4});
  conv2d_forward(input, weight, Tensor(), expected, spec);
  EXPECT_TRUE(out.allclose(expected, 1e-5F));
}

TEST(SynapticConvTest, CountsInputNonzeros) {
  Rng rng(1);
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Synapse synapse(Tensor({1, 1, 3, 3}, 0.1F), spec);
  synapse.begin_sequence(2, false);
  Tensor input({1, 1, 2, 2});
  input[0] = 1.0F;
  input[2] = 1.0F;
  synapse.forward(input, 0, false);
  synapse.forward(input, 1, false);
  EXPECT_EQ(synapse.input_nonzeros(), 4);
  EXPECT_EQ(synapse.input_elements(), 8);
  synapse.reset_stats();
  EXPECT_EQ(synapse.input_nonzeros(), 0);
}

TEST(SynapticConvTest, RejectsWrongWeightShape) {
  Conv2dSpec spec{2, 4, 3, 1, 1};
  EXPECT_THROW(Synapse(Tensor({4, 2, 5, 5}), spec), std::invalid_argument);
}

TEST(SynapticConvTest, BackwardRequiresForward) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  Synapse synapse(Tensor({1, 1, 3, 3}), spec);
  synapse.begin_sequence(1, true);
  EXPECT_THROW(synapse.backward(Tensor({1, 1, 4, 4}), 0), std::logic_error);
}

TEST(SpikingConv2dTest, StepProtocolAndSpikes) {
  Rng rng(2);
  Tensor weight({1, 1, 1, 1}, 1.0F);  // identity-ish 1x1 conv
  SynapticLayer layer(Synapse(weight, Conv2dSpec{1, 1, 1, 1, 0}), if_config(1.0F));
  layer.begin_sequence({1, 1, 2, 2}, 2, false);
  Tensor input({1, 1, 2, 2}, 0.6F);
  const Tensor s0 = layer.step_forward(input, 0, false);
  EXPECT_FLOAT_EQ(s0.sum(), 0.0F);  // membrane 0.6 < 1
  const Tensor s1 = layer.step_forward(input, 1, false);
  EXPECT_FLOAT_EQ(s1.sum(), 4.0F);  // membrane 1.2 > 1: all 4 neurons spike
  EXPECT_EQ(layer.spikes_emitted(), 4);
  EXPECT_EQ(layer.neurons(), 4);
}

TEST(SpikingLinearTest, WithNeuronEmitsSpikes) {
  Tensor weight({1, 2}, 1.0F);
  SynapticLayer layer(Synapse(weight), if_config(1.0F));
  layer.begin_sequence({1, 2}, 1, false);
  const Tensor s = layer.step_forward(Tensor({1, 2}, 0.7F), 0, false);
  EXPECT_FLOAT_EQ(s[0], 1.0F);  // current 1.4 > 1
  EXPECT_TRUE(layer.has_neuron());
}

TEST(SpikingLinearTest, WithoutNeuronPassesCurrent) {
  Tensor weight({1, 2}, 1.0F);
  SynapticLayer layer(Synapse(weight), std::nullopt);
  layer.begin_sequence({1, 2}, 1, false);
  const Tensor s = layer.step_forward(Tensor({1, 2}, 0.7F), 0, false);
  EXPECT_NEAR(s[0], 1.4F, 1e-6F);  // raw current, no threshold
  EXPECT_FALSE(layer.has_neuron());
  EXPECT_EQ(layer.neurons(), 0);
}

TEST(SynapticLayerTest, OnlyALinearSynapseMayGoWithoutANeuron) {
  const Conv2dSpec spec{1, 1, 1, 1, 0};
  EXPECT_THROW(SynapticLayer(Synapse(Tensor({1, 1, 1, 1}), spec), std::nullopt),
               std::invalid_argument);
  EXPECT_THROW(Synapse(Tensor({2, 1, 1})), std::invalid_argument);
  // The artifact, probe and energy reports name the layer by its synapse.
  EXPECT_EQ(SynapticLayer(Synapse(Tensor({1, 1, 1, 1}), spec), if_config()).name(),
            "SpikingConv2d");
  EXPECT_EQ(SynapticLayer(Synapse(Tensor({1, 2})), std::nullopt).name(), "SpikingLinear");
}

TEST(SpikingMaxPoolTest, BinaryInBinaryOut) {
  SpikingMaxPool pool(Pool2dSpec{2, 2});
  pool.begin_sequence({1, 1, 4, 4}, 1, false);
  Tensor spikes({1, 1, 4, 4});
  spikes[0] = 1.0F;
  spikes[5] = 1.0F;
  const Tensor out = pool.step_forward(spikes, 0, false);
  EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_TRUE(out[i] == 0.0F || out[i] == 1.0F);
  }
  EXPECT_FLOAT_EQ(out[0], 1.0F);
}

TEST(SpikingMaxPoolTest, BackwardRoutesToArgmax) {
  SpikingMaxPool pool(Pool2dSpec{2, 2});
  pool.begin_sequence({1, 1, 2, 2}, 1, true);
  Tensor spikes({1, 1, 2, 2});
  spikes[3] = 1.0F;
  pool.step_forward(spikes, 0, true);
  const Tensor g = pool.step_backward(Tensor({1, 1, 1, 1}, 5.0F), 0);
  EXPECT_FLOAT_EQ(g[3], 5.0F);
  EXPECT_FLOAT_EQ(g[0], 0.0F);
}

TEST(SpikingMaxPoolTest, TrainingStepWithoutItsArgmaxSlotThrows) {
  SpikingMaxPool pool(Pool2dSpec{2, 2});
  const Tensor spikes({1, 1, 2, 2});
  pool.begin_sequence({1, 1, 2, 2}, 1, /*train=*/false);
  EXPECT_THROW(pool.step_forward(spikes, 0, /*train=*/true), std::out_of_range);
  pool.begin_sequence({1, 1, 2, 2}, 1, /*train=*/true);
  EXPECT_THROW(pool.step_forward(spikes, 1, /*train=*/true), std::out_of_range);
}

TEST(SpikingAvgPoolTest, AveragesSpikes) {
  SpikingAvgPool pool(Pool2dSpec{2, 2});
  pool.begin_sequence({1, 1, 2, 2}, 1, false);
  Tensor spikes({1, 1, 2, 2});
  spikes[0] = 1.0F;
  const Tensor out = pool.step_forward(spikes, 0, false);
  EXPECT_FLOAT_EQ(out[0], 0.25F);
}

TEST(SpikingDropoutTest, MaskFixedAcrossSteps) {
  Rng rng(3);
  SpikingDropout dropout(0.5F, rng);
  dropout.begin_sequence({1, 1000}, 3, /*train=*/true);
  Tensor x({1, 1000}, 1.0F);
  const Tensor y0 = dropout.step_forward(x, 0, true);
  const Tensor y1 = dropout.step_forward(x, 1, true);
  const Tensor y2 = dropout.step_forward(x, 2, true);
  EXPECT_TRUE(y0.allclose(y1));
  EXPECT_TRUE(y0.allclose(y2));
  EXPECT_NEAR(y0.mean(), 1.0F, 0.15F);
}

TEST(SpikingDropoutTest, ResamplesPerSequence) {
  Rng rng(3);
  SpikingDropout dropout(0.5F, rng);
  dropout.begin_sequence({1, 1000}, 1, true);
  Tensor x({1, 1000}, 1.0F);
  const Tensor a = dropout.step_forward(x, 0, true);
  dropout.begin_sequence({1, 1000}, 1, true);
  const Tensor b = dropout.step_forward(x, 0, true);
  EXPECT_FALSE(a.allclose(b));
}

TEST(SpikingDropoutTest, InferenceIsIdentity) {
  Rng rng(3);
  SpikingDropout dropout(0.5F, rng);
  dropout.begin_sequence({1, 10}, 1, /*train=*/false);
  Tensor x({1, 10}, 1.0F);
  EXPECT_TRUE(dropout.step_forward(x, 0, false).allclose(x));
}

TEST(SpikingFlattenTest, RoundTrip) {
  SpikingFlatten flatten;
  flatten.begin_sequence({2, 3, 4, 4}, 1, true);
  Tensor x({2, 3, 4, 4}, 1.0F);
  const Tensor y = flatten.step_forward(x, 0, true);
  EXPECT_EQ(y.shape(), Shape({2, 48}));
  EXPECT_EQ(flatten.step_backward(Tensor({2, 48}), 0).shape(), x.shape());
}

TEST(SpikingResidualBlockTest, IdentitySkipFeedsJoinNeuron) {
  // Zero convs: output neuron integrates only the skip input.
  Conv2dSpec spec{1, 1, 3, 1, 1};
  SpikingResidualBlock block(Tensor({1, 1, 3, 3}), spec, if_config(1.0F),
                             Tensor({1, 1, 3, 3}), spec, if_config(1.0F), Tensor(),
                             Conv2dSpec{});
  block.begin_sequence({1, 1, 2, 2}, 1, false);
  Tensor input({1, 1, 2, 2}, 1.5F);
  const Tensor out = block.step_forward(input, 0, false);
  // Skip current 1.5 > threshold 1.0 -> all neurons spike.
  EXPECT_FLOAT_EQ(out.sum(), 4.0F);
}

TEST(SpikingResidualBlockTest, ProjectionChangesShape) {
  Conv2dSpec c1{2, 4, 3, 2, 1};
  Conv2dSpec c2{4, 4, 3, 1, 1};
  Conv2dSpec proj{2, 4, 1, 2, 0};
  Rng rng(5);
  Tensor w1({4, 2, 3, 3});
  Tensor w2({4, 4, 3, 3});
  Tensor wp({4, 2, 1, 1});
  uniform_fill(w1, -0.3F, 0.3F, rng);
  uniform_fill(w2, -0.3F, 0.3F, rng);
  uniform_fill(wp, -0.3F, 0.3F, rng);
  SpikingResidualBlock block(w1, c1, if_config(), w2, c2, if_config(), wp, proj);
  block.begin_sequence({1, 2, 8, 8}, 1, false);
  Tensor input({1, 2, 8, 8}, 0.5F);
  const Tensor out = block.step_forward(input, 0, false);
  EXPECT_EQ(out.shape(), Shape({1, 4, 4, 4}));
  EXPECT_EQ(block.output_shape({1, 2, 8, 8}), Shape({1, 4, 4, 4}));
}

TEST(SpikingResidualBlockTest, ParamsAndStats) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  SpikingResidualBlock block(Tensor({1, 1, 3, 3}), spec, if_config(),
                             Tensor({1, 1, 3, 3}), spec, if_config(), Tensor(),
                             Conv2dSpec{});
  // conv1 + th1 + leak1 + conv2 + th2 + leak2.
  EXPECT_EQ(block.params().size(), 6U);
  block.begin_sequence({1, 1, 2, 2}, 1, false);
  EXPECT_EQ(block.neurons(), 8);  // two neuron populations of 4
}

}  // namespace
}  // namespace ullsnn::snn
