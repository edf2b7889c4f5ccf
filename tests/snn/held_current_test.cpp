// The eval time step under direct encoding: the first layer computes its
// synaptic current once per sequence and integrates the held tensor at every
// step. These tests pin that this is only a saving: logits are bitwise those
// of running the synapse every step, the synapse runs once per eval sequence
// (every step under Poisson encoding or training), and the held current
// never outlives its sequence. The IF update itself is checked bitwise
// against a per-element scalar reference.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/snn/snn_network.h"
#include "src/tensor/random.h"

namespace ullsnn::snn {
namespace {

struct Dynamics {
  std::string name;
  float leak;
  ResetMode reset;
};

const std::vector<Dynamics>& all_dynamics() {
  static const std::vector<Dynamics> d = {{"IF", 1.0F, ResetMode::kSubtract},
                                          {"LIF", 0.9F, ResetMode::kSubtract},
                                          {"hard", 1.0F, ResetMode::kZero}};
  return d;
}

IfConfig neuron(const Dynamics& d) {
  IfConfig c;
  c.v_threshold = 0.5F;
  c.leak = d.leak;
  c.reset = d.reset;
  return c;
}

Tensor random_tensor(const Shape& shape, float lo, float hi, Rng& rng) {
  Tensor t(shape);
  uniform_fill(t, lo, hi, rng);
  return t;
}

/// conv(3->4) + IF, max pool, flatten, readout [5, 64]; input [N, 3, 8, 8].
std::unique_ptr<SnnNetwork> conv_first_net(const Dynamics& d, std::int64_t time_steps) {
  Rng rng(11);
  auto net = std::make_unique<SnnNetwork>(time_steps);
  net->emplace<SynapticLayer>(
      Synapse(random_tensor({4, 3, 3, 3}, -0.4F, 0.6F, rng), Conv2dSpec{3, 4, 3, 1, 1}),
      neuron(d));
  net->emplace<SpikingMaxPool>(Pool2dSpec{});
  net->emplace<SpikingFlatten>();
  net->emplace<SynapticLayer>(
      Synapse(random_tensor({5, 64}, -0.3F, 0.3F, rng)), std::nullopt);
  return net;
}

/// linear(12->16) + IF, linear(16->16) + IF, readout [5, 16]; input [N, 12].
std::unique_ptr<SnnNetwork> linear_first_net(const Dynamics& d, std::int64_t time_steps) {
  Rng rng(13);
  auto net = std::make_unique<SnnNetwork>(time_steps);
  net->emplace<SynapticLayer>(
      Synapse(random_tensor({16, 12}, -0.3F, 0.5F, rng)), neuron(d));
  net->emplace<SynapticLayer>(
      Synapse(random_tensor({16, 16}, -0.3F, 0.5F, rng)), neuron(d));
  net->emplace<SynapticLayer>(
      Synapse(random_tensor({5, 16}, -0.3F, 0.3F, rng)), std::nullopt);
  return net;
}

Tensor conv_input(std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  return random_tensor({batch, 3, 8, 8}, -1.0F, 1.5F, rng);
}

Tensor linear_input(std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  return random_tensor({batch, 12}, -1.0F, 1.5F, rng);
}

/// Eval forward with the synapse run at every step: the layer protocol
/// driven by hand without hold_input.
Tensor every_step_forward(SnnNetwork& net, const Tensor& images) {
  Shape shape = images.shape();
  for (std::int64_t i = 0; i < net.size(); ++i) {
    net.layer(i).begin_sequence(shape, net.time_steps(), /*train=*/false);
    shape = net.layer(i).output_shape(shape);
  }
  Tensor logits(shape);
  for (std::int64_t t = 0; t < net.time_steps(); ++t) {
    Tensor x = images;
    for (std::int64_t i = 0; i < net.size(); ++i) {
      x = net.layer(i).step_forward(x, t, /*train=*/false);
    }
    logits += x;
  }
  return logits;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Samples layer 0's synapse has dispatched since the last reset_stats().
std::int64_t first_layer_samples(SnnNetwork& net) {
  const SpikeKernelStats& s =
      dynamic_cast<SynapticLayer&>(net.layer(0)).synapse().kernel_stats();
  return s.dense_samples + s.sparse_samples;
}

using NetBuilder = std::unique_ptr<SnnNetwork> (*)(const Dynamics&, std::int64_t);
using InputBuilder = Tensor (*)(std::int64_t, std::uint64_t);

struct Arch {
  std::string name;
  NetBuilder net;
  InputBuilder input;
};

const std::vector<Arch>& all_archs() {
  static const std::vector<Arch> a = {{"conv-first", conv_first_net, conv_input},
                                      {"linear-first", linear_first_net, linear_input}};
  return a;
}

TEST(HeldCurrentTest, EvalLogitsAreBitwiseThoseOfTheSynapseEveryStep) {
  for (const Arch& arch : all_archs()) {
    for (const Dynamics& d : all_dynamics()) {
      for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
        const std::string label =
            arch.name + " " + d.name + " " + to_string(precision);
        auto net = arch.net(d, 3);
        net->set_precision(precision);
        const Tensor images = arch.input(4, 5);
        const Tensor held = net->forward(images, /*train=*/false);
        const Tensor reference = every_step_forward(*net, images);
        EXPECT_TRUE(bitwise_equal(held, reference)) << label;
        EXPECT_GT(net->total_spikes(), 0) << label << ": the parity check needs spikes";
      }
    }
  }
}

TEST(HeldCurrentTest, FirstSynapseRunsOncePerEvalSequence) {
  constexpr std::int64_t kBatch = 4;
  constexpr std::int64_t kSteps = 3;
  for (const Arch& arch : all_archs()) {
    const Tensor images = arch.input(kBatch, 5);
    auto net = arch.net(all_dynamics()[0], kSteps);
    net->forward(images, /*train=*/false);
    EXPECT_EQ(first_layer_samples(*net), kBatch) << arch.name << " eval";
    net->forward(images, /*train=*/false);
    EXPECT_EQ(first_layer_samples(*net), 2 * kBatch) << arch.name << " second eval";

    net->reset_stats();
    net->forward(images, /*train=*/true);
    EXPECT_EQ(first_layer_samples(*net), kSteps * kBatch) << arch.name << " train";

    net->reset_stats();
    net->set_encoding(Encoding::kPoisson, /*seed=*/3);
    net->forward(images, /*train=*/false);
    EXPECT_EQ(first_layer_samples(*net), kSteps * kBatch) << arch.name << " Poisson";
  }
}

TEST(HeldCurrentTest, HeldCurrentNeverOutlivesItsSequence) {
  for (const Arch& arch : all_archs()) {
    for (const Dynamics& d : all_dynamics()) {
      const std::string label = arch.name + " " + d.name;
      const Tensor a = arch.input(4, 21);
      const Tensor b = arch.input(4, 22);
      const Tensor b_small = arch.input(2, 23);
      auto fresh = arch.net(d, 3);
      const Tensor expected_b = fresh->forward(b, false);
      auto fresh_small = arch.net(d, 3);
      const Tensor expected_small = fresh_small->forward(b_small, false);

      auto replica = arch.net(d, 3);
      replica->forward(a, false);
      EXPECT_TRUE(bitwise_equal(replica->forward(b, false), expected_b)) << label;
      // A new batch size and a reset in between change nothing either.
      EXPECT_TRUE(bitwise_equal(replica->forward(b_small, false), expected_small)) << label;
      replica->reset_state();
      EXPECT_TRUE(bitwise_equal(replica->forward(b, false), expected_b)) << label;
      // Neither does a training sequence, which runs the synapse every step.
      replica->forward(a, true);
      EXPECT_TRUE(bitwise_equal(replica->forward(b, false), expected_b)) << label;
    }
  }
}

TEST(HeldCurrentTest, OnlyAnEvalStepAfterHoldInputHoldsTheCurrent) {
  // A neuron-free 1 -> 1 linear layer with weight 1 returns its input.
  SynapticLayer layer(Synapse(Tensor({1, 1}, 1.0F)), std::nullopt);
  const Tensor one({1, 1}, 1.0F);
  const Tensor two({1, 1}, 2.0F);
  layer.begin_sequence({1, 1}, 2, /*train=*/false);
  layer.hold_input(true);
  EXPECT_FLOAT_EQ(layer.step_forward(one, 0, false)[0], 1.0F);
  EXPECT_FLOAT_EQ(layer.step_forward(two, 1, false)[0], 1.0F) << "held";
  // begin_sequence forgets the hold.
  layer.begin_sequence({1, 1}, 2, /*train=*/false);
  EXPECT_FLOAT_EQ(layer.step_forward(one, 0, false)[0], 1.0F);
  EXPECT_FLOAT_EQ(layer.step_forward(two, 1, false)[0], 2.0F) << "forgotten";
  // Training runs the synapse every step even when told the input repeats.
  layer.begin_sequence({1, 1}, 2, /*train=*/true);
  layer.hold_input(true);
  EXPECT_FLOAT_EQ(layer.step_forward(one, 0, true)[0], 1.0F);
  EXPECT_FLOAT_EQ(layer.step_forward(two, 1, true)[0], 2.0F) << "train";
}

/// Per-element IF step with the leak product rounded on its own (the
/// volatile keeps the compiler from fusing it into a multiply-add).
void scalar_if_step(const Dynamics& d, float v_th, float beta, std::vector<float>& mem,
                    const Tensor& current, std::vector<float>& spikes,
                    std::int64_t& count) {
  for (std::size_t i = 0; i < mem.size(); ++i) {
    volatile float leaked = d.leak * mem[i];
    const float u = leaked + current[static_cast<std::int64_t>(i)];
    if (u > v_th) {
      spikes[i] = beta * v_th;
      mem[i] = d.reset == ResetMode::kSubtract ? u - v_th : 0.0F;
      ++count;
    } else {
      spikes[i] = 0.0F;
      mem[i] = u;
    }
  }
}

TEST(HeldCurrentTest, IfUpdateIsBitwiseThePerElementDynamics) {
  constexpr std::int64_t kSteps = 4;
  const Shape shape = {3, 37};  // not a multiple of any vector width
  for (const Dynamics& d : all_dynamics()) {
    for (const bool train : {false, true}) {
      const std::string label = d.name + (train ? " train" : " eval");
      IfConfig config = neuron(d);
      config.beta = 1.25F;
      IfNeuron n(config);
      n.begin_sequence(shape, kSteps, train);
      std::vector<float> mem(static_cast<std::size_t>(shape_numel(shape)), 0.0F);
      std::vector<float> spikes(mem.size());
      std::int64_t count = 0;
      Rng rng(31);
      for (std::int64_t t = 0; t < kSteps; ++t) {
        const Tensor current = random_tensor(shape, -0.4F, 0.9F, rng);
        const Tensor got = n.step_forward(current, t, train);
        scalar_if_step(d, config.v_threshold, config.beta, mem, current, spikes, count);
        ASSERT_EQ(std::memcmp(got.data(), spikes.data(), spikes.size() * sizeof(float)), 0)
            << label << " spikes, step " << t;
        ASSERT_EQ(std::memcmp(n.membrane().data(), mem.data(), mem.size() * sizeof(float)),
                  0)
            << label << " membrane, step " << t;
      }
      EXPECT_EQ(n.spikes_emitted(), count) << label;
      EXPECT_GT(count, 0) << label;
    }
  }
}

}  // namespace
}  // namespace ullsnn::snn
