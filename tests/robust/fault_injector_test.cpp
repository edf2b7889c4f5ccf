// FaultInjector determinism and fault-taxonomy semantics.
#include "src/robust/fault_injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>

#include "src/snn/spiking_layers.h"
#include "src/snn/snn_network.h"

namespace ullsnn::robust {
namespace {

std::uint32_t float_bits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, 4);
  return bits;
}

Tensor ramp_tensor(const Shape& shape) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = 0.5F + 0.01F * static_cast<float>(i);
  }
  return t;
}

TEST(FaultInjectorTest, InvalidRatesRejected) {
  EXPECT_THROW(FaultInjector(FaultSpec{.weight_bitflip_rate = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector(FaultSpec{.stuck_at_zero_rate = 1.5}),
               std::invalid_argument);
}

TEST(FaultInjectorTest, ZeroRateIsNoOp) {
  FaultInjector injector(FaultSpec{});
  Tensor t = ramp_tensor({64});
  const Tensor before = t;
  EXPECT_EQ(injector.inject_tensor(t, 0.0), 0);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], before[i]);
  EXPECT_EQ(injector.faults_injected(), 0);
}

TEST(FaultInjectorTest, SameSeedReproducesSameFaults) {
  Tensor a = ramp_tensor({256});
  Tensor b = a;
  FaultInjector ia(FaultSpec{.seed = 42});
  FaultInjector ib(FaultSpec{.seed = 42});
  const std::int64_t flips_a = ia.inject_tensor(a, 0.25);
  const std::int64_t flips_b = ib.inject_tensor(b, 0.25);
  EXPECT_EQ(flips_a, flips_b);
  EXPECT_GT(flips_a, 0);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(float_bits(a[i]), float_bits(b[i])) << "element " << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  Tensor a = ramp_tensor({256});
  Tensor b = a;
  FaultInjector(FaultSpec{.seed = 1}).inject_tensor(a, 0.25);
  FaultInjector(FaultSpec{.seed = 2}).inject_tensor(b, 0.25);
  bool any_diff = false;
  for (std::int64_t i = 0; i < a.numel() && !any_diff; ++i) {
    any_diff = a[i] != b[i] || (std::isnan(a[i]) != std::isnan(b[i]));
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjectorTest, BitflipChangesExactlyOneBitPerFault) {
  Tensor t = ramp_tensor({512});
  const Tensor before = t;
  FaultInjector injector(FaultSpec{.seed = 3});
  const std::int64_t flips = injector.inject_tensor(t, 0.1);
  ASSERT_GT(flips, 0);
  std::int64_t changed = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const std::uint32_t diff = float_bits(before[i]) ^ float_bits(t[i]);
    if (diff != 0) {
      ++changed;
      EXPECT_EQ(diff & (diff - 1), 0U) << "more than one bit flipped at " << i;
    }
  }
  EXPECT_EQ(changed, flips);
  EXPECT_EQ(injector.faults_injected(), flips);
}

TEST(FaultInjectorTest, SignOnlyFlipsOnlyTheSignBit) {
  Tensor t = ramp_tensor({512});
  const Tensor before = t;
  FaultInjector injector(FaultSpec{.seed = 4});
  const std::int64_t flips = injector.inject_tensor(t, 0.2, /*sign_only=*/true);
  ASSERT_GT(flips, 0);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (t[i] != before[i]) {
      EXPECT_FLOAT_EQ(t[i], -before[i]) << "element " << i;
    }
  }
}

TEST(FaultInjectorTest, StuckAtZeroZeroesWholeRows) {
  dnn::Param weight{"w", ramp_tensor({8, 16}), Tensor({8, 16}, 0.0F), true};
  dnn::Param bias{"b", ramp_tensor({8}), Tensor({8}, 0.0F), false};
  FaultSpec spec;
  spec.stuck_at_zero_rate = 0.5;
  spec.seed = 5;
  FaultInjector injector(spec);
  const std::int64_t dead = injector.inject({&weight, &bias});
  ASSERT_GT(dead, 0);
  std::int64_t dead_rows = 0;
  for (std::int64_t r = 0; r < 8; ++r) {
    bool all_zero = true;
    bool any_zero = false;
    for (std::int64_t c = 0; c < 16; ++c) {
      const bool zero = weight.value[r * 16 + c] == 0.0F;
      all_zero = all_zero && zero;
      any_zero = any_zero || zero;
    }
    EXPECT_EQ(all_zero, any_zero) << "row " << r << " partially zeroed";
    if (all_zero) ++dead_rows;
  }
  EXPECT_EQ(dead_rows, dead);
  // Rank-1 params have no row structure: the bias must be untouched.
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_NE(bias.value[i], 0.0F);
}

TEST(FaultInjectorTest, CorruptByteXorsChosenByte) {
  const std::string path = testing::TempDir() + "/ullsnn_corrupt_byte.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const char bytes[4] = {0x10, 0x20, 0x30, 0x40};
    out.write(bytes, 4);
  }
  FaultInjector::corrupt_byte(path, 2, 0xFF);
  std::ifstream in(path, std::ios::binary);
  char bytes[4];
  in.read(bytes, 4);
  EXPECT_EQ(bytes[0], 0x10);
  EXPECT_EQ(bytes[1], 0x20);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0x30 ^ 0xFF);
  EXPECT_EQ(bytes[3], 0x40);
  EXPECT_THROW(FaultInjector::corrupt_byte(path, 4, 0x01), std::out_of_range);
  EXPECT_THROW(FaultInjector::corrupt_byte(path, 0, 0x00), std::invalid_argument);
  EXPECT_THROW(FaultInjector::corrupt_byte(path + ".missing", 0, 0x01),
               std::runtime_error);
  std::filesystem::remove(path);
}

// ---- membrane faults via the SnnNetwork step hook ----

std::unique_ptr<snn::SnnNetwork> tiny_snn(std::int64_t time_steps) {
  auto net = std::make_unique<snn::SnnNetwork>(time_steps);
  Rng rng(21);
  snn::IfConfig neuron;
  neuron.v_threshold = 1.0F;
  net->emplace<snn::SpikingFlatten>();
  Tensor w1({16, 3 * 8 * 8});
  normal_fill(w1, 0.0F, 0.1F, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(w1), neuron);
  Tensor w2({3, 16});
  normal_fill(w2, 0.0F, 0.3F, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(w2), std::nullopt);
  return net;
}

TEST(FaultInjectorTest, MembraneFaultsPerturbLogits) {
  auto net = tiny_snn(4);
  Tensor images({2, 3, 8, 8});
  Rng rng(33);
  normal_fill(images, 0.0F, 1.0F, rng);
  const Tensor clean = net->forward(images, /*train=*/false);

  FaultSpec spec;
  spec.membrane_bitflip_rate = 0.5;
  spec.seed = 6;
  FaultInjector injector(spec);
  injector.attach_membrane_faults(*net);
  const Tensor faulty = net->forward(images, /*train=*/false);
  EXPECT_GT(injector.faults_injected(), 0);
  bool any_diff = false;
  for (std::int64_t i = 0; i < clean.numel() && !any_diff; ++i) {
    any_diff = clean[i] != faulty[i];
  }
  EXPECT_TRUE(any_diff) << "membrane faults left the logits untouched";

  // Clearing the hook restores clean, reproducible inference.
  net->clear_step_hook();
  const Tensor clean_again = net->forward(images, /*train=*/false);
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    EXPECT_EQ(clean_again[i], clean[i]) << "element " << i;
  }
}

TEST(FaultInjectorTest, ZeroRateMembraneHookIsTransparent) {
  auto net = tiny_snn(3);
  Tensor images({2, 3, 8, 8});
  Rng rng(34);
  normal_fill(images, 0.0F, 1.0F, rng);
  const Tensor clean = net->forward(images, /*train=*/false);
  FaultInjector injector(FaultSpec{.seed = 7});
  injector.attach_membrane_faults(*net);
  const Tensor hooked = net->forward(images, /*train=*/false);
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    EXPECT_EQ(hooked[i], clean[i]) << "element " << i;
  }
  EXPECT_EQ(injector.faults_injected(), 0);
}

// ---- serving-side faults: worker stalls and slow replicas ----

TEST(FaultInjectorTest, StallAndSlowReplicaSpecsValidated) {
  EXPECT_THROW(FaultInjector(FaultSpec{.stall_rate = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector(FaultSpec{.stall_rate = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(
      FaultInjector(FaultSpec{.stall_ms = std::chrono::milliseconds(-1)}),
      std::invalid_argument);
  EXPECT_THROW(FaultInjector(FaultSpec{.slow_replica_rate = 2.0}),
               std::invalid_argument);
  EXPECT_THROW(FaultInjector(FaultSpec{.slow_replica_factor = 0.5}),
               std::invalid_argument);
}

TEST(FaultInjectorTest, MaybeStallIsNoOpWhenDisabled) {
  FaultInjector no_rate(FaultSpec{.stall_ms = std::chrono::milliseconds(10)});
  FaultInjector no_duration(FaultSpec{.stall_rate = 1.0});
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(no_rate.maybe_stall());
    EXPECT_FALSE(no_duration.maybe_stall());
  }
  EXPECT_EQ(no_rate.faults_injected(), 0);
  EXPECT_EQ(no_duration.faults_injected(), 0);
}

TEST(FaultInjectorTest, MaybeStallFiresDeterministicallyPerSeed) {
  FaultSpec spec;
  spec.stall_rate = 0.5;
  spec.stall_ms = std::chrono::milliseconds(1);
  spec.seed = 77;
  FaultInjector a(spec);
  FaultInjector b(spec);
  std::int64_t fired = 0;
  for (int i = 0; i < 32; ++i) {
    const bool fa = a.maybe_stall();
    EXPECT_EQ(fa, b.maybe_stall()) << "draw " << i;
    fired += fa ? 1 : 0;
  }
  // At rate 0.5 over 32 draws, all-true / all-false means a broken stream.
  EXPECT_GT(fired, 0);
  EXPECT_LT(fired, 32);
  EXPECT_EQ(a.faults_injected(), fired);
  EXPECT_EQ(b.faults_injected(), fired);
}

TEST(FaultInjectorTest, MaybeStallSleepsAtLeastStallMs) {
  FaultSpec spec;
  spec.stall_rate = 1.0;
  spec.stall_ms = std::chrono::milliseconds(5);
  FaultInjector injector(spec);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(injector.maybe_stall());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(5));
}

TEST(FaultInjectorTest, ReplicaSlowdownIsPureStableAndSeedDeterministic) {
  FaultSpec spec;
  spec.slow_replica_rate = 0.5;
  spec.slow_replica_factor = 3.0;
  spec.stall_rate = 0.5;
  spec.stall_ms = std::chrono::milliseconds(1);
  spec.seed = 99;
  FaultInjector injector(spec);
  FaultInjector twin(spec);
  std::int64_t slow = 0;
  std::vector<double> first(64);
  for (std::int64_t w = 0; w < 64; ++w) {
    first[static_cast<std::size_t>(w)] = injector.replica_slowdown(w);
    EXPECT_TRUE(first[static_cast<std::size_t>(w)] == 1.0 ||
                first[static_cast<std::size_t>(w)] == 3.0);
    if (first[static_cast<std::size_t>(w)] == 3.0) ++slow;
  }
  // Pure hash of (seed, index): advancing the shared RNG stream (stall
  // draws) must not move the slow set.
  for (int i = 0; i < 8; ++i) injector.maybe_stall();
  for (std::int64_t w = 0; w < 64; ++w) {
    EXPECT_EQ(injector.replica_slowdown(w), first[static_cast<std::size_t>(w)]);
    EXPECT_EQ(twin.replica_slowdown(w), first[static_cast<std::size_t>(w)]);
  }
  // ~Half the fleet at rate 0.5; neither none nor all.
  EXPECT_GT(slow, 8);
  EXPECT_LT(slow, 56);

  // Disabled configurations always answer 1.0.
  FaultInjector no_slow(FaultSpec{.slow_replica_factor = 3.0});
  EXPECT_EQ(no_slow.replica_slowdown(0), 1.0);
}

}  // namespace
}  // namespace ullsnn::robust
