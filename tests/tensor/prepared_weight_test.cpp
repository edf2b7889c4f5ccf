// Prepared weight operands (`ctest -L kernels`): the prepared forms of the
// spiking conv/linear kernels are bitwise identical to the per-call forms,
// and the operand lifetime rule holds — an owned weight's operand never
// outlives a sequence (in-place writes show up in the next forward), while a
// borrowed weight's operand, shared by every artifact replica, keeps serving
// after the kernel plan changes under it.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/artifact/artifact.h"
#include "src/snn/snn_network.h"
#include "src/snn/spiking_layers.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace ullsnn {
namespace {

class IsaGuard {
 public:
  IsaGuard() : entry_(active_kernel_isa()) {}
  ~IsaGuard() { set_kernel_isa_for_testing(entry_); }

 private:
  KernelIsa entry_;
};

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Rows alternate between nonnegative analog values and all zeros, so a
/// batch holds dense and sparse samples side by side.
Tensor mixed_batch(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  const std::int64_t per_row = t.numel() / t.dim(0);
  for (std::int64_t r = 0; r < t.dim(0); r += 2) {
    for (std::int64_t i = 0; i < per_row; ++i) t[r * per_row + i] = rng.uniform();
  }
  return t;
}

Tensor random_weight(Shape shape, Rng& rng) {
  Tensor w(std::move(shape));
  uniform_fill(w, -0.5F, 0.5F, rng);
  return w;
}

TEST(PreparedWeightTest, ConvMatchesPerCallFormBitwise) {
  const Conv2dSpec spec{3, 40, 3, 1, 1};
  Rng rng(5);
  const Tensor weight = random_weight({40, 3, 3, 3}, rng);
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const PreparedWeight prepared(weight.data(), 40, 27, precision);
    QuantizedPackedB qpacked;
    if (precision == Precision::kInt8) {
      qpacked.pack(quantize_weight_per_row(weight.data(), 40, 27));
    }
    for (const std::int64_t batch : {1, 3, 8}) {
      const Tensor input = mixed_batch({batch, 3, 9, 9}, rng);
      Tensor want({batch, 40, 9, 9});
      Tensor got({batch, 40, 9, 9});
      std::vector<float> wt_cache;
      SpikeKernelStats want_stats;
      SpikeKernelStats got_stats;
      conv2d_forward_spiking(input, weight, want, spec, kDefaultSpikeDensityThreshold,
                             wt_cache, want_stats,
                             precision == Precision::kInt8 ? &qpacked : nullptr);
      conv2d_forward_spiking(input, prepared, got, spec, kDefaultSpikeDensityThreshold,
                             precision, got_stats);
      EXPECT_TRUE(bitwise_equal(got, want)) << to_string(precision) << " b" << batch;
      EXPECT_EQ(got_stats.dense_samples, want_stats.dense_samples);
      EXPECT_EQ(got_stats.sparse_samples, want_stats.sparse_samples);
      EXPECT_EQ(got_stats.nonzeros, want_stats.nonzeros);
    }
  }
}

TEST(PreparedWeightTest, LinearMatchesPerCallFormBitwise) {
  Rng rng(6);
  // Dense batches take the blocked GEMM at every shape and batch size here;
  // zero batches take the sparse kernel.
  for (const Shape& wshape : {Shape{10, 512}, Shape{200, 96}}) {
    const Tensor weight = random_weight(wshape, rng);
    const std::int64_t out = wshape[0];
    const std::int64_t in = wshape[1];
    for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
      const PreparedWeight prepared(weight.data(), out, in, precision);
      QuantizedPackedB qpacked;
      if (precision == Precision::kInt8) {
        qpacked.pack(quantize_weight_per_row(weight.data(), out, in));
      }
      for (const std::int64_t batch : {1, 3, 8}) {
        // Whole-batch dispatch: an analog batch runs dense, a zero one sparse.
        for (const bool sparse : {false, true}) {
          Tensor input({batch, in});
          if (!sparse) uniform_fill(input, 0.0F, 1.0F, rng);
          Tensor want({batch, out});
          Tensor got({batch, out});
          std::vector<float> wt_cache;
          SpikeKernelStats stats;
          linear_forward_spiking(input, weight, want, kDefaultSpikeDensityThreshold,
                                 wt_cache, stats,
                                 precision == Precision::kInt8 ? &qpacked : nullptr);
          linear_forward_spiking(input, weight, prepared, got,
                                 kDefaultSpikeDensityThreshold, precision, stats);
          EXPECT_TRUE(bitwise_equal(got, want))
              << to_string(precision) << " " << out << "x" << in << " b" << batch
              << (sparse ? " sparse" : " dense");
        }
      }
    }
  }
}

TEST(PreparedWeightTest, DenseLinearRowIsBitwiseTheSameAloneOrInABatch) {
  IsaGuard guard;
  Rng rng(9);
  constexpr std::int64_t kBatch = 8;
  // fc0 (64 -> 512) and fc2 (512 -> 10) of the served VGG-11.
  for (const Shape& wshape : {Shape{512, 64}, Shape{10, 512}}) {
    const Tensor weight = random_weight(wshape, rng);
    const std::int64_t out = wshape[0];
    const std::int64_t in = wshape[1];
    Tensor batch({kBatch, in});
    uniform_fill(batch, 0.0F, 1.0F, rng);  // no zeros: every call runs dense
    for (const KernelIsa isa : supported_kernel_isas()) {
      set_kernel_isa_for_testing(isa);
      const std::string label = std::string(to_string(isa)) + " " +
                                std::to_string(out) + "x" + std::to_string(in);
      const PreparedWeight prepared(weight.data(), out, in, Precision::kFp32);
      ASSERT_NE(prepared.fp32_panels(), nullptr) << label;
      SpikeKernelStats stats;
      std::vector<float> wt_cache;
      Tensor together({kBatch, out});
      Tensor together_per_call({kBatch, out});
      linear_forward_spiking(batch, weight, prepared, together,
                             kDefaultSpikeDensityThreshold, Precision::kFp32, stats);
      linear_forward_spiking(batch, weight, together_per_call,
                             kDefaultSpikeDensityThreshold, wt_cache, stats);
      EXPECT_TRUE(bitwise_equal(together_per_call, together)) << label;
      for (std::int64_t r = 0; r < kBatch; ++r) {
        Tensor row({1, in});
        std::memcpy(row.data(), batch.data() + r * in,
                    static_cast<std::size_t>(in) * sizeof(float));
        Tensor alone({1, out});
        Tensor alone_per_call({1, out});
        linear_forward_spiking(row, weight, prepared, alone,
                               kDefaultSpikeDensityThreshold, Precision::kFp32, stats);
        linear_forward_spiking(row, weight, alone_per_call,
                               kDefaultSpikeDensityThreshold, wt_cache, stats);
        EXPECT_EQ(std::memcmp(alone.data(), together.data() + r * out,
                              static_cast<std::size_t>(out) * sizeof(float)),
                  0)
            << label << " row " << r;
        EXPECT_TRUE(bitwise_equal(alone_per_call, alone)) << label << " row " << r;
      }
      EXPECT_EQ(stats.sparse_samples, 0) << label;
      EXPECT_EQ(stats.dense_samples, 4 * kBatch) << label;
    }
  }
}

TEST(PreparedWeightTest, Int8RequiresInt8Panels) {
  Rng rng(7);
  const Tensor weight = random_weight({8, 16}, rng);
  const PreparedWeight prepared(weight.data(), 8, 16, Precision::kFp32);
  EXPECT_EQ(prepared.int8_panels(), nullptr);
  Tensor input({2, 16}, 1.0F);
  Tensor out({2, 8});
  SpikeKernelStats stats;
  EXPECT_THROW(linear_forward_spiking(input, weight, prepared, out, 0.1F,
                                      Precision::kInt8, stats),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Lifetime rule.
// ---------------------------------------------------------------------------

snn::IfConfig if_config() {
  snn::IfConfig c;
  c.v_threshold = 0.4F;
  return c;
}

/// One eval sequence of `layer` at T = 2 on `input`; returns the last step.
Tensor eval_sequence(snn::SpikingLayer& layer, const Tensor& input) {
  layer.begin_sequence(input.shape(), 2, /*train=*/false);
  layer.step_forward(input, 0, false);
  return layer.step_forward(input, 1, false);
}

TEST(PreparedWeightLifetimeTest, InPlaceConvWeightWriteShowsInNextSequence) {
  Rng rng(8);
  const Conv2dSpec spec{2, 4, 3, 1, 1};
  const Tensor weight = random_weight({4, 2, 3, 3}, rng);
  const Tensor input = mixed_batch({2, 2, 6, 6}, rng);
  snn::SynapticLayer layer(snn::Synapse(weight, spec), if_config());
  eval_sequence(layer, input);
  ASSERT_NE(layer.synapse().prepared_weight(), nullptr);

  // Write the owned weight in place (no detach, no reassignment), as an
  // optimizer step does, then run the next sequence.
  Tensor& w = layer.synapse().weight().value;
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = -w[i] * 2.0F;
  layer.reset_stats();
  const Tensor got = eval_sequence(layer, input);

  Tensor written = weight;
  for (std::int64_t i = 0; i < written.numel(); ++i) written[i] = -written[i] * 2.0F;
  snn::SynapticLayer fresh(snn::Synapse(written, spec), if_config());
  EXPECT_TRUE(bitwise_equal(got, eval_sequence(fresh, input)))
      << "the next sequence served the operand of the old weight";
}

TEST(PreparedWeightLifetimeTest, InPlaceLinearWeightWriteShowsAtInt8) {
  Rng rng(9);
  const Tensor weight = random_weight({12, 40}, rng);
  Tensor input({3, 40});
  uniform_fill(input, 0.0F, 1.0F, rng);  // dense: runs the int8 kernel
  snn::SynapticLayer layer(snn::Synapse(weight), std::nullopt);
  layer.set_precision(Precision::kInt8);
  const Tensor before = eval_sequence(layer, input);
  ASSERT_NE(layer.synapse().prepared_weight(), nullptr);
  ASSERT_NE(layer.synapse().prepared_weight()->int8_panels(), nullptr)
      << "the layer should have derived its own int8 panels";

  Tensor& w = layer.synapse().weight().value;
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = 0.5F - w[i];
  const Tensor got = eval_sequence(layer, input);

  Tensor written = weight;
  for (std::int64_t i = 0; i < written.numel(); ++i) written[i] = 0.5F - written[i];
  snn::SynapticLayer fresh(snn::Synapse(written), std::nullopt);
  fresh.set_precision(Precision::kInt8);
  const Tensor want = eval_sequence(fresh, input);
  EXPECT_TRUE(bitwise_equal(got, want))
      << "the next sequence served the int8 panels of the old weight";
  EXPECT_FALSE(bitwise_equal(got, before));
}

// ---------------------------------------------------------------------------
// Kernel plan switch after an artifact has prepared its operands.
// ---------------------------------------------------------------------------

std::unique_ptr<snn::SnnNetwork> make_net() {
  Rng rng(21);
  auto net = std::make_unique<snn::SnnNetwork>(3);
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(random_weight({24, 3, 3, 3}, rng), Conv2dSpec{3, 24, 3, 1, 1}),
      if_config());
  net->emplace<snn::SpikingMaxPool>(Pool2dSpec{2, 2});
  net->emplace<snn::SpikingFlatten>();
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(random_weight({40, 24 * 16}, rng)), if_config());
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(random_weight({10, 40}, rng)), std::nullopt);
  return net;
}

TEST(PreparedWeightLifetimeTest, ArtifactKeepsServingAfterKernelPlanSwitch) {
  IsaGuard guard;
  Rng rng(22);
  const Tensor batch = mixed_batch({8, 3, 8, 8}, rng);
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const std::string path = testing::TempDir() + "/prepared_plan_switch_" +
                             to_string(precision) + ".art";
    auto source = make_net();
    artifact::PackOptions options;
    options.input_shape = {3, 8, 8};
    options.precision = precision;
    artifact::pack_network(*source, path, options);
    source->set_precision(precision);

    // Operands are prepared under the entry plan, at load.
    const auto art = artifact::UllsnnArtifact::load(path);
    auto replica = art->make_network();
    replica->reset_state();
    const Tensor entry_logits = replica->forward(batch, false);

    for (const KernelIsa isa : supported_kernel_isas()) {
      set_kernel_isa_for_testing(isa);
      replica->reset_state();
      Tensor got;
      ASSERT_NO_THROW(got = replica->forward(batch, false)) << to_string(isa);
      // The live network packs under the forced plan on first use.
      source->reset_state();
      const Tensor live = source->forward(batch, false);
      EXPECT_TRUE(bitwise_equal(got, live)) << to_string(precision) << " " << to_string(isa);
      if (precision == Precision::kInt8) {
        EXPECT_TRUE(bitwise_equal(got, entry_logits)) << to_string(isa);
      } else {
        EXPECT_TRUE(got.allclose(entry_logits, 1e-4F)) << to_string(isa);
      }
    }
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace ullsnn
