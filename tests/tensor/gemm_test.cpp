// Kernel-equivalence suite (`ctest -L kernels`): the blocked/packed GEMM,
// the conv paths, the sparse spike kernels, and the arena are all checked
// against the retained naive kernels (and double-precision references)
// across a geometry matrix of odd sizes, strides, pads, and k=1 cases; the
// patch-packed dense conv forward is pinned bitwise to the im2row lowering
// on every kernel tier. Also pins the determinism contract: conv2d_backward gradients
// are bitwise identical at 1 and 4 threads.
#include "src/tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/tensor/arena.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/util/parallel.h"

namespace ullsnn {
namespace {

// Force sizes past the naive-fallback cutoff so the blocked path actually
// runs, and cover edge tiles (sizes not multiples of MR/NR/KC).
struct GemmCase {
  std::int64_t m, k, n;
};

class BlockedGemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(BlockedGemmTest, MatchesNaiveAllVariants) {
  const auto [m, k, n] = GetParam();
  Rng rng(11);
  Tensor a({m, k});
  Tensor b({k, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Tensor expected({m, n});
  matmul_naive(a.data(), b.data(), expected.data(), m, k, n);

  Tensor c({m, n});
  gemm(row_major(a.data(), k), row_major(b.data(), n), c.data(), m, k, n,
       /*accumulate=*/false);
  EXPECT_TRUE(c.allclose(expected, 1e-4F)) << m << "x" << k << "x" << n;

  // Transposed A through the strided view.
  Tensor a_t({k, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) a_t.at(kk, i) = a.at(i, kk);
  }
  Tensor c_at({m, n});
  gemm(transposed(a_t.data(), m), row_major(b.data(), n), c_at.data(), m, k, n,
       /*accumulate=*/false);
  EXPECT_TRUE(c_at.allclose(expected, 1e-4F));

  // Transposed B through the strided view (packing's strided branch).
  Tensor b_t({n, k});
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) b_t.at(j, kk) = b.at(kk, j);
  }
  Tensor c_bt({m, n});
  gemm(row_major(a.data(), k), transposed(b_t.data(), k), c_bt.data(), m, k, n,
       /*accumulate=*/false);
  EXPECT_TRUE(c_bt.allclose(expected, 1e-4F));

  // accumulate=true adds on top of existing C.
  Tensor c2 = c;
  gemm(row_major(a.data(), k), row_major(b.data(), n), c2.data(), m, k, n,
       /*accumulate=*/true);
  Tensor doubled = expected * 2.0F;
  EXPECT_TRUE(c2.allclose(doubled, 2e-4F));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, BlockedGemmTest,
    ::testing::Values(GemmCase{64, 64, 64},      // all full tiles
                      GemmCase{37, 41, 43},      // all-odd edge tiles
                      GemmCase{6, 256, 32},      // exactly one MR x NR column
                      GemmCase{97, 257, 129},    // straddles MC/KC/NC blocks
                      GemmCase{1, 300, 33},      // single-row A
                      GemmCase{128, 1, 64},      // k=1 (degenerate K loop)
                      GemmCase{200, 64, 9}));    // ragged, narrow N

TEST(BlockedGemmTest, PackedBReuseAcrossCalls) {
  Rng rng(12);
  const std::int64_t m = 48, k = 96, n = 64;
  Tensor a1({m, k}), a2({m, k}), b({k, n});
  uniform_fill(a1, -1.0F, 1.0F, rng);
  uniform_fill(a2, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  PackedB packed;
  packed.pack(row_major(b.data(), n), k, n, arena);
  Tensor c1({m, n}), c2({m, n}), e1({m, n}), e2({m, n});
  gemm_packed(row_major(a1.data(), k), packed, c1.data(), m, false);
  gemm_packed(row_major(a2.data(), k), packed, c2.data(), m, false);
  matmul_naive(a1.data(), b.data(), e1.data(), m, k, n);
  matmul_naive(a2.data(), b.data(), e2.data(), m, k, n);
  EXPECT_TRUE(c1.allclose(e1, 1e-4F));
  EXPECT_TRUE(c2.allclose(e2, 1e-4F));
}

TEST(RoutedMatmulTest, LargeShapesTakeBlockedPathAndMatch) {
  // Above the cutoff the public matmul routes to the blocked kernel; the
  // result must still match the naive kernel within float tolerance.
  Rng rng(13);
  const std::int64_t m = 65, k = 70, n = 75;
  Tensor a({m, k}), b({k, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Tensor blocked({m, n}), naive({m, n});
  matmul(a.data(), b.data(), blocked.data(), m, k, n);
  matmul_naive(a.data(), b.data(), naive.data(), m, k, n);
  EXPECT_TRUE(blocked.allclose(naive, 1e-4F));
}

// ---- sparse spike GEMM ----

Tensor spike_matrix(std::int64_t m, std::int64_t k, float density, Rng& rng) {
  Tensor a({m, k});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (rng.uniform(0.0F, 1.0F) < density) a[i] = 1.0F;
  }
  return a;
}

TEST(SpmmTest, MatchesDenseAndCountsNonzeros) {
  Rng rng(14);
  const std::int64_t m = 33, k = 127, n = 41;
  for (const float density : {0.0F, 0.02F, 0.1F, 0.5F}) {
    const Tensor a = spike_matrix(m, k, density, rng);
    Tensor b({k, n});
    uniform_fill(b, -1.0F, 1.0F, rng);
    Tensor expected({m, n});
    matmul_naive(a.data(), b.data(), expected.data(), m, k, n);
    Tensor c({m, n});
    const std::int64_t nnz =
        spmm_row_compressed(a.data(), b.data(), c.data(), m, k, n, false);
    EXPECT_TRUE(c.allclose(expected, 1e-4F)) << "density " << density;
    EXPECT_EQ(nnz, a.count([](float v) { return v != 0.0F; }));
  }
}

TEST(SpmmTest, AccumulateAddsIntoC) {
  Rng rng(15);
  const std::int64_t m = 8, k = 16, n = 8;
  const Tensor a = spike_matrix(m, k, 0.2F, rng);
  Tensor b({k, n});
  uniform_fill(b, -1.0F, 1.0F, rng);
  Tensor c({m, n}, 1.0F);
  spmm_row_compressed(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  Tensor expected({m, n}, 1.0F);
  matmul_naive(a.data(), b.data(), expected.data(), m, k, n, /*accumulate=*/true);
  EXPECT_TRUE(c.allclose(expected, 1e-5F));
}

// ---- spiking dispatch entry points ----

struct SpikeConvCase {
  std::int64_t batch, cin, cout, size, kernel, stride, pad;
  float density;
};

class SpikingConvKernelTest : public ::testing::TestWithParam<SpikeConvCase> {};

TEST_P(SpikingConvKernelTest, SparseAndDenseDispatchAgree) {
  const SpikeConvCase& cc = GetParam();
  Conv2dSpec spec{cc.cin, cc.cout, cc.kernel, cc.stride, cc.pad};
  Rng rng(16);
  Tensor input = spike_matrix(cc.batch, cc.cin * cc.size * cc.size, cc.density, rng)
                     .reshape({cc.batch, cc.cin, cc.size, cc.size});
  Tensor weight({cc.cout, cc.cin, cc.kernel, cc.kernel});
  uniform_fill(weight, -0.5F, 0.5F, rng);
  const std::int64_t o = spec.out_extent(cc.size);

  Tensor expected({cc.batch, cc.cout, o, o});
  conv2d_forward(input, weight, Tensor(), expected, spec);

  // Force the sparse kernel (threshold 1.1 > any density) and the dense
  // kernel (threshold -1) — both must match the reference conv.
  for (const float threshold : {1.1F, -1.0F}) {
    Tensor out({cc.batch, cc.cout, o, o});
    std::vector<float> wt_cache;
    SpikeKernelStats stats;
    conv2d_forward_spiking(input, weight, out, spec, threshold, wt_cache, stats);
    EXPECT_TRUE(out.allclose(expected, 1e-4F))
        << "threshold " << threshold << " geom " << cc.size << "/" << cc.kernel
        << "/" << cc.stride << "/" << cc.pad;
    EXPECT_EQ(stats.nonzeros, input.count([](float v) { return v != 0.0F; }));
    EXPECT_EQ(stats.elements, input.numel());
    EXPECT_EQ(stats.sparse_samples + stats.dense_samples, cc.batch);
    if (threshold > 1.0F) {
      EXPECT_EQ(stats.sparse_samples, cc.batch);
    } else {
      EXPECT_EQ(stats.dense_samples, cc.batch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, SpikingConvKernelTest,
    ::testing::Values(SpikeConvCase{2, 3, 4, 8, 3, 1, 1, 0.1F},
                      SpikeConvCase{1, 2, 3, 7, 3, 2, 1, 0.3F},   // odd + stride
                      SpikeConvCase{2, 4, 2, 5, 1, 1, 0, 0.05F},  // 1x1 kernel
                      SpikeConvCase{1, 2, 2, 9, 5, 2, 2, 0.2F},   // big kernel
                      SpikeConvCase{1, 1, 1, 4, 3, 1, 0, 0.5F},   // no pad
                      SpikeConvCase{2, 2, 5, 6, 3, 3, 0, 0.1F})); // stride 3

TEST(SpikingConvKernelTest, AllZeroInputGivesZeroOutput) {
  Conv2dSpec spec{2, 3, 3, 1, 1};
  Tensor input({2, 2, 6, 6});
  Tensor weight({3, 2, 3, 3});
  Rng rng(17);
  uniform_fill(weight, -0.5F, 0.5F, rng);
  Tensor out({2, 3, 6, 6}, 7.0F);  // pre-filled: must be overwritten
  std::vector<float> wt_cache;
  SpikeKernelStats stats;
  conv2d_forward_spiking(input, weight, out, spec, 0.1F, wt_cache, stats);
  EXPECT_FLOAT_EQ(out.rms(), 0.0F);
  EXPECT_EQ(stats.nonzeros, 0);
  EXPECT_EQ(stats.sparse_samples, 2);
}

TEST(SpikingLinearKernelTest, SparseAndDenseDispatchAgree) {
  Rng rng(18);
  const std::int64_t batch = 5, in = 130, out_f = 37;
  Tensor weight({out_f, in});
  uniform_fill(weight, -0.5F, 0.5F, rng);
  for (const float density : {0.02F, 0.4F}) {
    const Tensor input = spike_matrix(batch, in, density, rng);
    Tensor expected({batch, out_f});
    matmul_bt_naive(input.data(), weight.data(), expected.data(), batch, in, out_f);
    for (const float threshold : {1.1F, -1.0F}) {
      Tensor out({batch, out_f});
      std::vector<float> wt_cache;
      SpikeKernelStats stats;
      linear_forward_spiking(input, weight, out, threshold, wt_cache, stats);
      EXPECT_TRUE(out.allclose(expected, 1e-4F))
          << "density " << density << " threshold " << threshold;
      EXPECT_EQ(stats.nonzeros, input.count([](float v) { return v != 0.0F; }));
      EXPECT_EQ(stats.elements, input.numel());
    }
  }
}

TEST(SpikingLinearKernelTest, WtCacheSurvivesRepeatCallsAndStatsAccumulate) {
  Rng rng(19);
  const std::int64_t batch = 3, in = 64, out_f = 16;
  Tensor weight({out_f, in});
  uniform_fill(weight, -0.5F, 0.5F, rng);
  const Tensor input = spike_matrix(batch, in, 0.05F, rng);
  Tensor expected({batch, out_f});
  matmul_bt_naive(input.data(), weight.data(), expected.data(), batch, in, out_f);
  std::vector<float> wt_cache;
  SpikeKernelStats stats;
  for (int t = 0; t < 3; ++t) {
    Tensor out({batch, out_f});
    linear_forward_spiking(input, weight, out, 1.0F, wt_cache, stats);
    EXPECT_TRUE(out.allclose(expected, 1e-4F)) << "step " << t;
  }
  EXPECT_EQ(stats.elements, 3 * batch * in);
  EXPECT_EQ(stats.nonzeros, 3 * input.count([](float v) { return v != 0.0F; }));
}

// ---- im2row / row2im ----

TEST(Im2rowTest, AgreesWithIndexFormula) {
  // rows[(oy*OW + ox)*patch + (c*K + ky)*K + kx] = img[c, oy*s+ky-p, ox*s+kx-p]
  // (0 outside the image), and row2im scatters every entry back there.
  for (const Conv2dSpec spec : {Conv2dSpec{2, 1, 3, 2, 1}, Conv2dSpec{2, 1, 3, 1, 1},
                                Conv2dSpec{2, 1, 5, 1, 2}, Conv2dSpec{2, 1, 1, 2, 0}}) {
    const std::int64_t c_in = spec.in_channels, k = spec.kernel;
    const std::int64_t h = 7, w = 5;
    Rng rng(20);
    Tensor img({1, c_in, h, w});
    uniform_fill(img, -1.0F, 1.0F, rng);
    const std::int64_t oh = spec.out_extent(h), ow = spec.out_extent(w);
    const std::int64_t patch = c_in * k * k;
    std::vector<float> rows(static_cast<std::size_t>(oh * ow * patch), 7.0F);
    im2row(img.data(), rows.data(), c_in, h, w, spec);
    Tensor expected_back({1, c_in, h, w});
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        for (std::int64_t c = 0; c < c_in; ++c) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = oy * spec.stride + ky - spec.pad;
              const std::int64_t ix = ox * spec.stride + kx - spec.pad;
              const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
              const float v = inside ? img.at(0, c, iy, ix) : 0.0F;
              const float r = rows[static_cast<std::size_t>(
                  (oy * ow + ox) * patch + (c * k + ky) * k + kx)];
              EXPECT_EQ(r, v) << "k" << k << " s" << spec.stride << " p" << spec.pad;
              if (inside) expected_back.at(0, c, iy, ix) += r;
            }
          }
        }
      }
    }
    Tensor back({1, c_in, h, w});
    row2im(rows.data(), back.data(), c_in, h, w, spec);
    EXPECT_TRUE(back.allclose(expected_back, 1e-6F));
  }
}

// ---- determinism ----

class ThreadGuard {
 public:
  ~ThreadGuard() { set_num_threads(1); }
};

/// RAII: restore the entry kernel tier after a forced-tier test.
class IsaGuard {
 public:
  IsaGuard() : entry_(active_kernel_isa()) {}
  ~IsaGuard() { set_kernel_isa_for_testing(entry_); }

 private:
  KernelIsa entry_;
};

TEST(DeterminismTest, ConvBackwardBitwiseIdentical1v4Threads) {
  ThreadGuard guard;
  Rng rng(21);
  Conv2dSpec spec{3, 8, 3, 1, 1};
  Tensor input({6, 3, 12, 12});
  Tensor weight({8, 3, 3, 3});
  Tensor grad_output({6, 8, 12, 12});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.5F, 0.5F, rng);
  uniform_fill(grad_output, -1.0F, 1.0F, rng);
  Tensor bias_grad1({8}), bias_grad4({8});

  set_num_threads(1);
  Tensor gi1(input.shape()), gw1(weight.shape());
  conv2d_backward(input, weight, grad_output, &gi1, gw1, &bias_grad1, spec);

  set_num_threads(4);
  Tensor gi4(input.shape()), gw4(weight.shape());
  conv2d_backward(input, weight, grad_output, &gi4, gw4, &bias_grad4, spec);

  // Bitwise, not approximate: fixed-order per-sample reduction.
  for (std::int64_t i = 0; i < gw1.numel(); ++i) EXPECT_EQ(gw1[i], gw4[i]) << i;
  for (std::int64_t i = 0; i < gi1.numel(); ++i) EXPECT_EQ(gi1[i], gi4[i]) << i;
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(bias_grad1[i], bias_grad4[i]);
}

TEST(DeterminismTest, SpikingConvBitwiseIdentical1v4Threads) {
  ThreadGuard guard;
  Rng rng(22);
  Conv2dSpec spec{2, 4, 3, 1, 1};
  Tensor input = spike_matrix(6, 2 * 10 * 10, 0.05F, rng).reshape({6, 2, 10, 10});
  Tensor weight({4, 2, 3, 3});
  uniform_fill(weight, -0.5F, 0.5F, rng);

  set_num_threads(1);
  Tensor out1({6, 4, 10, 10});
  std::vector<float> cache1;
  SpikeKernelStats stats1;
  conv2d_forward_spiking(input, weight, out1, spec, 0.1F, cache1, stats1);

  set_num_threads(4);
  Tensor out4({6, 4, 10, 10});
  std::vector<float> cache4;
  SpikeKernelStats stats4;
  conv2d_forward_spiking(input, weight, out4, spec, 0.1F, cache4, stats4);

  for (std::int64_t i = 0; i < out1.numel(); ++i) EXPECT_EQ(out1[i], out4[i]) << i;
  EXPECT_EQ(stats1.nonzeros, stats4.nonzeros);
  EXPECT_EQ(stats1.sparse_samples, stats4.sparse_samples);
}

// ---- patch-packed dense conv ----

/// The im2row lowering the dense conv forwards used to run, as the bitwise
/// reference: per sample, out_t = im2row(x) * W^T through gemm_packed (or
/// gemm_packed_int8 against `int8` when given), then
/// out[co, p] = out_t[p, co] + bias[co] (+ 0 without a bias, as the kernels
/// add it).
Tensor im2row_gemm_conv(const Tensor& input, const Tensor& weight, const float* bias,
                        const Conv2dSpec& spec,
                        const QuantizedPackedB* int8 = nullptr) {
  const std::int64_t batch = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = spec.out_extent(h), ow = spec.out_extent(w), ohw = oh * ow;
  const std::int64_t cout = spec.out_channels;
  const std::int64_t patch = spec.in_channels * spec.kernel * spec.kernel;
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  PackedB wt;
  wt.pack(transposed(weight.data(), patch), patch, cout, arena);
  std::vector<float> rows(static_cast<std::size_t>(ohw * patch));
  std::vector<float> out_t(static_cast<std::size_t>(ohw * cout));
  Tensor out({batch, cout, oh, ow});
  for (std::int64_t n = 0; n < batch; ++n) {
    im2row(input.data() + n * spec.in_channels * h * w, rows.data(), spec.in_channels,
           h, w, spec);
    if (int8 != nullptr) {
      gemm_packed_int8(row_major(rows.data(), patch), *int8, out_t.data(), ohw,
                       /*accumulate=*/false);
    } else {
      gemm_packed(row_major(rows.data(), patch), wt, out_t.data(), ohw,
                  /*accumulate=*/false);
    }
    for (std::int64_t co = 0; co < cout; ++co) {
      const float b = bias != nullptr ? bias[co] : 0.0F;
      for (std::int64_t p = 0; p < ohw; ++p) {
        out[(n * cout + co) * ohw + p] = out_t[static_cast<std::size_t>(p * cout + co)] + b;
      }
    }
  }
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class PatchPackedConvTest : public ::testing::TestWithParam<KernelIsa> {};

/// Dense fp32 conv samples that ran with the output pixels on the vector lanes.
std::int64_t pixels_on_lanes_samples() {
  return obs::Registry::instance().counter("kernel.conv.pixels_on_lanes").value();
}

TEST_P(PatchPackedConvTest, BitwiseEqualToIm2rowGemm) {
  // Every dense conv forward must give exactly the bits of the im2row
  // lowering: conv2d_forward with and without bias, and both dense
  // conv2d_forward_spiking forms at fp32 and at int8. The grid covers
  // kernel {1,3,5} x stride {1,2} x pad {0,1,2} on non-square images, OH*OW
  // not a multiple of the 6-row panel, more than one 96-row block (11x10),
  // and Cin 64 with k 3 (K = 576, three K blocks). At stride 1, output rows
  // of 16 or more pixels (widths 19-23 with Cin 1-3, and 34 with Cin 64) take
  // the int8 quantizer's pixel-vector path, with vectors starting at every
  // row offset within a panel and every length of the last k-quad.
  //
  // fp32 picks its GEMM orientation by shape (conv_pixels_on_lanes), and the
  // grid runs both on every tier: pixels on the lanes (W * P^T) for few
  // channels over many pixels, including OH*OW past one 1024-column B block
  // (40x40), K past one 256 block, stride 2 with pad 0, and output rows
  // shorter than a panel; channels on the lanes (P * W^T) for the rest. Of
  // the served VGG-11's shapes, conv0 (3 -> 8 channels at 32x32) puts the
  // pixels on the lanes on every tier, conv1 (8 -> 16 at 16x16) at NR 32 but
  // not at NR 16, and conv5 (64 -> 64 at 4x4) on no tier. The
  // kernel.conv.pixels_on_lanes counter shows which orientation each call ran.
  struct Geometry {
    std::int64_t cin, cout, h, w;
  };
  std::vector<std::pair<Conv2dSpec, Geometry>> cases;
  for (const std::int64_t k : {1, 3, 5}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t pad : {0, 1, 2}) {
        cases.push_back({Conv2dSpec{3, 20, k, stride, pad}, Geometry{3, 20, 9, 7}});
        cases.push_back({Conv2dSpec{2, 37, k, stride, pad}, Geometry{2, 37, 11, 10}});
        cases.push_back({Conv2dSpec{2, 9, k, stride, pad}, Geometry{2, 9, 6, 21}});
        cases.push_back({Conv2dSpec{1, 5, k, stride, pad}, Geometry{1, 5, 5, 23}});
        cases.push_back({Conv2dSpec{3, 7, k, stride, pad}, Geometry{3, 7, 7, 19}});
      }
    }
  }
  cases.push_back({Conv2dSpec{64, 24, 3, 1, 1}, Geometry{64, 24, 7, 5}});
  cases.push_back({Conv2dSpec{64, 40, 3, 2, 1}, Geometry{64, 40, 6, 9}});
  cases.push_back({Conv2dSpec{64, 16, 3, 1, 1}, Geometry{64, 16, 4, 34}});
  cases.push_back({Conv2dSpec{3, 8, 3, 1, 1}, Geometry{3, 8, 32, 32}});     // conv0
  cases.push_back({Conv2dSpec{8, 16, 3, 1, 1}, Geometry{8, 16, 16, 16}});   // conv1
  cases.push_back({Conv2dSpec{64, 64, 3, 1, 1}, Geometry{64, 64, 4, 4}});   // conv5
  cases.push_back({Conv2dSpec{2, 7, 3, 1, 1}, Geometry{2, 7, 40, 40}});     // 1600 px
  cases.push_back({Conv2dSpec{3, 5, 3, 2, 0}, Geometry{3, 5, 67, 67}});     // 1089 px
  cases.push_back({Conv2dSpec{32, 9, 3, 1, 1}, Geometry{32, 9, 9, 13}});    // K 288
  cases.push_back({Conv2dSpec{31, 10, 3, 2, 0}, Geometry{31, 10, 15, 17}}); // K 279
  IsaGuard isa_guard;
  ThreadGuard thread_guard;
  set_kernel_isa_for_testing(GetParam());
  std::int64_t pixel_cases = 0;
  std::int64_t channel_cases = 0;
  for (const auto& [spec, g] : cases) {
    Rng rng(31);
    Tensor input({3, g.cin, g.h, g.w});
    Tensor weight({g.cout, g.cin, spec.kernel, spec.kernel});
    Tensor bias({g.cout});
    uniform_fill(input, -1.0F, 1.0F, rng);
    uniform_fill(weight, -0.5F, 0.5F, rng);
    uniform_fill(bias, -0.5F, 0.5F, rng);
    const Tensor with_bias = im2row_gemm_conv(input, weight, bias.data(), spec);
    const Tensor no_bias = im2row_gemm_conv(input, weight, nullptr, spec);
    const std::int64_t patch = g.cin * spec.kernel * spec.kernel;
    const PreparedWeight prepared(weight.data(), g.cout, patch, Precision::kFp32);
    const PreparedWeight prepared_int8(weight.data(), g.cout, patch, Precision::kInt8);
    const Tensor int8 =
        im2row_gemm_conv(input, weight, nullptr, spec, prepared_int8.int8_panels());
    const std::int64_t ohw = with_bias.dim(2) * with_bias.dim(3);
    const bool pixels = conv_pixels_on_lanes(g.cout, ohw);
    ++(pixels ? pixel_cases : channel_cases);
    const std::int64_t nr = kernel_plan().fp32_nr;
    if (g.cout == 8 && g.h == 32) {
      EXPECT_TRUE(pixels) << "conv0 at NR " << nr;
    }
    if (g.cout == 16 && g.h == 16) {
      EXPECT_EQ(pixels, nr == 32) << "conv1 at NR " << nr;
    }
    if (g.cout == 64) {
      EXPECT_FALSE(pixels) << "conv5 at NR " << nr;
    }
    // Samples each fp32 call must run with the pixels on the lanes.
    const std::int64_t expected_runs = pixels ? input.dim(0) : 0;
    for (const int threads : {1, 2}) {
      set_num_threads(threads);
      const std::string where = std::string(to_string(GetParam())) + " threads " +
                                std::to_string(threads) + " k" +
                                std::to_string(spec.kernel) + " s" +
                                std::to_string(spec.stride) + " p" +
                                std::to_string(spec.pad) + " cin " +
                                std::to_string(g.cin) + " cout " +
                                std::to_string(g.cout) + " " + std::to_string(g.h) +
                                "x" + std::to_string(g.w);
      Tensor out(with_bias.shape());
      std::int64_t runs = pixels_on_lanes_samples();
      const auto ran = [&] {
        const std::int64_t before = runs;
        runs = pixels_on_lanes_samples();
        return runs - before;
      };
      conv2d_forward(input, weight, bias, out, spec);
      EXPECT_TRUE(bitwise_equal(out, with_bias)) << "conv2d_forward+bias " << where;
      EXPECT_EQ(ran(), expected_runs) << "conv2d_forward+bias " << where;
      conv2d_forward(input, weight, Tensor(), out, spec);
      EXPECT_TRUE(bitwise_equal(out, no_bias)) << "conv2d_forward " << where;
      EXPECT_EQ(ran(), expected_runs) << "conv2d_forward " << where;
      // Threshold -1: every sample takes the dense path.
      SpikeKernelStats stats;
      conv2d_forward_spiking(input, prepared, out, spec, -1.0F, Precision::kFp32, stats);
      EXPECT_TRUE(bitwise_equal(out, no_bias)) << "prepared spiking " << where;
      EXPECT_EQ(ran(), expected_runs) << "prepared spiking " << where;
      std::vector<float> wt_cache;
      conv2d_forward_spiking(input, weight, out, spec, -1.0F, wt_cache, stats);
      EXPECT_TRUE(bitwise_equal(out, no_bias)) << "per-call spiking " << where;
      EXPECT_EQ(ran(), expected_runs) << "per-call spiking " << where;
      conv2d_forward_spiking(input, prepared_int8, out, spec, -1.0F, Precision::kInt8,
                             stats);
      EXPECT_TRUE(bitwise_equal(out, int8)) << "prepared int8 spiking " << where;
      conv2d_forward_spiking(input, weight, out, spec, -1.0F, wt_cache, stats,
                             prepared_int8.int8_panels());
      EXPECT_TRUE(bitwise_equal(out, int8)) << "per-call int8 spiking " << where;
      EXPECT_EQ(ran(), 0) << "int8 " << where;
      EXPECT_EQ(stats.dense_samples, 12);
    }
  }
  EXPECT_GT(pixel_cases, 0);
  EXPECT_GT(channel_cases, 0);
}

INSTANTIATE_TEST_SUITE_P(AllSupportedTiers, PatchPackedConvTest,
                         ::testing::ValuesIn(supported_kernel_isas()),
                         [](const ::testing::TestParamInfo<KernelIsa>& info) {
                           return to_string(info.param);
                         });

// ---- arena ----

TEST(ArenaTest, PointersStableAcrossGrowth) {
  Arena arena;
  float* first = arena.alloc_floats(100);
  first[0] = 42.0F;
  first[99] = 7.0F;
  // Demand far beyond the first chunk: growth must not move live data.
  for (int i = 0; i < 64; ++i) {
    float* p = arena.alloc_floats(1 << 16);
    p[0] = static_cast<float>(i);
  }
  EXPECT_FLOAT_EQ(first[0], 42.0F);
  EXPECT_FLOAT_EQ(first[99], 7.0F);
}

TEST(ArenaTest, ScopeRestoresWatermark) {
  Arena arena;
  arena.alloc_floats(64);
  const std::size_t before = arena.capacity_bytes();
  float* outer = arena.alloc_floats(16);
  outer[0] = 1.0F;
  {
    ArenaScope scope(arena);
    float* inner = arena.alloc_floats(1 << 14);
    inner[0] = 2.0F;
  }
  // After scope exit the next allocation reuses the released space; the
  // pre-scope allocation is untouched.
  float* again = arena.alloc_floats(1 << 14);
  EXPECT_FLOAT_EQ(outer[0], 1.0F);
  again[0] = 3.0F;
  (void)before;
}

TEST(ArenaTest, AlignmentIs64Bytes) {
  Arena arena;
  for (const std::size_t count : {1UL, 3UL, 17UL, 1000UL}) {
    auto p = reinterpret_cast<std::uintptr_t>(arena.alloc_floats(count));
    EXPECT_EQ(p % 64, 0U) << count;
    auto q = reinterpret_cast<std::uintptr_t>(arena.alloc_indices(count));
    EXPECT_EQ(q % 64, 0U) << count;
  }
}

TEST(ArenaTest, ZeroedAllocationIsZero) {
  Arena arena;
  float* dirty = arena.alloc_floats(256);
  for (int i = 0; i < 256; ++i) dirty[i] = 1.0F;
  arena.reset();
  const float* z = arena.alloc_floats_zeroed(256);
  for (int i = 0; i < 256; ++i) EXPECT_FLOAT_EQ(z[i], 0.0F);
}

// ---- pool geometry validation ----

TEST(PoolGeometryTest, ExactTilingAccepted) {
  EXPECT_NO_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 8, 8));
  EXPECT_NO_THROW(validate_pool_geometry(Pool2dSpec{3, 2}, 7, 7));
  EXPECT_NO_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 2, 2));
}

TEST(PoolGeometryTest, TruncatingGeometryRejected) {
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 7, 8), std::invalid_argument);
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 8, 7), std::invalid_argument);
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{3, 2}, 8, 8), std::invalid_argument);
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{4, 2}, 3, 3), std::invalid_argument);
}

}  // namespace
}  // namespace ullsnn
