#include "src/tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/tensor/random.h"
#include "src/util/parallel.h"

namespace ullsnn {
namespace {

/// RAII: back to one pool thread after a test that changes the count.
class ThreadGuard {
 public:
  ~ThreadGuard() { set_num_threads(1); }
};

// Reference O(n^3) matmul for cross-checking the optimized kernels.
void naive_matmul(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class MatmulTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulTest, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(17);
  Tensor a({m, k});
  Tensor b({k, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Tensor expected({m, n});
  naive_matmul(a.data(), b.data(), expected.data(), m, k, n);

  Tensor c({m, n});
  matmul(a.data(), b.data(), c.data(), m, k, n);
  EXPECT_TRUE(c.allclose(expected, 1e-4F));

  // matmul_at: pass a stored as [k, m] such that a_t^T == a.
  Tensor a_t({k, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) a_t.at(kk, i) = a.at(i, kk);
  }
  Tensor c_at({m, n});
  matmul_at(a_t.data(), b.data(), c_at.data(), m, k, n);
  EXPECT_TRUE(c_at.allclose(expected, 1e-4F));

  // matmul_bt: pass b stored as [n, k] such that b_t^T == b.
  Tensor b_t({n, k});
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) b_t.at(j, kk) = b.at(kk, j);
  }
  Tensor c_bt({m, n});
  matmul_bt(a.data(), b_t.data(), c_bt.data(), m, k, n);
  EXPECT_TRUE(c_bt.allclose(expected, 1e-4F));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatmulTest,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 3, 4},
                                           std::tuple{7, 5, 3}, std::tuple{16, 16, 16},
                                           std::tuple{33, 17, 9}, std::tuple{1, 64, 1}));

TEST(MatmulTest, AccumulateAddsIntoC) {
  Tensor a = Tensor::of({1, 2}).reshape({1, 2});
  Tensor b = Tensor::of({3, 4}).reshape({2, 1});
  Tensor c({1, 1}, 10.0F);
  matmul(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c[0], 10.0F + 11.0F);
}

TEST(MatmulTest, TensorOverloadChecksShapes) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  Tensor ok = matmul(Tensor({2, 3}, 1.0F), Tensor({3, 4}, 1.0F));
  EXPECT_EQ(ok.shape(), Shape({2, 4}));
  EXPECT_FLOAT_EQ(ok[0], 3.0F);
}

TEST(Im2rowTest, RoundTripConservesMass) {
  // row2im(im2row(x)) multiplies each pixel by the number of 3x3 windows
  // containing it: 4 at a corner, 6 on an edge, 9 in the centre.
  Conv2dSpec spec;
  spec.in_channels = 1;
  spec.out_channels = 1;
  spec.kernel = 3;
  spec.stride = 1;
  spec.pad = 1;
  Tensor img({1, 1, 3, 3});
  for (std::int64_t i = 0; i < 9; ++i) img[i] = static_cast<float>(i + 1);
  const std::int64_t oh = spec.out_extent(3);
  ASSERT_EQ(oh, 3);
  std::vector<float> rows(static_cast<std::size_t>(9 * 9), 0.0F);
  im2row(img.data(), rows.data(), 1, 3, 3, spec);
  // The centre tap (ky=1,kx=1; column 4) of every row is the image itself.
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(rows[i * 9 + 4], img[i]);
  // Output (0,0)'s top-left tap looks at (-1,-1) -> 0.
  EXPECT_FLOAT_EQ(rows[0], 0.0F);
  // Output (1,1)'s top-left tap looks at pixel (0,0) = 1.
  EXPECT_FLOAT_EQ(rows[4 * 9 + 0], 1.0F);

  Tensor back({1, 1, 3, 3});
  row2im(rows.data(), back.data(), 1, 3, 3, spec);
  EXPECT_FLOAT_EQ(back[0], 4.0F * img[0]);
  EXPECT_FLOAT_EQ(back[1], 6.0F * img[1]);
  EXPECT_FLOAT_EQ(back[4], 9.0F * img[4]);
}

// Direct (no im2row) convolution reference.
void naive_conv(const Tensor& input, const Tensor& weight, Tensor& output,
                const Conv2dSpec& spec) {
  const std::int64_t batch = input.dim(0);
  const std::int64_t height = input.dim(2);
  const std::int64_t width = input.dim(3);
  const std::int64_t oh = spec.out_extent(height);
  const std::int64_t ow = spec.out_extent(width);
  output.fill(0.0F);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t co = 0; co < spec.out_channels; ++co) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::int64_t ci = 0; ci < spec.in_channels; ++ci) {
            for (std::int64_t ky = 0; ky < spec.kernel; ++ky) {
              for (std::int64_t kx = 0; kx < spec.kernel; ++kx) {
                const std::int64_t iy = oy * spec.stride + ky - spec.pad;
                const std::int64_t ix = ox * spec.stride + kx - spec.pad;
                if (iy < 0 || iy >= height || ix < 0 || ix >= width) continue;
                acc += static_cast<double>(input.at(n, ci, iy, ix)) *
                       weight.at(co, ci, ky, kx);
              }
            }
          }
          output.at(n, co, oy, ox) = static_cast<float>(acc);
        }
      }
    }
  }
}

struct ConvCase {
  std::int64_t batch, cin, cout, size, kernel, stride, pad;
};

class ConvTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvTest, ForwardMatchesNaive) {
  const ConvCase& cc = GetParam();
  Conv2dSpec spec{cc.cin, cc.cout, cc.kernel, cc.stride, cc.pad};
  Rng rng(5);
  Tensor input({cc.batch, cc.cin, cc.size, cc.size});
  Tensor weight({cc.cout, cc.cin, cc.kernel, cc.kernel});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.5F, 0.5F, rng);
  const std::int64_t o = spec.out_extent(cc.size);
  Tensor expected({cc.batch, cc.cout, o, o});
  naive_conv(input, weight, expected, spec);
  Tensor actual({cc.batch, cc.cout, o, o});
  conv2d_forward(input, weight, Tensor(), actual, spec);
  EXPECT_TRUE(actual.allclose(expected, 1e-4F));
}

TEST_P(ConvTest, BackwardMatchesFiniteDifference) {
  const ConvCase& cc = GetParam();
  Conv2dSpec spec{cc.cin, cc.cout, cc.kernel, cc.stride, cc.pad};
  Rng rng(6);
  Tensor input({cc.batch, cc.cin, cc.size, cc.size});
  Tensor weight({cc.cout, cc.cin, cc.kernel, cc.kernel});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.5F, 0.5F, rng);
  const std::int64_t o = spec.out_extent(cc.size);
  Tensor out({cc.batch, cc.cout, o, o});

  // Scalar objective: L = sum(conv(x, w) * g) for a fixed random g, so
  // dL/dout = g exactly.
  Tensor g(out.shape());
  uniform_fill(g, -1.0F, 1.0F, rng);

  Tensor grad_input(input.shape());
  Tensor grad_weight(weight.shape());
  conv2d_backward(input, weight, g, &grad_input, grad_weight, nullptr, spec);

  const auto loss = [&](const Tensor& x, const Tensor& w) {
    Tensor y(out.shape());
    conv2d_forward(x, w, Tensor(), y, spec);
    double acc = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      acc += static_cast<double>(y[i]) * g[i];
    }
    return acc;
  };

  const float eps = 1e-2F;
  // Spot-check a handful of coordinates of each gradient.
  for (std::int64_t idx : {std::int64_t{0}, input.numel() / 2, input.numel() - 1}) {
    Tensor xp = input;
    Tensor xm = input;
    xp[idx] += eps;
    xm[idx] -= eps;
    const double fd = (loss(xp, weight) - loss(xm, weight)) / (2.0 * eps);
    EXPECT_NEAR(grad_input[idx], fd, 2e-2) << "input idx " << idx;
  }
  for (std::int64_t idx : {std::int64_t{0}, weight.numel() / 2, weight.numel() - 1}) {
    Tensor wp = weight;
    Tensor wm = weight;
    wp[idx] += eps;
    wm[idx] -= eps;
    const double fd = (loss(input, wp) - loss(input, wm)) / (2.0 * eps);
    EXPECT_NEAR(grad_weight[idx], fd, 2e-2) << "weight idx " << idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvTest,
    ::testing::Values(ConvCase{1, 1, 1, 4, 3, 1, 1}, ConvCase{2, 3, 4, 6, 3, 1, 1},
                      ConvCase{1, 2, 3, 8, 3, 2, 1}, ConvCase{2, 4, 2, 5, 1, 1, 0},
                      ConvCase{1, 2, 2, 7, 5, 2, 2}));

TEST(ConvTest, BiasAddsPerChannel) {
  Conv2dSpec spec{1, 2, 1, 1, 0};
  Tensor input({1, 1, 2, 2}, 0.0F);
  Tensor weight({2, 1, 1, 1}, 0.0F);
  Tensor bias = Tensor::of({1.5F, -2.0F});
  Tensor out({1, 2, 2, 2});
  conv2d_forward(input, weight, bias, out, spec);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 1.5F);
  EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), -2.0F);
}

TEST(PoolTest, MaxPoolForwardAndArgmax) {
  Pool2dSpec spec;  // 2x2 stride 2
  Tensor input({1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  Tensor out({1, 1, 2, 2});
  std::vector<std::int64_t> argmax;
  maxpool2d_forward(input, out, spec, &argmax);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 5.0F);
  EXPECT_FLOAT_EQ(out.at(0, 0, 1, 1), 15.0F);
  EXPECT_EQ(argmax[0], 5);
  EXPECT_EQ(argmax[3], 15);

  Tensor gout({1, 1, 2, 2}, 1.0F);
  Tensor gin({1, 1, 4, 4});
  maxpool2d_backward(gout, argmax, gin);
  EXPECT_FLOAT_EQ(gin[5], 1.0F);
  EXPECT_FLOAT_EQ(gin[0], 0.0F);
  EXPECT_FLOAT_EQ(gin.sum(), 4.0F);
}

TEST(PoolTest, MaxPoolOnNegativeValues) {
  Pool2dSpec spec;
  Tensor input({1, 1, 2, 2});
  input[0] = -5.0F;
  input[1] = -1.0F;
  input[2] = -3.0F;
  input[3] = -2.0F;
  Tensor out({1, 1, 1, 1});
  std::vector<std::int64_t> argmax;
  maxpool2d_forward(input, out, spec, &argmax);
  EXPECT_FLOAT_EQ(out[0], -1.0F);
  EXPECT_EQ(argmax[0], 1);
}

TEST(PoolTest, MaxPoolBackwardSkipsWindowsWithoutMaximum) {
  // A NaN-poisoned activation map (a fault the training health guard must
  // survive until its epoch-end check) has all-NaN windows: they record no
  // argmax and must pass no gradient rather than write out of bounds.
  Pool2dSpec spec;
  Tensor input({1, 1, 2, 4}, std::numeric_limits<float>::quiet_NaN());
  input[2] = 3.0F;  // the second window has a maximum
  Tensor out({1, 1, 1, 2});
  std::vector<std::int64_t> argmax;
  maxpool2d_forward(input, out, spec, &argmax);
  EXPECT_EQ(argmax[0], -1);
  EXPECT_EQ(argmax[1], 2);
  Tensor gin({1, 1, 2, 4}, 7.0F);
  maxpool2d_backward(Tensor({1, 1, 1, 2}, 1.0F), argmax, gin);
  EXPECT_FLOAT_EQ(gin.sum(), 1.0F);
  EXPECT_FLOAT_EQ(gin[2], 1.0F);
}

TEST(PoolTest, MaxPoolWithoutArgmaxIsBitwiseEqual) {
  // Eval pools without index tracking; the values must be the tracked ones.
  // The 2x2 windows along the top of plane 0 hold ties, signed-zero ties,
  // all-negative values, NaN and all -inf; the rest is random and signed,
  // with about one value in eight replaced by NaN, +-0, -inf or a tie. The
  // widths give the 2x2/2 eval body vector tails (3, 9 and 17 outputs per
  // row), every shape has several planes, and each runs serially and
  // plane-parallel. The 3x3/2 pass reuses the input with overlapping windows.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> windows = {{1.0F, 1.0F, 1.0F, 1.0F},
                                                   {-0.0F, 0.0F, 0.0F, -0.0F},
                                                   {-5.0F, -1.0F, -3.0F, -1.0F},
                                                   {nan, 2.0F, nan, -inf},
                                                   {-inf, -inf, -inf, -inf}};
  const std::vector<float> specials = {nan, -0.0F, 0.0F, -inf, 1.0F};
  const std::vector<Shape> shapes = {
      {2, 3, 10, 10}, {3, 5, 6, 6}, {2, 4, 8, 18}, {1, 6, 34, 34}};
  ThreadGuard guard;
  for (const Shape& shape : shapes) {
    Tensor input(shape);
    Rng rng(17);
    uniform_fill(input, -2.0F, 2.0F, rng);
    for (std::int64_t i = 0; i < input.numel(); ++i) {
      if (rng.uniform_int(8) == 0) {
        input[i] = specials[static_cast<std::size_t>(
            rng.uniform_int(static_cast<std::int64_t>(specials.size())))];
      }
    }
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const auto x = static_cast<std::int64_t>(2 * w);
      if (x + 1 >= shape[3]) break;
      input.at(0, 0, 0, x) = windows[w][0];
      input.at(0, 0, 0, x + 1) = windows[w][1];
      input.at(0, 0, 1, x) = windows[w][2];
      input.at(0, 0, 1, x + 1) = windows[w][3];
    }
    for (const Pool2dSpec spec : {Pool2dSpec{2, 2}, Pool2dSpec{3, 2}}) {
      const Shape out_shape = {shape[0], shape[1], spec.out_extent(shape[2]),
                               spec.out_extent(shape[3])};
      set_num_threads(1);
      Tensor tracked(out_shape);
      std::vector<std::int64_t> argmax;
      maxpool2d_forward(input, tracked, spec, &argmax);
      ASSERT_EQ(argmax.size(), static_cast<std::size_t>(tracked.numel()));
      for (const int threads : {1, 2}) {
        set_num_threads(threads);
        Tensor plain(out_shape, 7.0F);
        maxpool2d_forward(input, plain, spec);
        EXPECT_EQ(std::memcmp(tracked.data(), plain.data(),
                              static_cast<std::size_t>(tracked.numel()) * sizeof(float)),
                  0)
            << "kernel " << spec.kernel << " shape " << shape_to_string(shape)
            << " threads " << threads;
      }
    }
  }
}

TEST(PoolTest, AvgPoolForwardBackward) {
  Pool2dSpec spec;
  Tensor input({1, 2, 2, 2});
  for (std::int64_t i = 0; i < 8; ++i) input[i] = static_cast<float>(i);
  Tensor out({1, 2, 1, 1});
  avgpool2d_forward(input, out, spec);
  EXPECT_FLOAT_EQ(out[0], 1.5F);
  EXPECT_FLOAT_EQ(out[1], 5.5F);

  Tensor gout({1, 2, 1, 1}, 4.0F);
  Tensor gin({1, 2, 2, 2});
  avgpool2d_backward(gout, gin, spec);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(gin[i], 1.0F);
}

TEST(PoolTest, StridedPoolShapes) {
  Pool2dSpec spec{3, 2};
  EXPECT_EQ(spec.out_extent(7), 3);
  Tensor input({1, 1, 7, 7}, 1.0F);
  Tensor out({1, 1, 3, 3});
  maxpool2d_forward(input, out, spec);
  EXPECT_FLOAT_EQ(out.sum(), 9.0F);
}

TEST(ConvSpecTest, OutExtent) {
  Conv2dSpec spec{1, 1, 3, 1, 1};
  EXPECT_EQ(spec.out_extent(32), 32);
  spec.stride = 2;
  EXPECT_EQ(spec.out_extent(32), 16);
  spec.pad = 0;
  EXPECT_EQ(spec.out_extent(32), 15);
}

}  // namespace
}  // namespace ullsnn
