// Algebraic property tests for the numeric kernels: linearity, homogeneity,
// and composition identities that must hold for any correct implementation
// (complementing the example-based checks in ops_test.cpp).
#include <gtest/gtest.h>

#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace ullsnn {
namespace {

Tensor conv(const Tensor& x, const Tensor& w, const Conv2dSpec& spec) {
  Tensor out({x.dim(0), spec.out_channels, spec.out_extent(x.dim(2)),
              spec.out_extent(x.dim(3))});
  conv2d_forward(x, w, Tensor(), out, spec);
  return out;
}

TEST(ConvPropertyTest, LinearInInput) {
  // conv(a*x + b*y) == a*conv(x) + b*conv(y)
  Rng rng(1);
  Conv2dSpec spec{2, 3, 3, 1, 1};
  Tensor w({3, 2, 3, 3});
  Tensor x({2, 2, 6, 6});
  Tensor y({2, 2, 6, 6});
  uniform_fill(w, -0.5F, 0.5F, rng);
  uniform_fill(x, -1.0F, 1.0F, rng);
  uniform_fill(y, -1.0F, 1.0F, rng);
  const Tensor lhs = conv(x * 2.0F + y * -3.0F, w, spec);
  const Tensor rhs = conv(x, w, spec) * 2.0F + conv(y, w, spec) * -3.0F;
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4F));
}

TEST(ConvPropertyTest, LinearInWeights) {
  Rng rng(2);
  Conv2dSpec spec{1, 2, 3, 1, 1};
  Tensor w1({2, 1, 3, 3});
  Tensor w2({2, 1, 3, 3});
  Tensor x({1, 1, 5, 5});
  uniform_fill(w1, -0.5F, 0.5F, rng);
  uniform_fill(w2, -0.5F, 0.5F, rng);
  uniform_fill(x, -1.0F, 1.0F, rng);
  const Tensor lhs = conv(x, w1 + w2, spec);
  const Tensor rhs = conv(x, w1, spec) + conv(x, w2, spec);
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4F));
}

TEST(ConvPropertyTest, ZeroInputZeroOutput) {
  Rng rng(3);
  Conv2dSpec spec{2, 2, 3, 2, 1};
  Tensor w({2, 2, 3, 3});
  uniform_fill(w, -0.5F, 0.5F, rng);
  const Tensor out = conv(Tensor({1, 2, 8, 8}), w, spec);
  EXPECT_FLOAT_EQ(out.rms(), 0.0F);
}

TEST(ConvPropertyTest, IdentityKernelCopiesInput) {
  // 1x1 conv with identity channel mixing is a copy.
  Conv2dSpec spec{3, 3, 1, 1, 0};
  Tensor w({3, 3, 1, 1});
  for (std::int64_t c = 0; c < 3; ++c) w.at(c, c, 0, 0) = 1.0F;
  Rng rng(4);
  Tensor x({2, 3, 4, 4});
  uniform_fill(x, -1.0F, 1.0F, rng);
  EXPECT_TRUE(conv(x, w, spec).allclose(x, 1e-6F));
}

TEST(MatmulPropertyTest, DistributesOverAddition) {
  Rng rng(5);
  Tensor a({4, 6});
  Tensor b({6, 5});
  Tensor c({6, 5});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  uniform_fill(c, -1.0F, 1.0F, rng);
  const Tensor lhs = matmul(a, b + c);
  const Tensor rhs = matmul(a, b) + matmul(a, c);
  EXPECT_TRUE(lhs.allclose(rhs, 1e-4F));
}

TEST(MatmulPropertyTest, AssociativeWithinTolerance) {
  Rng rng(6);
  Tensor a({3, 4});
  Tensor b({4, 5});
  Tensor c({5, 2});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  uniform_fill(c, -1.0F, 1.0F, rng);
  const Tensor lhs = matmul(matmul(a, b), c);
  const Tensor rhs = matmul(a, matmul(b, c));
  EXPECT_TRUE(lhs.allclose(rhs, 1e-3F));
}

TEST(MatmulPropertyTest, IdentityIsNeutral) {
  Rng rng(7);
  Tensor a({4, 4});
  uniform_fill(a, -1.0F, 1.0F, rng);
  Tensor eye({4, 4});
  for (std::int64_t i = 0; i < 4; ++i) eye.at(i, i) = 1.0F;
  EXPECT_TRUE(matmul(a, eye).allclose(a, 1e-6F));
  EXPECT_TRUE(matmul(eye, a).allclose(a, 1e-6F));
}

TEST(PoolPropertyTest, MaxPoolDominatesAvgPool) {
  Rng rng(8);
  Tensor x({2, 2, 6, 6});
  uniform_fill(x, -1.0F, 1.0F, rng);
  Pool2dSpec spec;
  Tensor mx({2, 2, 3, 3});
  Tensor av({2, 2, 3, 3});
  maxpool2d_forward(x, mx, spec);
  avgpool2d_forward(x, av, spec);
  for (std::int64_t i = 0; i < mx.numel(); ++i) EXPECT_GE(mx[i], av[i]);
}

TEST(PoolPropertyTest, MaxPoolIdempotentOnConstant) {
  Tensor x({1, 1, 4, 4}, 3.5F);
  Pool2dSpec spec;
  Tensor out({1, 1, 2, 2});
  maxpool2d_forward(x, out, spec);
  for (std::int64_t i = 0; i < out.numel(); ++i) EXPECT_FLOAT_EQ(out[i], 3.5F);
}

TEST(PoolPropertyTest, AvgPoolPreservesMeanExactly) {
  Rng rng(9);
  Tensor x({1, 1, 8, 8});
  uniform_fill(x, -1.0F, 1.0F, rng);
  Pool2dSpec spec;
  Tensor out({1, 1, 4, 4});
  avgpool2d_forward(x, out, spec);
  EXPECT_NEAR(out.mean(), x.mean(), 1e-5F);
}

TEST(PoolPropertyTest, MaxPoolBackwardConservesGradientMass) {
  Rng rng(10);
  Tensor x({1, 2, 6, 6});
  uniform_fill(x, -1.0F, 1.0F, rng);
  Pool2dSpec spec;
  Tensor out({1, 2, 3, 3});
  std::vector<std::int64_t> argmax;
  maxpool2d_forward(x, out, spec, &argmax);
  Tensor g(out.shape());
  uniform_fill(g, 0.0F, 1.0F, rng);
  Tensor gin(x.shape());
  maxpool2d_backward(g, argmax, gin);
  EXPECT_NEAR(gin.sum(), g.sum(), 1e-4F);
}

}  // namespace
}  // namespace ullsnn
