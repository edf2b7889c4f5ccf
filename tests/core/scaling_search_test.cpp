#include "src/core/scaling_search.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/delta_analysis.h"
#include "src/tensor/random.h"

namespace ullsnn::core {
namespace {

// Uniform percentiles over [0, hi].
std::vector<float> uniform_percentiles(float hi) {
  std::vector<float> p(101);
  for (int i = 0; i <= 100; ++i) {
    p[static_cast<std::size_t>(i)] = hi * static_cast<float>(i) / 100.0F;
  }
  return p;
}

// Exponential-like skewed percentiles: P[i] = -scale * ln(1 - i/101).
std::vector<float> skewed_percentiles(float scale) {
  std::vector<float> p(101);
  for (int i = 0; i <= 100; ++i) {
    p[static_cast<std::size_t>(i)] =
        -scale * std::log(1.0F - static_cast<float>(i) / 101.0F);
  }
  return p;
}

TEST(ComputeLossTest, SegmentsByHand) {
  // mu = 1, alpha = 1, beta = 1, T = 2. Staircase: [0, .5) -> 0, [.5, 1) ->
  // 0.5, saturates at 1.
  const float mu = 1.0F;
  // p = 0.25: Seg-I step j=0 -> loss += 0.25 - 0 = 0.25.
  EXPECT_NEAR(compute_scaling_loss({0.25F}, mu, 1.0F, 1.0F, 2), 0.25, 1e-6);
  // p = 0.75: Seg-I step j=1 -> loss += 0.75 - 0.5 = 0.25.
  EXPECT_NEAR(compute_scaling_loss({0.75F}, mu, 1.0F, 1.0F, 2), 0.25, 1e-6);
  // p = 1.5 > mu: Seg-III -> mu * (1 - alpha*beta) = 0.
  EXPECT_NEAR(compute_scaling_loss({1.5F}, mu, 1.0F, 1.0F, 2), 0.0, 1e-6);
  // Negative p contributes nothing.
  EXPECT_NEAR(compute_scaling_loss({-0.5F}, mu, 1.0F, 1.0F, 2), 0.0, 1e-6);
}

TEST(ComputeLossTest, SegTwoWhenAlphaBelowOne) {
  // alpha = 0.5, mu = 1: threshold 0.5. p = 0.75 in (alpha*mu, mu]:
  // Seg-II -> p - alpha*beta*mu = 0.75 - 0.5.
  EXPECT_NEAR(compute_scaling_loss({0.75F}, 1.0F, 0.5F, 1.0F, 2), 0.25, 1e-6);
  // Seg-III with alpha*beta = 0.5: mu * (1 - 0.5) = 0.5.
  EXPECT_NEAR(compute_scaling_loss({1.5F}, 1.0F, 0.5F, 1.0F, 2), 0.5, 1e-6);
}

TEST(ComputeLossTest, BetaScalesStaircase) {
  // p = 0.75, T = 2, alpha = 1, beta = 2: step j=1 output = j*alpha*beta*mu/T
  // = 1.0 -> loss = 0.75 - 1.0 = -0.25 (SNN overshoots).
  EXPECT_NEAR(compute_scaling_loss({0.75F}, 1.0F, 1.0F, 2.0F, 2), -0.25, 1e-6);
}

TEST(ComputeLossTest, ThresholdBoundaryCountsTMinusOneSpikes) {
  // Pins today's Seg-I convention at p = alpha*mu (mu = 1, alpha = 0.5,
  // beta = 1, T = 2): the loss caps the step at j = T-1 = 1 and scores
  // 0.5 - 0.25 = 0.25, while the IF neuron (snn_activation) emits T spikes
  // there and the true gap is 0. Changing the boundary changes this value.
  EXPECT_DOUBLE_EQ(compute_scaling_loss({0.5F}, 1.0F, 0.5F, 1.0F, 2), 0.25);
  EXPECT_DOUBLE_EQ(empirical_delta({0.5F}, 1.0F, 0.5F, 1.0F, 2, false), 0.0);
}

TEST(ComputeLossTest, Validates) {
  EXPECT_THROW(compute_scaling_loss({0.5F}, 0.0F, 1.0F, 1.0F, 2),
               std::invalid_argument);
  EXPECT_THROW(compute_scaling_loss({0.5F}, 1.0F, 1.0F, 1.0F, 0),
               std::invalid_argument);
}

TEST(FindScalingFactorsTest, UniformDistributionNeedsLittleCorrection) {
  // For uniform pre-activations the SOTA assumption holds; the search should
  // find a residual |loss| far below the (1,1) baseline and an optimum near
  // alpha*beta ~ 1 (the activation is already well matched).
  const auto p = uniform_percentiles(1.0F);
  const ScalingResult r = find_scaling_factors(p, 1.0F, 2);
  EXPECT_LE(std::abs(r.loss), std::abs(r.initial_loss));
  EXPECT_LT(std::abs(r.loss), 2.0);
}

TEST(FindScalingFactorsTest, SkewedDistributionScalesDown) {
  // Heavily skewed toward 0: the optimal threshold should drop well below mu
  // (the paper's core claim) and reduce the loss drastically.
  const auto p = skewed_percentiles(0.2F);
  const float mu = 1.0F;
  const ScalingResult r = find_scaling_factors(p, mu, 2);
  EXPECT_LT(r.alpha, 0.9F);
  EXPECT_LT(std::abs(r.loss), std::abs(r.initial_loss) * 0.5);
}

TEST(FindScalingFactorsTest, BetaStaysInSweepRange) {
  const auto p = skewed_percentiles(0.3F);
  const ScalingResult r = find_scaling_factors(p, 1.0F, 3);
  EXPECT_GE(r.beta, 0.0F);
  EXPECT_LE(r.beta, 2.0F + 1e-5F);
  EXPECT_GT(r.alpha, 0.0F);
  EXPECT_LE(r.alpha, 1.0F);
}

TEST(FindScalingFactorsTest, LargeTNeedsLessCorrection) {
  // As T grows the staircase tracks the identity better, so the optimal
  // |loss| at T=16 is no worse than at T=2 for the same distribution.
  const auto p = skewed_percentiles(0.2F);
  const ScalingResult r2 = find_scaling_factors(p, 1.0F, 2);
  const ScalingResult r16 = find_scaling_factors(p, 1.0F, 16);
  EXPECT_LE(std::abs(r16.loss), std::abs(r2.loss) + 1e-6);
}

TEST(FindScalingFactorsLinearTest, ComparableToPercentile) {
  const auto p = skewed_percentiles(0.25F);
  const ScalingResult pct = find_scaling_factors(p, 1.0F, 2);
  const ScalingResult lin = find_scaling_factors_linear(p, 1.0F, 2, 100);
  // Both should beat the no-scaling baseline.
  EXPECT_LT(std::abs(pct.loss), std::abs(pct.initial_loss));
  EXPECT_LT(std::abs(lin.loss), std::abs(lin.initial_loss));
}

TEST(FindScalingFactorsLinearTest, Validates) {
  EXPECT_THROW(find_scaling_factors_linear({0.5F}, 1.0F, 2, 0),
               std::invalid_argument);
  EXPECT_THROW(find_scaling_factors({0.5F}, 1.0F, 2, 0.0F), std::invalid_argument);
}

}  // namespace
}  // namespace ullsnn::core
