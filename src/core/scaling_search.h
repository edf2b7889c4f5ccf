// Algorithm 1 of the paper: percentile-driven search for the per-layer
// scaling factors (alpha, beta) that minimize the empirical DNN-vs-SNN
// post-activation gap Delta_{alpha,beta} at a given (low) T.
//
// The SNN threshold becomes V_th = alpha * mu and each spike carries
// amplitude beta * V_th (Eq. 8). The loss decomposes the gap over the three
// segments of Fig. 1(b):
//   Seg-I   0      < p <= alpha*mu : staircase region, p - j*alpha*beta*mu/T
//   Seg-II  alpha*mu < p <= mu     : SNN saturated,    p - alpha*beta*mu
//   Seg-III p > mu                 : both saturated,   mu*(1 - alpha*beta)
//
// Candidate alphas are the percentiles P[j]/mu (finer resolution where the
// skewed density is high — the paper's argument against a linear grid);
// beta sweeps [0, 2] with a configurable step.
#pragma once

#include <cstdint>
#include <vector>

namespace ullsnn::core {

struct ScalingResult {
  float alpha = 1.0F;
  float beta = 1.0F;
  double loss = 0.0;      // signed empirical Delta at the optimum
  double initial_loss = 0.0;  // Delta at (alpha, beta) = (1, 1)
};

/// ComputeLoss of Algorithm 1: signed activation gap accumulated over the
/// percentile samples `P` for the given scaling factors.
///
/// Boundary convention: Seg-I caps the spike count at T-1, so a sample at
/// exactly p = alpha*mu scores j = T-1 spikes and a gap of alpha*beta*mu/T.
/// The IF neuron, and snn_activation() that is pinned to it, emits T spikes
/// there (a gap of 0 when beta = 1). Every candidate alpha = P[j]/mu puts
/// percentile j on this boundary.
double compute_scaling_loss(const std::vector<float>& percentiles, float mu,
                            float alpha, float beta, std::int64_t time_steps);

/// FindScalingFactors of Algorithm 1.
ScalingResult find_scaling_factors(const std::vector<float>& percentiles, float mu,
                                   std::int64_t time_steps, float beta_step = 0.01F);

/// Linear-grid variant used by the percentile-vs-linear ablation: alpha
/// candidates are `grid_points` evenly spaced values in (0, 1].
ScalingResult find_scaling_factors_linear(const std::vector<float>& percentiles,
                                          float mu, std::int64_t time_steps,
                                          std::int64_t grid_points = 100,
                                          float beta_step = 0.01F);

}  // namespace ullsnn::core
