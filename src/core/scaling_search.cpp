#include "src/core/scaling_search.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/obs/metrics.h"

namespace ullsnn::core {

double compute_scaling_loss(const std::vector<float>& percentiles, float mu,
                            float alpha, float beta, std::int64_t time_steps) {
  if (mu <= 0.0F) throw std::invalid_argument("compute_scaling_loss: mu must be positive");
  if (time_steps <= 0) throw std::invalid_argument("compute_scaling_loss: T must be positive");
  const double am = static_cast<double>(alpha) * mu;       // alpha*mu
  const double abm = am * beta;                            // alpha*beta*mu
  const double t = static_cast<double>(time_steps);
  double loss = 0.0;
  for (float pf : percentiles) {
    const double p = pf;
    if (p <= 0.0) continue;  // ReLU region: both outputs are 0
    if (p <= am) {
      // Seg-I: p falls on staircase step j (j spikes emitted on average).
      const auto j = static_cast<double>(
          std::min<std::int64_t>(static_cast<std::int64_t>(p * t / am), time_steps - 1));
      loss += p - j * abm / t;
    } else if (p <= static_cast<double>(mu)) {
      // Seg-II: SNN saturated at T spikes, DNN still linear.
      loss += p - abm;
    } else {
      // Seg-III: both saturated (DNN clipped at mu).
      loss += static_cast<double>(mu) * (1.0 - static_cast<double>(alpha) * beta);
    }
  }
  return loss;
}

namespace {
ScalingResult search_over_alphas(const std::vector<float>& alphas,
                                 const std::vector<float>& percentiles, float mu,
                                 std::int64_t time_steps, float beta_step) {
  if (beta_step <= 0.0F) throw std::invalid_argument("beta_step must be positive");
  ScalingResult best;
  best.initial_loss = compute_scaling_loss(percentiles, mu, 1.0F, 1.0F, time_steps);
  best.loss = best.initial_loss;
  std::int64_t candidates = 0;
  for (float alpha : alphas) {
    if (alpha <= 0.0F || alpha > 1.0F) continue;
    for (float beta = 0.0F; beta <= 2.0F + 1e-6F; beta += beta_step) {
      const double loss = compute_scaling_loss(percentiles, mu, alpha, beta, time_steps);
      ++candidates;
      if (std::abs(loss) < std::abs(best.loss)) {
        best.alpha = alpha;
        best.beta = beta;
        best.loss = loss;
      }
    }
  }
  ULLSNN_COUNTER_ADD("scaling_search.candidates", candidates);
  ULLSNN_COUNTER_ADD("scaling_search.sites", 1);
  return best;
}
}  // namespace

ScalingResult find_scaling_factors(const std::vector<float>& percentiles, float mu,
                                   std::int64_t time_steps, float beta_step) {
  // Candidate alphas: P[j]/mu for every percentile P[j] <= mu (Algorithm 1's
  // "M is the largest integer satisfying P[M] <= mu").
  std::vector<float> alphas;
  alphas.reserve(percentiles.size());
  for (float p : percentiles) {
    if (p > 0.0F && p <= mu) alphas.push_back(p / mu);
  }
  return search_over_alphas(alphas, percentiles, mu, time_steps, beta_step);
}

ScalingResult find_scaling_factors_linear(const std::vector<float>& percentiles,
                                          float mu, std::int64_t time_steps,
                                          std::int64_t grid_points, float beta_step) {
  if (grid_points <= 0) throw std::invalid_argument("grid_points must be positive");
  std::vector<float> alphas;
  alphas.reserve(static_cast<std::size_t>(grid_points));
  for (std::int64_t i = 1; i <= grid_points; ++i) {
    alphas.push_back(static_cast<float>(i) / static_cast<float>(grid_points));
  }
  return search_over_alphas(alphas, percentiles, mu, time_steps, beta_step);
}

}  // namespace ullsnn::core
