#include "src/core/delta_analysis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ullsnn::core {

namespace {
void check(float mu, std::int64_t t) {
  if (mu <= 0.0F) throw std::invalid_argument("delta_analysis: mu must be positive");
  if (t <= 0) throw std::invalid_argument("delta_analysis: T must be positive");
}

double fraction_in(const std::vector<float>& samples, double lo, double hi) {
  if (samples.empty()) return 0.0;
  std::int64_t n = 0;
  for (float s : samples) {
    if (s >= lo && s < hi) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(samples.size());
}
}  // namespace

double estimate_k(const std::vector<float>& d_samples, float mu) {
  check(mu, 1);
  if (d_samples.empty()) throw std::invalid_argument("estimate_k: empty sample");
  double acc = 0.0;
  for (float d : d_samples) {
    if (d > 0.0F && d <= mu) acc += d;
  }
  return acc / (static_cast<double>(d_samples.size()) * static_cast<double>(mu));
}

double estimate_h(const std::vector<float>& s_samples, float mu, std::int64_t t) {
  check(mu, t);
  const double step = static_cast<double>(mu) / static_cast<double>(t);
  double h = 0.0;
  for (std::int64_t i = 1; i <= t - 1; ++i) {
    const double g_i = fraction_in(s_samples, (static_cast<double>(i) - 0.5) * step,
                                   (static_cast<double>(i) + 0.5) * step);
    h += (static_cast<double>(i) / static_cast<double>(t)) * g_i;
  }
  // Tail term: Integral_{T'}^{mu} f_S, T' = (T - 1/2) mu / T.
  h += fraction_in(s_samples, (static_cast<double>(t) - 0.5) * step,
                   static_cast<double>(mu));
  return h;
}

float dnn_activation(float d, float mu) {
  return std::clamp(d, 0.0F, mu);
}

float snn_activation(float s, float mu, float alpha, float beta, std::int64_t t,
                     bool bias_shift) {
  check(mu, t);
  const float v_th = alpha * mu;  // layer threshold after scaling
  if (v_th <= 0.0F) return 0.0F;
  // Average output of Eq. 5 with the Fig. 1(b) scaling: the total integrated
  // drive over T steps is T*s (plus the optional half-threshold bias charge);
  // each emitted spike contributes beta*V_th/T to the average.
  const float drive = static_cast<float>(t) * s + (bias_shift ? 0.5F * v_th : 0.0F);
  const auto spikes = static_cast<std::int64_t>(std::floor(drive / v_th));
  const std::int64_t clipped = std::clamp<std::int64_t>(spikes, 0, t);
  return beta * v_th * static_cast<float>(clipped) / static_cast<float>(t);
}

double empirical_delta(const std::vector<float>& samples, float mu, float alpha,
                       float beta, std::int64_t t, bool bias_shift) {
  if (samples.empty()) throw std::invalid_argument("empirical_delta: empty sample");
  double acc = 0.0;
  for (float x : samples) {
    acc += static_cast<double>(dnn_activation(x, mu)) -
           static_cast<double>(snn_activation(x, mu, alpha, beta, t, bias_shift));
  }
  return acc / static_cast<double>(samples.size());
}

}  // namespace ullsnn::core
