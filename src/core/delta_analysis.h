// Empirical estimators for the Sec. III-A analysis quantities:
//
//   K(mu)    = (1/mu) * Integral_0^mu d f_D(d) dd          (Eq. 6/7)
//   h(T,mu)  = Sum_{i=1..T-1} (i/T) g_i(T,mu)
//              + Integral_{T'}^{mu} f_S(s) ds,  T' = (T-1/2) mu / T
//   Delta    ~= mu * (K(mu) - h(T,mu))                      (Eq. 7)
//
// plus the effective activation transfer functions themselves (the curves of
// Fig. 1(a)/(b)) and a direct Monte-Carlo Delta estimator used to cross-check
// the closed-form decomposition. Under uniform distributions K = h = 1/2 and
// Delta = 0 (the flawed SOTA assumption); under the skewed real distributions
// h collapses as T shrinks below ~5 while K stays put — the paper's central
// observation, regenerated by bench/bench_fig1.
#pragma once

#include <cstdint>
#include <vector>

namespace ullsnn::core {

/// K(mu) over samples of the DNN pre-activation d.
double estimate_k(const std::vector<float>& d_samples, float mu);

/// h(T, mu) over samples of the (average) SNN pre-activation s, for the
/// bias-shifted SNN activation of [15]. `g_i` integrates f_S over
/// [(i-1/2) mu/T, (i+1/2) mu/T).
double estimate_h(const std::vector<float>& s_samples, float mu, std::int64_t t);

/// DNN threshold-ReLU transfer: clip(d, 0, mu).
float dnn_activation(float d, float mu);

/// Average SNN output over T steps for average pre-activation s, with
/// threshold alpha*mu, amplitude beta*(alpha*mu), optional bias shift of
/// mu_eff/2T (Eq. 5 generalized by Fig. 1(b)'s scaling).
float snn_activation(float s, float mu, float alpha, float beta, std::int64_t t,
                     bool bias_shift);

/// Monte-Carlo E[d'] - E[s'] with d' = clip and s' = staircase, evaluating
/// both transfer functions on the same sample set (the paper's Delta with
/// f_S ~ f_D, valid because conversion copies weights).
double empirical_delta(const std::vector<float>& samples, float mu, float alpha,
                       float beta, std::int64_t t, bool bias_shift);

}  // namespace ullsnn::core
