// Reproduces Fig. 1: (a) the DNN (threshold-ReLU) vs SNN activation
// functions, the skewed pre-activation distribution of a trained VGG-16's
// second conv layer, and the collapse of h(T, mu) as T shrinks; (b) the
// (alpha, beta)-scaled staircase and the Algorithm-1 loss decomposition.
//
// Expected shape: the layer-2 pre-activation histogram is heavily
// right-skewed (most mass near 0, skewness >> 0); h(T, mu) ~ K(mu) ~ 0.5
// would hold for uniform distributions, but here h drops well below K for
// T <= 5 while K stays T-independent -> Delta = mu (K - h) > 0 at low T.
#include <cstdio>

#include "bench/common.h"
#include "src/core/delta_analysis.h"
#include "src/tensor/stats.h"
#include "src/util/table.h"

using namespace ullsnn;

int main() {
  const bench::Scale scale = bench::read_scale();
  const bench::BenchSetup setup = bench::setup_for(scale);
  std::printf("== Fig. 1 reproduction (scale: %s) ==\n", bench::scale_name(scale));

  const bench::BenchData data = bench::make_data(10, setup);
  auto model = bench::trained_dnn(core::Architecture::kVgg16, 10, setup, data);
  const core::ActivationProfile profile = core::collect_activations(*model, data.train);

  // Fig. 1(a): the paper plots layer 2 of VGG-16; site index 1 is the second
  // conv's pre-activation.
  const core::ActivationSite& site = profile.sites.at(1);
  const float mu = site.mu;
  const Moments m = compute_moments(site.samples);
  std::printf("\nLayer-2 pre-activation distribution (site '%s'):\n",
              site.label.c_str());
  std::printf("  mu (trained threshold) = %.4f, d_max = %.4f\n", mu, site.d_max);
  std::printf("  mean %.4f  stddev %.4f  skewness %.3f\n", m.mean, m.stddev,
              m.skewness);
  std::printf("  fraction of d in [0, d_max/3]: %.4f (paper: >99%% below d_max/3)\n",
              static_cast<double>(std::count_if(
                  site.samples.begin(), site.samples.end(),
                  [&](float d) { return d <= site.d_max / 3.0F; })) /
                  static_cast<double>(site.samples.size()));

  // Histogram of the positive pre-activations over [0, mu] (the paper's
  // inset distribution).
  Table hist({"bin", "range", "density"});
  const Histogram h = make_histogram(site.samples, 0.0F, mu, 10);
  for (std::size_t b = 0; b < h.counts.size(); ++b) {
    const float lo = h.lo + static_cast<float>(b) * h.bin_width();
    hist.add_row({std::to_string(b),
                  "[" + Table::fmt(lo, 3) + ", " + Table::fmt(lo + h.bin_width(), 3) + ")",
                  Table::fmt(h.density_at(lo + 0.5F * h.bin_width()), 3)});
  }
  hist.print("Fig. 1(a): layer-2 pre-activation histogram (d, trained VGG-16)");

  // h(T, mu) vs T (the Fig. 1(a) insert), plus K(mu) and Delta = mu (K - h).
  const double k = core::estimate_k(site.samples, mu);
  Table hT({"T", "h(T, mu)", "K(mu)", "Delta = mu(K - h)"});
  for (const std::int64_t t : {1, 2, 3, 4, 5, 8, 16}) {
    const double ht = core::estimate_h(site.samples, mu, t);
    hT.add_row({std::to_string(t), Table::fmt(ht, 4), Table::fmt(k, 4),
                Table::fmt(mu * (k - ht), 4)});
  }
  hT.print("Fig. 1(a) insert: h(T, mu) collapse at low T (K is T-independent)");
  bench::write_csv(hT, "fig1_h.csv");

  // Activation transfer functions (Fig. 1(a) curves + Fig. 1(b) scaling).
  const core::ScalingResult scaled = core::find_scaling_factors(site.percentiles, mu, 2);
  std::printf("\nAlgorithm 1 at T=2: alpha=%.3f beta=%.3f  |loss| %.4f -> %.4f\n",
              scaled.alpha, scaled.beta, std::abs(scaled.initial_loss),
              std::abs(scaled.loss));
  Table curves({"s (pre-act)", "DNN clip", "SNN T=2 (bias)", "SNN T=2 (ours a,b)"});
  for (int i = 0; i <= 12; ++i) {
    const float s = mu * static_cast<float>(i) / 10.0F;
    curves.add_row({Table::fmt(s, 3), Table::fmt(core::dnn_activation(s, mu), 3),
                    Table::fmt(core::snn_activation(s, mu, 1.0F, 1.0F, 2, true), 3),
                    Table::fmt(core::snn_activation(s, mu, scaled.alpha, scaled.beta,
                                                    2, false),
                               3)});
  }
  curves.print("Fig. 1(a)/(b): activation transfer functions");
  bench::write_csv(curves, "fig1_curves.csv");

  // Fig. 1(b): per-site scaling factors chosen by Algorithm 1 at T=2.
  Table sites({"site", "mu", "alpha", "beta", "V_th = alpha*mu", "|Delta| before",
               "|Delta| after"});
  for (const core::ActivationSite& s : profile.sites) {
    const core::ScalingResult r = core::find_scaling_factors(s.percentiles, s.mu, 2);
    sites.add_row({s.label, Table::fmt(s.mu, 3), Table::fmt(r.alpha, 3),
                   Table::fmt(r.beta, 3), Table::fmt(r.alpha * s.mu, 3),
                   Table::fmt(std::abs(r.initial_loss), 2),
                   Table::fmt(std::abs(r.loss), 2)});
  }
  sites.print("Algorithm 1 per-layer scaling factors (T=2)");
  bench::write_csv(sites, "fig1_scaling.csv");
  return 0;
}
