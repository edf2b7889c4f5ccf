// Reproduces Table II: comparison with SOTA deep-SNN training approaches at
// their respective latencies, on the CIFAR-10 and CIFAR-100 analogues:
//
//   Wu et al. 2019 [8]     surrogate gradient from scratch, small CNN, T=12
//   Rathi et al. 2020 [7]  hybrid (conversion + SGL), VGG-16, T=5
//   Kundu et al. 2021 [26] hybrid, VGG-16, T=10
//   Deng et al. 2021 [15]  conversion only (max-act + bias), VGG-16, T=16
//   This work              hybrid with (alpha, beta) scaling, VGG-16, T=2
//
// Expected shape: this work matches the baselines' accuracy within a few
// points at 2.5-8x fewer time steps.
#include <cstdio>

#include "bench/common.h"
#include "src/snn/sgl_trainer.h"
#include "src/util/table.h"

using namespace ullsnn;

namespace {

// Wu et al.'s architecture: 5 conv + 2 linear, trained from scratch with
// surrogate gradients (no conversion initialization).
std::unique_ptr<snn::SnnNetwork> build_wu_snn(std::int64_t classes, float width,
                                              std::int64_t time_steps, Rng& rng) {
  auto net = std::make_unique<snn::SnnNetwork>(time_steps);
  const auto ch = [&](std::int64_t c) {
    return std::max<std::int64_t>(4, static_cast<std::int64_t>(c * width));
  };
  snn::IfConfig neuron;
  neuron.v_threshold = 1.0F;
  std::int64_t in_ch = 3;
  std::int64_t spatial = 32;
  const std::int64_t plan[] = {ch(64), ch(128), ch(256), ch(256), ch(512)};
  for (int i = 0; i < 5; ++i) {
    const std::int64_t out_ch = plan[i];
    Tensor w({out_ch, in_ch, 3, 3});
    kaiming_normal(w, in_ch * 9, rng);
    net->emplace<snn::SynapticLayer>(
        snn::Synapse(std::move(w), Conv2dSpec{in_ch, out_ch, 3, 1, 1}), neuron);
    if (i >= 1) {  // 4 pools: 32 -> 2
      net->emplace<snn::SpikingMaxPool>(Pool2dSpec{2, 2});
      spatial /= 2;
    }
    in_ch = out_ch;
  }
  net->emplace<snn::SpikingFlatten>();
  const std::int64_t features = in_ch * spatial * spatial;
  const std::int64_t hidden = ch(256);
  Tensor w1({hidden, features});
  kaiming_normal(w1, features, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(w1)), neuron);
  Tensor w2({classes, hidden});
  kaiming_normal(w2, hidden, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(w2)), std::nullopt);
  return net;
}

double hybrid_accuracy(dnn::Sequential& model, const core::ActivationProfile& profile,
                       core::ConversionMode mode, std::int64_t t,
                       std::int64_t sgl_epochs, const bench::BenchData& data,
                       const bench::BenchSetup& setup) {
  core::ConversionConfig cc;
  cc.mode = mode;
  cc.time_steps = t;
  auto net = core::convert(model, profile, cc, nullptr);
  if (sgl_epochs > 0) {
    snn::SglConfig sc;
    sc.epochs = sgl_epochs;
    sc.batch_size = setup.batch_size;
    sc.augment = false;
    snn::SglTrainer sgl(*net, sc);
    sgl.fit(data.train);
  }
  return snn::evaluate_snn(*net, data.test, setup.batch_size);
}

}  // namespace

int main() {
  const bench::Scale scale = bench::read_scale();
  const bench::BenchSetup setup = bench::setup_for(scale);
  std::printf("== Table II reproduction (scale: %s) ==\n", bench::scale_name(scale));

  Table table({"Dataset", "Approach", "Training type", "Architecture", "T",
               "Accuracy %"});
  for (const std::int64_t classes : {std::int64_t{10}, std::int64_t{100}}) {
    const bench::BenchData data = bench::make_data(classes, setup);
    const std::string ds = "CIFAR-" + std::to_string(classes);
    auto model = bench::trained_dnn(core::Architecture::kVgg16, classes, setup, data);
    const core::ActivationProfile profile =
        core::collect_activations(*model, data.train);

    // Wu et al. [8]: from-scratch surrogate training (CIFAR-10 only, as in
    // the paper's table). Budget a couple of epochs: at T=12 every epoch
    // costs ~12 forward+backward passes.
    if (classes == 10) {
      Rng rng(17);
      auto wu = build_wu_snn(classes, setup.width, 12, rng);
      snn::SglConfig sc;
      sc.epochs = std::max<std::int64_t>(setup.sgl_epochs / 2, 2);
      sc.lr = 5e-4F;  // from scratch needs a larger step than fine-tuning
      sc.batch_size = setup.batch_size;
      sc.augment = false;
      snn::SglTrainer sgl(*wu, sc);
      sgl.fit(data.train);
      const double acc = sgl.evaluate(data.test);
      table.add_row({ds, "Wu et al. [8]", "Surrogate gradient", "5 CONV, 2 linear",
                     "12", Table::fmt(100.0 * acc)});
      std::printf("[table2] %s Wu [8] T=12: %.2f%%\n", ds.c_str(), 100.0 * acc);
      std::fflush(stdout);
    }

    // Rathi et al. [7]: hybrid at T=5 (CIFAR-10 row in the paper).
    if (classes == 10) {
      const double acc =
          hybrid_accuracy(*model, profile, core::ConversionMode::kThresholdReLU, 5,
                          std::max<std::int64_t>(setup.sgl_epochs / 2, 2), data, setup);
      table.add_row({ds, "Rathi et al. [7]", "Hybrid training", "VGG-16", "5",
                     Table::fmt(100.0 * acc)});
      std::printf("[table2] %s Rathi [7] T=5: %.2f%%\n", ds.c_str(), 100.0 * acc);
      std::fflush(stdout);
    }

    // Kundu et al. [26]: hybrid at T=10.
    {
      const double acc =
          hybrid_accuracy(*model, profile, core::ConversionMode::kThresholdReLU, 10,
                          1, data, setup);
      table.add_row({ds, "Kundu et al. [26]", "Hybrid training", "VGG-16", "10",
                     Table::fmt(100.0 * acc)});
      std::printf("[table2] %s Kundu [26] T=10: %.2f%%\n", ds.c_str(), 100.0 * acc);
      std::fflush(stdout);
    }

    // Deng et al. [15]: conversion only at T=16.
    {
      const double acc = hybrid_accuracy(*model, profile, core::ConversionMode::kMaxAct,
                                         16, 0, data, setup);
      table.add_row({ds, "Deng et al. [15]", "DNN-to-SNN conversion", "VGG-16", "16",
                     Table::fmt(100.0 * acc)});
      std::printf("[table2] %s Deng [15] T=16: %.2f%%\n", ds.c_str(), 100.0 * acc);
      std::fflush(stdout);
    }

    // This work: (alpha, beta) conversion + SGL at T=2.
    {
      const double acc =
          hybrid_accuracy(*model, profile, core::ConversionMode::kOursAlphaBeta, 2,
                          setup.sgl_epochs, data, setup);
      table.add_row({ds, "This work", "Hybrid training", "VGG-16", "2",
                     Table::fmt(100.0 * acc)});
      std::printf("[table2] %s this work T=2: %.2f%%\n", ds.c_str(), 100.0 * acc);
      std::fflush(stdout);
    }
  }
  table.print("Table II: comparison with SOTA deep SNNs");
  bench::write_csv(table, "table2.csv");
  std::printf("\nShape to verify: 'This work' at T=2 is within a few points of the\n"
              "baselines that need 5-16 steps (2.5-8x latency reduction).\n");
  return 0;
}
