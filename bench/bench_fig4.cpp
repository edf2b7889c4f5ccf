// Reproduces Fig. 4: (a) per-layer average spike counts, (b) total FLOPs,
// and (c) compute energy, for VGG-16 on the CIFAR-10/100 analogues,
// comparing: ours at T=2 and T=3 (after SGL), the 5-step hybrid baseline
// [7], the 16-step optimal-conversion baseline [15], and the
// iso-architecture DNN. Also reports the TrueNorth / SpiNNaker neuromorphic
// energy model of Sec. VI-B.
//
// Expected shape: SNN FLOPs/energy orders of magnitude below the DNN
// (paper: 103.5x / 159.2x energy reduction for CIFAR-10 / CIFAR-100);
// spike count and energy grow with T, so ours(T=2) < [7](T=5) < [15](T=16).
#include <cstdio>

#include "bench/common.h"
#include "src/energy/energy_model.h"
#include "src/energy/flops.h"
#include "src/obs/probe.h"
#include "src/snn/sgl_trainer.h"
#include "src/util/table.h"

using namespace ullsnn;

namespace {

struct SnnVariant {
  const char* label;
  std::int64_t time_steps;
  core::ConversionMode mode;
  bool fine_tune;
};

}  // namespace

int main() {
  const bench::Scale scale = bench::read_scale();
  const bench::BenchSetup setup = bench::setup_for(scale);
  std::printf("== Fig. 4 reproduction (scale: %s) ==\n", bench::scale_name(scale));

  const SnnVariant variants[] = {
      {"ours T=2", 2, core::ConversionMode::kOursAlphaBeta, true},
      {"ours T=3", 3, core::ConversionMode::kOursAlphaBeta, true},
      {"hybrid [7] T=5", 5, core::ConversionMode::kThresholdReLU, true},
      {"conversion [15] T=16", 16, core::ConversionMode::kMaxAct, false},
  };

  Table summary({"Dataset", "Model", "avg spikes/neuron", "MACs", "ACs",
                 "total FLOPs", "energy pJ", "DNN/SNN energy"});
  for (const std::int64_t classes : {std::int64_t{10}, std::int64_t{100}}) {
    const bench::BenchData data = bench::make_data(classes, setup);
    auto model = bench::trained_dnn(core::Architecture::kVgg16, classes, setup, data);
    const core::ActivationProfile profile =
        core::collect_activations(*model, data.train);
    const std::string ds = "CIFAR-" + std::to_string(classes);
    const Shape input_shape = {1, 3, data.spec.image_size, data.spec.image_size};

    const energy::FlopsReport dnn_flops = energy::count_dnn_flops(*model, input_shape);
    const double dnn_pj = energy::compute_energy_pj(dnn_flops);
    summary.add_row({ds, "DNN", "-", Table::fmt_sci(dnn_flops.total_macs, ""),
                     "0", Table::fmt_sci(dnn_flops.total_flops(), ""),
                     Table::fmt_sci(dnn_pj, ""), "1.00"});

    for (const SnnVariant& variant : variants) {
      core::ConversionConfig cc;
      cc.mode = variant.mode;
      cc.time_steps = variant.time_steps;
      auto snn = core::convert(*model, profile, cc, nullptr);
      if (variant.fine_tune) {
        snn::SglConfig sc;
        sc.epochs = std::max<std::int64_t>(setup.sgl_epochs / 2, 1);
        sc.batch_size = setup.batch_size;
        sc.augment = false;
        snn::SglTrainer sgl(*snn, sc);
        sgl.fit(data.train);
      }
      snn->reset_stats();
      obs::SnnRuntimeProbe activity(*snn, {.keep_step_stats = false});
      const double accuracy = snn::evaluate_snn(*snn, data.test, setup.batch_size);
      const energy::FlopsReport snn_flops = energy::count_snn_flops(*snn, input_shape);
      const double snn_pj = energy::compute_energy_pj(snn_flops);
      summary.add_row({ds, variant.label,
                       Table::fmt(activity.mean_spikes_per_neuron(), 3),
                       Table::fmt_sci(snn_flops.total_macs, ""),
                       Table::fmt_sci(snn_flops.total_acs, ""),
                       Table::fmt_sci(snn_flops.total_flops(), ""),
                       Table::fmt_sci(snn_pj, ""), Table::fmt(dnn_pj / snn_pj)});
      std::printf("[fig4] %s %-20s spikes/neuron %.3f  energy %.3e pJ  (DNN/SNN %.1fx,"
                  " acc %.3f)\n",
                  ds.c_str(), variant.label, activity.mean_spikes_per_neuron(), snn_pj,
                  dnn_pj / snn_pj, accuracy);
      std::fflush(stdout);

      if (variant.time_steps == 2) {
        // Per-layer spike profile for Fig. 4(a) (ours, T=2).
        Table layers({"layer", "neurons", "spikes/neuron/image"});
        for (const obs::LayerSummary& layer : activity.summaries()) {
          layers.add_row({layer.name, Table::fmt_int(layer.neurons),
                          Table::fmt(layer.spikes_per_neuron, 4)});
        }
        layers.print("Fig. 4(a): per-layer spiking activity, " + ds + ", ours T=2");
        bench::write_csv(layers, "fig4a_" + std::to_string(classes) + ".csv");

        // Neuromorphic energy (Sec. VI-B closing argument).
        const double total = snn_flops.total_flops();
        std::printf("  neuromorphic energy (normalized): TrueNorth %.3e, "
                    "SpiNNaker %.3e (compute-bound: T*E_static = %.2f / %.2f)\n",
                    energy::neuromorphic_energy(total, 2, energy::kTrueNorth),
                    energy::neuromorphic_energy(total, 2, energy::kSpiNNaker),
                    2 * energy::kTrueNorth.e_static, 2 * energy::kSpiNNaker.e_static);
      }
    }
  }
  summary.print("Fig. 4(b)/(c): FLOPs and compute energy, VGG-16");
  bench::write_csv(summary, "fig4.csv");
  std::printf("\nPaper reference: CIFAR-10 DNN/SNN energy 103.5x; CIFAR-100 159.2x;\n"
              "ours vs [7] 1.27-1.52x; ours vs [15] 4.72-5.18x.\n");
  return 0;
}
