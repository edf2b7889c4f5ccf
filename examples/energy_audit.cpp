// Energy audit: trains a small model, converts it at a chosen T, and prints
// the full Sec. VI accounting — per-layer spiking activity, MAC/AC FLOPs,
// CMOS compute energy, and the TrueNorth/SpiNNaker neuromorphic estimates —
// side by side with the iso-architecture DNN.
//
// Usage: energy_audit [timesteps] [dnn_epochs] [train_size]
#include <cstdio>
#include <exception>
#include <cstdlib>

#include "src/core/pipeline.h"
#include "src/energy/energy_model.h"
#include "src/energy/flops.h"
#include "src/energy/memory_model.h"
#include "src/obs/probe.h"
#include "src/util/table.h"

using namespace ullsnn;

int run(int argc, char** argv) {
  const std::int64_t time_steps = argc > 1 ? std::atoll(argv[1]) : 2;
  const std::int64_t epochs = argc > 2 ? std::atoll(argv[2]) : 12;
  const std::int64_t train_n = argc > 3 ? std::atoll(argv[3]) : 768;

  data::SyntheticCifarSpec spec;
  data::SyntheticCifar gen(spec);
  data::LabeledImages train = gen.generate(train_n, 1);
  data::LabeledImages test = gen.generate(train_n / 4, 2);
  const data::ChannelStats stats = data::standardize(train);
  data::apply_standardize(test, stats);

  core::PipelineConfig config;
  config.arch = core::Architecture::kVgg11;
  config.model.width = 0.125F;
  config.dnn_train.epochs = epochs;
  config.dnn_train.augment = false;
  config.conversion.time_steps = time_steps;
  config.sgl.epochs = epochs / 3 + 1;
  config.sgl.augment = false;
  config.verbose = true;

  std::printf("== energy audit: VGG-11, T=%lld ==\n",
              static_cast<long long>(time_steps));
  core::HybridPipeline pipeline(config);
  const core::PipelineResult result = pipeline.run(train, test);
  std::printf("accuracies: dnn %.2f%%, snn %.2f%%\n", 100.0 * result.dnn_accuracy,
              100.0 * result.sgl_accuracy);

  // Activity measurement over the test set.
  pipeline.snn().reset_stats();
  obs::SnnRuntimeProbe activity(pipeline.snn(), {.keep_step_stats = false});
  snn::evaluate_snn(pipeline.snn(), test);
  Table layers({"layer", "neurons/sample", "spikes/neuron/image"});
  for (const obs::LayerSummary& layer : activity.summaries()) {
    layers.add_row({layer.name, Table::fmt_int(layer.neurons),
                    Table::fmt(layer.spikes_per_neuron, 4)});
  }
  layers.print("per-layer spiking activity (test set)");
  std::printf("mean spiking activity: %.4f spikes/neuron/image\n",
              activity.mean_spikes_per_neuron());

  // FLOPs and energy.
  const Shape input_shape = {1, 3, spec.image_size, spec.image_size};
  const energy::FlopsReport dnn_flops =
      energy::count_dnn_flops(pipeline.dnn(), input_shape);
  const energy::FlopsReport snn_flops =
      energy::count_snn_flops(pipeline.snn(), input_shape);
  Table flops({"model", "layer", "MACs", "ACs"});
  for (const auto& layer : dnn_flops.layers) {
    flops.add_row({"DNN", layer.name, Table::fmt_sci(layer.macs, ""), "0"});
  }
  for (const auto& layer : snn_flops.layers) {
    flops.add_row({"SNN", layer.name, Table::fmt_sci(layer.macs, ""),
                   Table::fmt_sci(layer.acs, "")});
  }
  flops.print("per-layer FLOPs (per input sample)");

  const double dnn_pj = energy::compute_energy_pj(dnn_flops);
  const double snn_pj = energy::compute_energy_pj(snn_flops);
  std::printf("\nCMOS 45nm compute energy: DNN %.3e pJ, SNN %.3e pJ -> %.1fx lower\n",
              dnn_pj, snn_pj, dnn_pj / snn_pj);
  const double total = snn_flops.total_flops();
  std::printf("neuromorphic (normalized): TrueNorth %.3e, SpiNNaker %.3e\n",
              energy::neuromorphic_energy(total, time_steps, energy::kTrueNorth),
              energy::neuromorphic_energy(total, time_steps, energy::kSpiNNaker));

  // Memory footprints.
  const auto dnn_mem = energy::estimate_dnn_training_memory(pipeline.dnn(),
                                                            input_shape, 32);
  const auto snn_mem = energy::estimate_snn_training_memory(pipeline.snn(),
                                                            input_shape, 32,
                                                            time_steps);
  std::printf("training memory @batch 32: DNN %.1f MiB, SNN %.1f MiB\n",
              dnn_mem.total_mib(), snn_mem.total_mib());
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "energy_audit: %s\n", e.what());
    return 1;
  }
}
