// Cross-module integration tests: the full hybrid pipeline wired to the
// energy accounting and the checkpoint round-trip of a trained model.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/core/pipeline.h"
#include "src/energy/energy_model.h"
#include "src/energy/flops.h"
#include "src/energy/memory_model.h"
#include "src/obs/probe.h"
#include "src/util/serialize.h"

namespace ullsnn {
namespace {

data::LabeledImages make_data(std::int64_t n, std::uint64_t salt) {
  data::SyntheticCifarSpec spec;
  spec.image_size = 32;
  spec.num_classes = 3;
  spec.sign_flip_prob = 0.0F;
  spec.noise_stddev = 0.15F;
  spec.occluder_prob = 0.0F;
  data::SyntheticCifar gen(spec);
  data::LabeledImages d = gen.generate(n, salt);
  data::standardize(d);
  return d;
}

core::PipelineConfig tiny_config() {
  core::PipelineConfig config;
  config.arch = core::Architecture::kVgg11;
  config.model.width = 0.0625F;
  config.model.num_classes = 3;
  config.dnn_train.epochs = 6;
  config.dnn_train.augment = false;
  config.conversion.time_steps = 2;
  config.sgl.epochs = 2;
  config.sgl.augment = false;
  return config;
}

TEST(EndToEndTest, PipelinePlusEnergyAccounting) {
  const data::LabeledImages train = make_data(128, 1);
  const data::LabeledImages test = make_data(32, 2);
  core::HybridPipeline pipeline(tiny_config());
  pipeline.run(train, test);

  const Shape input_shape = {1, 3, 32, 32};
  pipeline.snn().reset_stats();
  obs::SnnRuntimeProbe activity(pipeline.snn(), {.keep_step_stats = false});
  snn::evaluate_snn(pipeline.snn(), test);
  EXPECT_FALSE(activity.summaries().empty());
  EXPECT_GT(activity.total_spikes(), 0);

  const energy::FlopsReport dnn_flops =
      energy::count_dnn_flops(pipeline.dnn(), input_shape);
  const energy::FlopsReport snn_flops =
      energy::count_snn_flops(pipeline.snn(), input_shape);
  // Same topology => identical dense structure; the SNN replaces all but the
  // first layer's MACs by (cheaper, sparser) ACs.
  EXPECT_GT(dnn_flops.total_macs, snn_flops.total_macs);
  EXPECT_GT(snn_flops.total_acs, 0.0);
  const double dnn_pj = energy::compute_energy_pj(dnn_flops);
  const double snn_pj = energy::compute_energy_pj(snn_flops);
  // The paper's headline direction: SNN compute energy below the DNN's.
  EXPECT_LT(snn_pj, dnn_pj);

  // Memory model consistency: training memory exceeds inference memory, and
  // SNN training memory grows with T.
  const auto dnn_train_mem =
      energy::estimate_dnn_training_memory(pipeline.dnn(), input_shape, 16);
  const auto dnn_infer_mem =
      energy::estimate_dnn_inference_memory(pipeline.dnn(), input_shape, 16);
  EXPECT_GT(dnn_train_mem.total_mib(), dnn_infer_mem.total_mib());
  const auto snn_t2 =
      energy::estimate_snn_training_memory(pipeline.snn(), input_shape, 16, 2);
  const auto snn_t5 =
      energy::estimate_snn_training_memory(pipeline.snn(), input_shape, 16, 5);
  EXPECT_GT(snn_t5.total_mib(), snn_t2.total_mib());
}

TEST(EndToEndTest, TrainedModelCheckpointRoundTrip) {
  const data::LabeledImages train = make_data(96, 1);
  const data::LabeledImages test = make_data(32, 2);
  core::HybridPipeline pipeline(tiny_config());
  pipeline.run(train, test);

  // Save the trained DNN, rebuild a fresh instance, load, and verify
  // identical outputs.
  TensorDict dict;
  std::int64_t i = 0;
  for (const dnn::Param* p : pipeline.dnn().params()) {
    dict["p" + std::to_string(i++)] = p->value;
  }
  const std::string path = testing::TempDir() + "/ullsnn_e2e_ckpt.bin";
  save_tensors(dict, path);

  Rng rng(tiny_config().weight_seed);
  auto fresh = core::build_model(core::Architecture::kVgg11,
                                 tiny_config().model, rng);
  const TensorDict loaded = load_tensors(path);
  std::int64_t j = 0;
  for (dnn::Param* p : fresh->params()) {
    p->value = loaded.at("p" + std::to_string(j++));
  }
  Tensor x({4, 3, 32, 32}, 0.25F);
  const Tensor a = pipeline.dnn().forward(x, false);
  const Tensor b = fresh->forward(x, false);
  EXPECT_TRUE(a.allclose(b, 1e-5F));
  std::filesystem::remove(path);
}

TEST(EndToEndTest, ConversionPreservesDnnWeights) {
  const data::LabeledImages train = make_data(64, 1);
  const data::LabeledImages test = make_data(32, 2);
  core::HybridPipeline pipeline(tiny_config());
  pipeline.run(train, test);
  // SGL fine-tuned the SNN; the source DNN must be untouched, so its
  // accuracy is unchanged by stage (c).
  const double dnn_acc = dnn::evaluate_model(pipeline.dnn(), test);
  const double dnn_acc_again = dnn::evaluate_model(pipeline.dnn(), test);
  EXPECT_DOUBLE_EQ(dnn_acc, dnn_acc_again);
}

}  // namespace
}  // namespace ullsnn
