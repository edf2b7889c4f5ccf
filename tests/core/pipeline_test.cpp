#include "src/core/pipeline.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace ullsnn::core {
namespace {

data::LabeledImages easy_data(std::int64_t n, std::uint64_t salt,
                              std::int64_t classes = 3) {
  data::SyntheticCifarSpec spec;
  spec.image_size = 32;
  spec.num_classes = classes;
  spec.sign_flip_prob = 0.0F;
  spec.occluder_prob = 0.0F;
  spec.noise_stddev = 0.15F;
  data::SyntheticCifar gen(spec);
  data::LabeledImages d = gen.generate(n, salt);
  data::standardize(d);
  return d;
}

PipelineConfig tiny_pipeline_config() {
  PipelineConfig config;
  config.arch = Architecture::kVgg11;
  config.model.width = 0.0625F;  // minimum-width VGG
  config.model.num_classes = 3;
  config.model.image_size = 32;
  config.dnn_train.epochs = 8;
  config.dnn_train.batch_size = 32;
  config.dnn_train.augment = false;
  config.conversion.time_steps = 2;
  config.sgl.epochs = 3;
  config.sgl.augment = false;
  return config;
}

TEST(ArchitectureTest, Names) {
  EXPECT_STREQ(to_string(Architecture::kVgg11), "VGG-11");
  EXPECT_STREQ(to_string(Architecture::kResNet20), "ResNet-20");
}

TEST(BuildModelTest, AllArchitecturesConstruct) {
  dnn::ModelConfig mc;
  mc.width = 0.0625F;
  Rng rng(1);
  for (const Architecture arch :
       {Architecture::kVgg11, Architecture::kVgg13, Architecture::kVgg16,
        Architecture::kResNet20, Architecture::kResNet32}) {
    auto model = build_model(arch, mc, rng);
    EXPECT_EQ(model->output_shape({1, 3, 32, 32}), Shape({1, 10}))
        << to_string(arch);
  }
}

TEST(HybridPipelineTest, EndToEndStagesAreConsistent) {
  const data::LabeledImages train = easy_data(192, 1);
  const data::LabeledImages test = easy_data(48, 2);
  HybridPipeline pipeline(tiny_pipeline_config());
  const PipelineResult result = pipeline.run(train, test);
  // Stage (a) learns something on the easy task.
  EXPECT_GT(result.dnn_accuracy, 0.5);
  // Stage (c) should not collapse to chance (1/3 for three classes). The
  // bound is chance-referenced rather than DNN-relative: at T=2 this
  // minimum-width model's SGL accuracy varies by ~±0.2 across data draws,
  // so a tight DNN-relative bar flips on single test samples whenever FP
  // summation order changes (e.g. kernel blocking).
  EXPECT_GT(result.sgl_accuracy, 0.42);
  // Conversion report carries one entry per activation site and one clip
  // threshold per SNN layer.
  EXPECT_FALSE(result.conversion_report.sites.empty());
  EXPECT_EQ(result.conversion_report.layer_mu.size(),
            static_cast<std::size_t>(pipeline.snn().size()));
  // Accessors work after run().
  EXPECT_NO_THROW(pipeline.dnn());
  EXPECT_NO_THROW(pipeline.snn());
  EXPECT_EQ(pipeline.snn().time_steps(), 2);
}

TEST(HybridPipelineTest, AccessorsThrowBeforeRun) {
  HybridPipeline pipeline(tiny_pipeline_config());
  EXPECT_THROW(pipeline.dnn(), std::logic_error);
  EXPECT_THROW(pipeline.snn(), std::logic_error);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream stream(line);
  for (std::string cell; std::getline(stream, cell, ',');) cells.push_back(cell);
  return cells;
}

TEST(HybridPipelineTest, TelemetryWritesProbeCsvAndJsonl) {
  const data::LabeledImages train = easy_data(64, 1);
  const data::LabeledImages test = easy_data(80, 2);  // two probed batches of <= 64
  PipelineConfig config = tiny_pipeline_config();
  config.dnn_train.epochs = 1;
  config.sgl.epochs = 1;
  config.telemetry.enabled = true;
  config.telemetry.probe_csv_path = testing::TempDir() + "/ullsnn_pipeline_probe.csv";
  config.telemetry.probe_jsonl_path = testing::TempDir() + "/ullsnn_pipeline_probe.jsonl";
  HybridPipeline pipeline(config);
  pipeline.run(train, test);

  snn::SnnNetwork& net = pipeline.snn();
  std::int64_t neuron_layers = 0;
  for (std::int64_t i = 0; i < net.size(); ++i) {
    if (net.layer(i).neuron_or_null() != nullptr) ++neuron_layers;
  }
  ASSERT_GT(neuron_layers, 0);
  const std::int64_t probed_batches = 2;

  // CSV: build-info comments, a header, then one snn.layer_activity row per
  // neuron layer.
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  for (const std::string& line : read_lines(config.telemetry.probe_csv_path)) {
    if (line.empty() || line[0] == '#') continue;
    if (header.empty()) {
      header = split_csv(line);
    } else {
      rows.push_back(split_csv(line));
    }
  }
  ASSERT_EQ(static_cast<std::int64_t>(rows.size()), neuron_layers);
  std::size_t spikes_col = header.size();
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (header[c] == "spikes_total") spikes_col = c;
  }
  ASSERT_LT(spikes_col, header.size());
  std::int64_t csv_spikes = 0;
  for (const std::vector<std::string>& row : rows) {
    ASSERT_EQ(row.size(), header.size());
    csv_spikes += std::stoll(row[spikes_col]);
  }
  // The probe pass is the last thing run() does to the network, right after
  // a reset_stats(), and the probe's total equals the layer counters' total.
  EXPECT_EQ(csv_spikes, net.total_spikes());
  EXPECT_GT(csv_spikes, 0);

  // JSONL: the same summaries plus one snn.layer_step row per neuron layer,
  // time step and probed batch.
  std::int64_t summaries = 0;
  std::int64_t steps = 0;
  for (const std::string& line : read_lines(config.telemetry.probe_jsonl_path)) {
    if (line.find(R"("kind":"snn.layer_activity")") != std::string::npos) ++summaries;
    if (line.find(R"("kind":"snn.layer_step")") != std::string::npos) ++steps;
  }
  EXPECT_EQ(summaries, neuron_layers);
  EXPECT_EQ(steps, neuron_layers * config.conversion.time_steps * probed_batches);
}

}  // namespace
}  // namespace ullsnn::core
