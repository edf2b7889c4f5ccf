// Telemetry tour: the full hybrid pipeline with every observability surface
// switched on.
//
// Usage:
//   telemetry_tour [--out DIR] [--timesteps T] [--classes N]
//                  [--dnn-epochs N] [--sgl-epochs N] [--train N] [--test N]
//
// Produces under --out (default "ullsnn_telemetry"):
//   probe.csv     per-layer spike activity summary (incl. the live Delta gap)
//   probe.jsonl   per-layer per-step records (membrane stats + histograms)
//   metrics.csv   final counter/gauge/histogram snapshot
//
// Set ULLSNN_LOG_LEVEL=debug|info|warn|error|off to control console output.
#include <cstdio>
#include <exception>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

#include "src/core/pipeline.h"
#include "src/obs/build_info.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"

using namespace ullsnn;

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "expected --flag value pairs\n");
      return 1;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  const auto get = [&](const char* key, const std::string& fallback) {
    const auto it = args.find(key);
    return it == args.end() ? fallback : it->second;
  };

  const std::string out_dir = get("out", "ullsnn_telemetry");
  std::filesystem::create_directories(out_dir);

  std::printf("%s\n", obs::build_info_comment().c_str());

  core::PipelineConfig config;
  config.arch = core::Architecture::kVgg11;
  config.model.num_classes = std::stoll(get("classes", "10"));
  config.model.width = 0.125F;
  config.dnn_train.epochs = std::stoll(get("dnn-epochs", "8"));
  config.dnn_train.augment = false;
  config.sgl.epochs = std::stoll(get("sgl-epochs", "2"));
  config.sgl.augment = false;
  config.conversion.time_steps = std::stoll(get("timesteps", "2"));
  config.verbose = true;
  config.telemetry.enabled = true;
  config.telemetry.probe_csv_path = out_dir + "/probe.csv";
  config.telemetry.probe_jsonl_path = out_dir + "/probe.jsonl";

  const std::int64_t train_n = std::stoll(get("train", "512"));
  const std::int64_t test_n = std::stoll(get("test", "128"));
  data::SyntheticCifarSpec spec;
  spec.num_classes = config.model.num_classes;
  data::SyntheticCifar gen(spec);
  data::LabeledImages train = gen.generate(train_n, 1);
  data::LabeledImages test = gen.generate(test_n, 2);
  const data::ChannelStats stats = data::standardize(train);
  data::apply_standardize(test, stats);

  core::HybridPipeline pipeline(config);
  const core::PipelineResult result = pipeline.run(train, test);

  obs::write_metrics_csv(obs::Registry::instance().snapshot(),
                         out_dir + "/metrics.csv");

  obs::logf(obs::LogLevel::kInfo,
            "accuracies: DNN %.4f | converted %.4f | after SGL %.4f",
            result.dnn_accuracy, result.converted_accuracy, result.sgl_accuracy);
  obs::logf(obs::LogLevel::kInfo,
            "artifacts in %s: probe.csv, probe.jsonl, metrics.csv",
            out_dir.c_str());
  return 0;
}

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry_tour: %s\n", e.what());
    return 1;
  }
}
