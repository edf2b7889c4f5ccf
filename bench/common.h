// Shared harness utilities for the paper-reproduction benches.
//
// Scale control: every bench reads ULLSNN_BENCH_SCALE from the environment:
//   quick   — smoke-test sizes (seconds per bench; trends noisy)
//   default — single-core-friendly sizes (a few minutes; trends reproduce)
//   full    — wider nets / more data / more epochs (tens of minutes)
// The paper's absolute numbers come from full-width nets on real CIFAR and a
// 2080 Ti; these benches reproduce the SHAPE of each table/figure at reduced
// scale (see DESIGN.md's substitution table).
//
// Model cache: trained DNNs are serialized under ./ullsnn_bench_cache/ keyed
// by their configuration, so the six bench binaries share the expensive
// training stage. Delete the directory to retrain from scratch.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/core/pipeline.h"
#include "src/obs/build_info.h"
#include "src/util/serialize.h"
#include "src/util/table.h"

namespace ullsnn::bench {

/// Write a bench table as CSV with the build-provenance stamp (compiler,
/// flags, git hash) as leading "# " comment lines, so every
/// result file records how the binary that produced it was built.
inline void write_csv(const Table& table, const std::string& path) {
  table.write_csv(path, obs::build_info_comment());
}

enum class Scale { kQuick, kDefault, kFull };

inline Scale read_scale() {
  const char* env = std::getenv("ULLSNN_BENCH_SCALE");
  if (env == nullptr) return Scale::kDefault;
  const std::string s = env;
  if (s == "quick") return Scale::kQuick;
  if (s == "full") return Scale::kFull;
  return Scale::kDefault;
}

struct BenchSetup {
  std::int64_t train_size = 768;
  std::int64_t test_size = 256;
  std::int64_t dnn_epochs = 15;
  std::int64_t sgl_epochs = 5;
  float width = 0.125F;
  /// ResNet stages start at 16 channels; below width 0.25 they degenerate to
  /// 4-channel maps that cannot learn the task, so ResNets get their own
  /// floor.
  float resnet_width = 0.25F;
  std::int64_t batch_size = 32;

  float width_for(core::Architecture arch) const {
    const bool is_resnet = arch == core::Architecture::kResNet20 ||
                           arch == core::Architecture::kResNet32;
    return is_resnet ? std::max(width, resnet_width) : width;
  }
};

inline BenchSetup setup_for(Scale scale) {
  switch (scale) {
    case Scale::kQuick:
      return {256, 128, 5, 2, 0.125F, 0.125F, 32};
    case Scale::kDefault:
      // Reduced-width deep VGGs need ~12 epochs at 1024 samples to escape
      // their initial plateau before the 60%-milestone LR decay hits; smaller
      // budgets make training unreliable on one core.
      return {1024, 256, 20, 3, 0.125F, 0.25F, 32};
    case Scale::kFull:
      return {2048, 512, 40, 8, 0.25F, 0.375F, 32};
  }
  return {};
}

inline const char* scale_name(Scale scale) {
  switch (scale) {
    case Scale::kQuick: return "quick";
    case Scale::kDefault: return "default";
    case Scale::kFull: return "full";
  }
  return "?";
}

/// Deterministic train/test pair for an n-class synthetic CIFAR analogue.
struct BenchData {
  data::LabeledImages train;
  data::LabeledImages test;
  data::SyntheticCifarSpec spec;
};

inline BenchData make_data(std::int64_t num_classes, const BenchSetup& setup) {
  BenchData d;
  d.spec.num_classes = num_classes;
  data::SyntheticCifar gen(d.spec);
  d.train = gen.generate(setup.train_size, 1);
  d.test = gen.generate(setup.test_size, 2);
  const data::ChannelStats stats = data::standardize(d.train);
  data::apply_standardize(d.test, stats);
  return d;
}

// ---- model weight cache ----

inline std::string cache_dir() { return "ullsnn_bench_cache"; }

inline std::string model_cache_key(core::Architecture arch, std::int64_t classes,
                                   const BenchSetup& setup) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s_c%lld_w%.3f_n%lld_e%lld.ckpt",
                core::to_string(arch), static_cast<long long>(classes),
                static_cast<double>(setup.width_for(arch)),
                static_cast<long long>(setup.train_size),
                static_cast<long long>(setup.dnn_epochs));
  std::string key = buf;
  for (char& c : key) {
    if (c == '/' || c == ' ') c = '_';
  }
  return cache_dir() + "/" + key;
}

inline void save_model(dnn::Sequential& model, const std::string& path) {
  TensorDict dict;
  std::int64_t i = 0;
  for (const dnn::Param* p : model.params()) {
    dict["p" + std::to_string(i++)] = p->value;
  }
  std::filesystem::create_directories(cache_dir());
  save_tensors(dict, path);
}

inline bool load_model(dnn::Sequential& model, const std::string& path) {
  if (!std::filesystem::exists(path)) return false;
  const TensorDict dict = load_tensors(path);
  std::vector<dnn::Param*> params = model.params();
  if (dict.size() != params.size()) return false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto it = dict.find("p" + std::to_string(i));
    if (it == dict.end() || it->second.shape() != params[i]->value.shape()) {
      return false;
    }
    params[i]->value = it->second;
  }
  return true;
}

/// Build the architecture and either load cached weights or train + cache.
inline std::unique_ptr<dnn::Sequential> trained_dnn(core::Architecture arch,
                                                    std::int64_t classes,
                                                    const BenchSetup& setup,
                                                    const BenchData& data,
                                                    double* test_acc_out = nullptr) {
  dnn::ModelConfig mc;
  mc.width = setup.width_for(arch);
  mc.num_classes = classes;
  Rng rng(3);
  auto model = core::build_model(arch, mc, rng);
  const std::string path = model_cache_key(arch, classes, setup);
  if (!load_model(*model, path)) {
    std::printf("[bench] training %s (%lld classes, %lld epochs)...\n",
                core::to_string(arch), static_cast<long long>(classes),
                static_cast<long long>(setup.dnn_epochs));
    std::fflush(stdout);
    dnn::TrainConfig tc;
    tc.epochs = setup.dnn_epochs;
    tc.batch_size = setup.batch_size;
    tc.augment = false;  // single-core budget: more epochs beat augmentation
    dnn::DnnTrainer trainer(*model, tc);
    trainer.fit(data.train);
    save_model(*model, path);
  }
  if (test_acc_out != nullptr) {
    *test_acc_out = dnn::evaluate_model(*model, data.test, setup.batch_size);
  }
  return model;
}

}  // namespace ullsnn::bench
