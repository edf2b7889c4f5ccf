// Tiny instances of the two training stages that share dnn::TrainLoop, for
// guard and resume tests that must hold for both: stage (a) trains a small
// MLP with a ThresholdReLU; stage (c) fine-tunes that MLP, converted to a
// 2-step SNN, with SGL.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/converter.h"
#include "src/data/dataset.h"
#include "src/data/synthetic_cifar.h"
#include "src/dnn/activations.h"
#include "src/dnn/linear.h"
#include "src/dnn/sequential.h"
#include "src/dnn/trainer.h"
#include "src/robust/health.h"
#include "src/snn/sgl_trainer.h"

namespace ullsnn::robust {

/// A linearly separable 3-class task of 3x`image_size`^2 images.
inline data::LabeledImages easy_data(std::int64_t n, std::uint64_t salt,
                                     std::int64_t image_size = 8) {
  data::SyntheticCifarSpec spec;
  spec.image_size = image_size;
  spec.num_classes = 3;
  spec.sign_flip_prob = 0.0F;
  spec.occluder_prob = 0.0F;
  spec.noise_stddev = 0.15F;
  data::SyntheticCifar gen(spec);
  data::LabeledImages d = gen.generate(n, salt);
  data::standardize(d);
  return d;
}

enum class Stage { kDnn, kSgl };

inline std::string stage_name(const testing::TestParamInfo<Stage>& info) {
  return info.param == Stage::kDnn ? "Dnn" : "Sgl";
}

inline void PrintTo(Stage stage, std::ostream* os) {
  *os << (stage == Stage::kDnn ? "dnn" : "sgl");
}

/// The knobs the tests set; both stage configs have them.
struct StageSettings {
  std::int64_t epochs = 5;
  bool augment = false;
  GuardConfig guard;
};

/// One network of either stage plus a trainer over it. Two instances built
/// from the same arguments start bitwise identical.
class TinyStage {
 public:
  TinyStage(Stage stage, const StageSettings& settings, const data::LabeledImages& train)
      : stage_(stage), settings_(settings) {
    Rng rng(5);
    dnn_.emplace<dnn::Flatten>();
    dnn_.emplace<dnn::Linear>(3 * 8 * 8, 16, /*bias=*/true, rng);
    dnn_.emplace<dnn::ThresholdReLU>(1.0F);
    dnn_.emplace<dnn::Linear>(16, 3, /*bias=*/false, rng);
    if (stage == Stage::kSgl) {
      core::ConversionConfig conversion;
      conversion.time_steps = 2;
      snn_ = core::convert(dnn_, train, conversion);
    }
    restart();
  }

  /// Replace the trainer by a fresh one over the same network: fresh RNG,
  /// momentum and guard, as in a restarted process.
  void restart() {
    if (stage_ == Stage::kDnn) {
      dnn::TrainConfig config;
      config.epochs = settings_.epochs;
      config.batch_size = 16;
      config.lr = 0.05F;
      config.augment = settings_.augment;
      config.guard = settings_.guard;
      trainer_ = std::make_unique<dnn::DnnTrainer>(dnn_, config);
    } else {
      snn::SglConfig config;
      config.epochs = settings_.epochs;
      config.batch_size = 16;
      config.lr = 0.01F;
      config.augment = settings_.augment;
      config.guard = settings_.guard;
      trainer_ = std::make_unique<snn::SglTrainer>(*snn_, config);
    }
  }

  dnn::TrainLoop& trainer() { return *trainer_; }

  /// The trained network's parameters.
  std::vector<dnn::Param*> params() {
    return stage_ == Stage::kDnn ? dnn_.params() : snn_->params();
  }

 private:
  Stage stage_;
  StageSettings settings_;
  dnn::Sequential dnn_;
  std::unique_ptr<snn::SnnNetwork> snn_;
  std::unique_ptr<dnn::TrainLoop> trainer_;
};

}  // namespace ullsnn::robust
