// Resume determinism: a training run of either stage interrupted mid-stage
// and resumed from its epoch checkpoint must be bitwise-identical to an
// uninterrupted run,
// and a pipeline resumed from a completed stage must reproduce the
// uninterrupted PipelineResult exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/pipeline.h"
#include "src/robust/checkpoint.h"
#include "tests/robust/tiny_stage.h"

namespace ullsnn::robust {
namespace {

std::uint32_t float_bits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, 4);
  return bits;
}

void expect_params_bitwise_equal(const std::vector<dnn::Param*>& pa,
                                 const std::vector<dnn::Param*>& pb) {
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.numel(), pb[i]->value.numel()) << pa[i]->name;
    for (std::int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(float_bits(pa[i]->value[j]), float_bits(pb[i]->value[j]))
          << pa[i]->name << "[" << j << "]";
    }
  }
}

std::unique_ptr<dnn::Sequential> make_model() {
  auto model = std::make_unique<dnn::Sequential>();
  Rng rng(5);
  model->emplace<dnn::Flatten>();
  model->emplace<dnn::Linear>(3 * 8 * 8, 3, /*bias=*/true, rng);
  return model;
}

dnn::TrainConfig make_train_config() {
  dnn::TrainConfig config;
  config.epochs = 6;
  config.batch_size = 16;
  config.lr = 0.05F;
  config.augment = true;  // augmentation consumes the RNG: the hard case
  return config;
}

// Both training stages run the same loop, so each resume case runs for both.
class TrainerResumeTest : public testing::TestWithParam<Stage> {
 protected:
  /// One file per case and stage: ctest runs the cases in parallel.
  std::string checkpoint_path(const std::string& name) const {
    return testing::TempDir() + "/ullsnn_" + name + "_" +
           (GetParam() == Stage::kDnn ? "dnn" : "sgl") + ".ckpt";
  }
};

TEST_P(TrainerResumeTest, InterruptedRunResumesBitwiseIdentically) {
  const data::LabeledImages train = easy_data(96, 1);
  const std::string ckpt = checkpoint_path("trainer_resume");
  std::filesystem::remove(ckpt);
  // Augmentation consumes the RNG: the hard case.
  const StageSettings settings{.epochs = 6, .augment = true, .guard = {}};

  // Reference: 6 uninterrupted epochs, no checkpointing.
  TinyStage ref(GetParam(), settings, train);
  ref.trainer().fit(train);

  // Interrupted run: the epoch hook kills the process stand-in (throws) at
  // the top of epoch 3, after epochs 0-2 were checkpointed.
  TinyStage run(GetParam(), settings, train);
  {
    TrainCheckpointer checkpointer(ckpt);
    run.trainer().set_epoch_hook([](std::int64_t epoch) {
      if (epoch == 3) throw std::runtime_error("simulated crash");
    });
    EXPECT_THROW(run.trainer().fit(train, nullptr, &checkpointer), std::runtime_error);
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Resume in a fresh trainer (fresh RNG, fresh momentum — everything must
  // come from the checkpoint) and finish the remaining epochs.
  run.restart();
  TrainCheckpointer checkpointer(ckpt);
  const std::vector<dnn::EpochStats> history =
      run.trainer().fit(train, nullptr, &checkpointer);
  // Only epochs 3..5 were run after the resume.
  EXPECT_EQ(history.size(), 3U);
  EXPECT_EQ(history.front().epoch, 3);

  expect_params_bitwise_equal(run.params(), ref.params());
  std::filesystem::remove(ckpt);
}

TEST_P(TrainerResumeTest, ResumeAfterRollbackKeepsTheBackoff) {
  // A run that rolled back trains on at a reduced LR with part of its retry
  // budget spent; a crash and resume must not reset either.
  const data::LabeledImages train = easy_data(96, 1);
  const std::string ckpt = checkpoint_path("rollback_resume");
  std::filesystem::remove(ckpt);
  const StageSettings settings{
      .epochs = 6, .augment = true, .guard = {.policy = GuardPolicy::kRollback}};
  // One NaN at the top of epoch 2 (the retry is not re-poisoned); optionally
  // a crash at the top of epoch 4.
  const auto install_hooks = [](TinyStage& stage, bool crash) {
    dnn::Param* first = stage.params().front();
    auto poisoned = std::make_shared<bool>(false);
    stage.trainer().set_epoch_hook([first, poisoned, crash](std::int64_t epoch) {
      if (epoch == 2 && !*poisoned) {
        *poisoned = true;
        first->value[0] = std::numeric_limits<float>::quiet_NaN();
      }
      if (crash && epoch == 4) throw std::runtime_error("simulated crash");
    });
  };

  TinyStage ref(GetParam(), settings, train);
  install_hooks(ref, /*crash=*/false);
  ref.trainer().fit(train);

  TinyStage run(GetParam(), settings, train);
  install_hooks(run, /*crash=*/true);
  {
    TrainCheckpointer checkpointer(ckpt);
    EXPECT_THROW(run.trainer().fit(train, nullptr, &checkpointer), std::runtime_error);
  }
  run.restart();
  TrainCheckpointer checkpointer(ckpt);
  const std::vector<dnn::EpochStats> history =
      run.trainer().fit(train, nullptr, &checkpointer);
  ASSERT_EQ(history.size(), 2U);
  EXPECT_EQ(history.front().epoch, 4);

  expect_params_bitwise_equal(run.params(), ref.params());
  std::filesystem::remove(ckpt);
}

INSTANTIATE_TEST_SUITE_P(BothStages, TrainerResumeTest,
                         testing::Values(Stage::kDnn, Stage::kSgl), stage_name);

TEST(TrainerResumeTest, CheckpointerRestoreRejectsMismatchedModel) {
  const data::LabeledImages train = easy_data(48, 1);
  const std::string ckpt = testing::TempDir() + "/ullsnn_mismatch.ckpt";
  std::filesystem::remove(ckpt);
  auto model = make_model();
  dnn::TrainConfig config = make_train_config();
  config.epochs = 1;
  dnn::DnnTrainer trainer(*model, config);
  TrainCheckpointer checkpointer(ckpt);
  trainer.fit(train, nullptr, &checkpointer);

  // A differently-shaped model must not half-load the checkpoint.
  dnn::Sequential other;
  Rng rng(9);
  other.emplace<dnn::Flatten>();
  other.emplace<dnn::Linear>(3 * 8 * 8, 5, /*bias=*/true, rng);
  dnn::DnnTrainer other_trainer(other, config);
  EXPECT_THROW(other_trainer.fit(train, nullptr, &checkpointer),
               std::runtime_error);
  std::filesystem::remove(ckpt);
}

// ---- pipeline stage-level resume ----

core::PipelineConfig tiny_pipeline_config() {
  core::PipelineConfig config;
  config.arch = core::Architecture::kVgg11;
  config.model.width = 0.0625F;
  config.model.num_classes = 3;
  config.model.image_size = 32;
  config.dnn_train.epochs = 4;
  config.dnn_train.batch_size = 32;
  config.dnn_train.augment = false;
  config.conversion.time_steps = 2;
  config.sgl.epochs = 2;
  config.sgl.augment = false;
  return config;
}

TEST(PipelineResumeTest, StageResumeReproducesUninterruptedResult) {
  const data::LabeledImages train = easy_data(128, 1, /*image_size=*/32);
  const data::LabeledImages test = easy_data(32, 2, /*image_size=*/32);
  const std::string dir = testing::TempDir() + "/ullsnn_pipeline_resume";
  std::filesystem::remove_all(dir);

  // Run A: full checkpointed run.
  core::PipelineConfig config = tiny_pipeline_config();
  config.checkpoint.enabled = true;
  config.checkpoint.dir = dir;
  core::HybridPipeline pipeline_a(config);
  const core::PipelineResult a = pipeline_a.run(train, test);
  ASSERT_TRUE(std::filesystem::exists(manifest_path(dir)));

  // Simulate an interrupt after stage (a): rewind the manifest so stages (b)
  // and (c) appear never to have happened. Their stale artifacts on disk must
  // be ignored and overwritten.
  PipelineManifest manifest = load_manifest(manifest_path(dir));
  EXPECT_EQ(manifest.stage_completed, 3);
  manifest.stage_completed = 1;
  save_manifest(manifest, manifest_path(dir));

  // Run B resumes: skips stage (a) by loading its weights, reruns (b) + (c).
  core::HybridPipeline pipeline_b(config);
  const core::PipelineResult b = pipeline_b.run(train, test);
  EXPECT_EQ(b.dnn_accuracy, a.dnn_accuracy);
  EXPECT_EQ(b.converted_accuracy, a.converted_accuracy);
  EXPECT_EQ(b.sgl_accuracy, a.sgl_accuracy);
  EXPECT_EQ(b.conversion_report.sites.size(), a.conversion_report.sites.size());

  // Run C: no checkpointing at all — enabling checkpoints must not have
  // changed the computation.
  core::PipelineConfig plain = tiny_pipeline_config();
  core::HybridPipeline pipeline_c(plain);
  const core::PipelineResult c = pipeline_c.run(train, test);
  EXPECT_EQ(c.dnn_accuracy, a.dnn_accuracy);
  EXPECT_EQ(c.converted_accuracy, a.converted_accuracy);
  EXPECT_EQ(c.sgl_accuracy, a.sgl_accuracy);

  // And the resumed pipeline's final SNN weights match the uninterrupted ones.
  const std::vector<dnn::Param*> pa = pipeline_a.snn().params();
  const std::vector<dnn::Param*> pb = pipeline_b.snn().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(float_bits(pa[i]->value[j]), float_bits(pb[i]->value[j]))
          << pa[i]->name << "[" << j << "]";
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(PipelineResumeTest, FullyCompletedRunIsServedFromCheckpoints) {
  const data::LabeledImages train = easy_data(96, 1, /*image_size=*/32);
  const data::LabeledImages test = easy_data(24, 2, /*image_size=*/32);
  const std::string dir = testing::TempDir() + "/ullsnn_pipeline_done";
  std::filesystem::remove_all(dir);
  core::PipelineConfig config = tiny_pipeline_config();
  config.dnn_train.epochs = 2;
  config.sgl.epochs = 1;
  config.checkpoint.enabled = true;
  config.checkpoint.dir = dir;
  core::HybridPipeline first(config);
  const core::PipelineResult a = first.run(train, test);
  // Second run: every stage is already complete, so no training happens and
  // the recorded metrics are replayed verbatim.
  core::HybridPipeline second(config);
  const core::PipelineResult b = second.run(train, test);
  EXPECT_EQ(b.dnn_accuracy, a.dnn_accuracy);
  EXPECT_EQ(b.converted_accuracy, a.converted_accuracy);
  EXPECT_EQ(b.sgl_accuracy, a.sgl_accuracy);
  EXPECT_EQ(b.dnn_train_seconds, a.dnn_train_seconds);
  EXPECT_EQ(b.sgl_train_seconds, a.sgl_train_seconds);
  std::filesystem::remove_all(dir);
}

TEST(ManifestTest, RoundTripIsExact) {
  const std::string path = testing::TempDir() + "/ullsnn_manifest.bin";
  PipelineManifest m;
  m.stage_completed = 2;
  m.dnn_accuracy = 0.912345678901234;
  m.converted_accuracy = 0.75;
  m.sgl_accuracy = 0.875;
  m.dnn_train_seconds = 123.456789;
  m.sgl_train_seconds = 0.015625;
  save_manifest(m, path);
  const PipelineManifest r = load_manifest(path);
  EXPECT_EQ(r.stage_completed, m.stage_completed);
  EXPECT_EQ(r.dnn_accuracy, m.dnn_accuracy);
  EXPECT_EQ(r.converted_accuracy, m.converted_accuracy);
  EXPECT_EQ(r.sgl_accuracy, m.sgl_accuracy);
  EXPECT_EQ(r.dnn_train_seconds, m.dnn_train_seconds);
  EXPECT_EQ(r.sgl_train_seconds, m.sgl_train_seconds);
  std::filesystem::remove(path);
}

TEST(ManifestTest, MissingFileThrows) {
  EXPECT_THROW(load_manifest(testing::TempDir() + "/ullsnn_no_such_manifest.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace ullsnn::robust
