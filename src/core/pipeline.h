// The full hybrid training pipeline of the paper (Table I's three columns):
//   (a) train a DNN with trainable clip thresholds,
//   (b) convert it to an SNN at T time steps (any ConversionMode),
//   (c) fine-tune the SNN with surrogate-gradient learning.
//
// Each stage's accuracy is reported, matching Table I's columns a/b/c.
//
// With checkpointing enabled the pipeline is crash-safe: every completed
// stage atomically persists its weights plus a manifest, and the training
// stages additionally checkpoint per epoch (weights + optimizer momentum +
// RNG state). A re-run with the same config and directory resumes from the
// last completed stage/epoch and produces bitwise-identical results to an
// uninterrupted run (docs/robustness.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/converter.h"
#include "src/dnn/models.h"
#include "src/dnn/trainer.h"
#include "src/robust/checkpoint.h"
#include "src/snn/sgl_trainer.h"
#include "src/verify/verify.h"

namespace ullsnn::core {

enum class Architecture { kVgg11, kVgg13, kVgg16, kResNet20, kResNet32 };

const char* to_string(Architecture arch);

/// Instantiate an architecture from the zoo.
std::unique_ptr<dnn::Sequential> build_model(Architecture arch,
                                             const dnn::ModelConfig& config, Rng& rng);

/// Stage-level checkpoint/resume behaviour of HybridPipeline::run(). When
/// enabled, run() consumes an existing manifest in `dir` and skips completed
/// stages, and stages (a) and (c) also checkpoint after every epoch, so an
/// interrupt mid-stage loses at most one epoch rather than the whole stage.
struct CheckpointConfig {
  bool enabled = false;
  std::string dir = "ullsnn_checkpoints";
};

/// Telemetry artifacts of HybridPipeline::run(). With `enabled`, a probed
/// inference pass over the first 256 test samples runs after stage (c) to
/// collect per-layer spike rates, membrane statistics, and the live
/// Delta_{alpha,beta} gap. Each path is optional; empty skips that artifact.
struct TelemetryOptions {
  bool enabled = false;
  std::string probe_csv_path;    // per-layer activity summary (CSV)
  std::string probe_jsonl_path;  // per-layer per-step records (JSONL)
};

/// Static-verification gate of HybridPipeline::run(). The graph and
/// conversion preconditions are checked as a preflight before stage (a) —
/// the checks need no trained weights, so misuse surfaces before any
/// training cost is paid — and the planned ConversionReport is re-checked
/// between stages (b) and (c). kWarn logs every diagnostic; kStrict
/// additionally throws verify::VerifyError on error-severity findings.
struct VerifyGateConfig {
  enum class Mode { kOff, kWarn, kStrict };
  Mode mode = Mode::kWarn;
  /// Also run the autograd-tape invariant checker (structural rules plus the
  /// synthetic forward/backward T004 pass) in the preflight.
  bool tape = false;
};

struct PipelineConfig {
  Architecture arch = Architecture::kVgg16;
  dnn::ModelConfig model;
  dnn::TrainConfig dnn_train;
  ConversionConfig conversion;
  snn::SglConfig sgl;
  CheckpointConfig checkpoint;
  TelemetryOptions telemetry;
  VerifyGateConfig verify;
  std::uint64_t weight_seed = 3;
  bool verbose = false;
};

struct PipelineResult {
  double dnn_accuracy = 0.0;        // Table I column (a)
  double converted_accuracy = 0.0;  // Table I column (b)
  double sgl_accuracy = 0.0;        // Table I column (c)
  double dnn_train_seconds = 0.0;
  double sgl_train_seconds = 0.0;
  ConversionReport conversion_report;
};

class HybridPipeline {
 public:
  explicit HybridPipeline(PipelineConfig config);

  /// Run all three stages. The trained DNN and fine-tuned SNN stay owned by
  /// the pipeline for post-hoc inspection (energy audits, distribution dumps).
  PipelineResult run(const data::LabeledImages& train,
                     const data::LabeledImages& test);

  /// Stage accessors (valid after run()).
  dnn::Sequential& dnn();
  snn::SnnNetwork& snn();

  /// The static preflight on its own: builds the (untrained) model and runs
  /// the graph + conversion-precondition checks without applying the gate
  /// mode. Useful for dry-running a config before committing to a run.
  verify::VerifyReport preflight();

 private:
  /// Log `report` and, in strict mode, throw verify::VerifyError on errors.
  void apply_verify_gate(const verify::VerifyReport& report, const char* stage);
  /// Telemetry epilogue of run(): probed inference over the head of the
  /// test set, emitting per-layer activity through the configured sinks.
  void run_probed_inference(const data::LabeledImages& test,
                            const ConversionReport& report);

  PipelineConfig config_;
  std::unique_ptr<dnn::Sequential> dnn_;
  std::unique_ptr<snn::SnnNetwork> snn_;
};

}  // namespace ullsnn::core
