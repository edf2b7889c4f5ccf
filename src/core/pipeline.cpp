#include "src/core/pipeline.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "src/obs/build_info.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/obs/sink.h"
#include "src/util/timer.h"

namespace ullsnn::core {

const char* to_string(Architecture arch) {
  switch (arch) {
    case Architecture::kVgg11: return "VGG-11";
    case Architecture::kVgg13: return "VGG-13";
    case Architecture::kVgg16: return "VGG-16";
    case Architecture::kResNet20: return "ResNet-20";
    case Architecture::kResNet32: return "ResNet-32";
  }
  return "unknown";
}

std::unique_ptr<dnn::Sequential> build_model(Architecture arch,
                                             const dnn::ModelConfig& config, Rng& rng) {
  switch (arch) {
    case Architecture::kVgg11: return dnn::build_vgg(11, config, rng);
    case Architecture::kVgg13: return dnn::build_vgg(13, config, rng);
    case Architecture::kVgg16: return dnn::build_vgg(16, config, rng);
    case Architecture::kResNet20: return dnn::build_resnet(20, config, rng);
    case Architecture::kResNet32: return dnn::build_resnet(32, config, rng);
  }
  throw std::invalid_argument("build_model: unknown architecture");
}

HybridPipeline::HybridPipeline(PipelineConfig config) : config_(std::move(config)) {}

namespace {

/// Test samples of the telemetry probe pass.
constexpr std::int64_t kProbeSamples = 256;

/// First `count` samples of `full` (a copy); the whole set when count
/// exceeds the set.
data::LabeledImages head_subset(const data::LabeledImages& full, std::int64_t count) {
  if (count >= full.size()) return full;
  Shape shape = full.images.shape();
  const std::int64_t per_sample = full.images.numel() / shape[0];
  shape[0] = count;
  data::LabeledImages subset;
  subset.images = Tensor(shape);
  std::memcpy(subset.images.data(), full.images.data(),
              sizeof(float) * static_cast<std::size_t>(count * per_sample));
  subset.labels.assign(full.labels.begin(), full.labels.begin() + count);
  return subset;
}

/// Preflight options for a pipeline config: graph + conversion preconditions
/// (plus tape rules when requested). Delta-identity violations escalate to
/// errors when the telemetry probe would consume the live Delta estimate.
verify::VerifyOptions preflight_options(const PipelineConfig& config) {
  verify::VerifyOptions options;
  options.input_shape = {2, config.model.in_channels, config.model.image_size,
                         config.model.image_size};
  options.conversion_config = config.conversion;
  options.delta_identity_required = config.telemetry.enabled;
  options.tape = config.verify.tape;
  return options;
}

}  // namespace

void HybridPipeline::apply_verify_gate(const verify::VerifyReport& report,
                                       const char* stage) {
  for (const verify::Diagnostic& d : report.diagnostics) {
    obs::logf(d.severity == verify::Severity::kError ? obs::LogLevel::kError
                                                     : obs::LogLevel::kWarn,
              "[verify/%s] %s", stage, verify::to_string(d).c_str());
  }
  ULLSNN_COUNTER_ADD("verify.errors", report.error_count());
  ULLSNN_COUNTER_ADD("verify.warnings", report.warning_count());
  if (config_.verify.mode == VerifyGateConfig::Mode::kStrict && !report.ok()) {
    throw verify::VerifyError(report);
  }
}

verify::VerifyReport HybridPipeline::preflight() {
  Rng rng(config_.weight_seed);
  auto model = build_model(config_.arch, config_.model, rng);
  return verify::verify_model(*model, preflight_options(config_));
}

PipelineResult HybridPipeline::run(const data::LabeledImages& train,
                                   const data::LabeledImages& test) {
  ULLSNN_COUNTER_ADD("pipeline.runs", 1);

  PipelineResult result;
  const CheckpointConfig& ck = config_.checkpoint;
  robust::PipelineManifest manifest;
  if (ck.enabled) {
    std::filesystem::create_directories(ck.dir);
    const std::string mpath = robust::manifest_path(ck.dir);
    if (std::filesystem::exists(mpath)) {
      manifest = robust::load_manifest(mpath);
      if (config_.verbose && manifest.stage_completed > 0) {
        obs::logf(obs::LogLevel::kInfo,
                  "[pipeline] resuming: stage %lld already completed (%s)",
                  static_cast<long long>(manifest.stage_completed), ck.dir.c_str());
        ULLSNN_COUNTER_ADD("pipeline.resumes", 1);
      }
    }
  }
  Rng rng(config_.weight_seed);
  dnn_ = build_model(config_.arch, config_.model, rng);

  // Verification preflight: graph + conversion preconditions need no trained
  // weights, so stages (a) and (b) are both gated here — before any training
  // cost is paid — rather than after stage (a) completes.
  if (config_.verify.mode != VerifyGateConfig::Mode::kOff) {
    apply_verify_gate(verify::verify_model(*dnn_, preflight_options(config_)),
                      "preflight");
  }

  // Stages (a) and (c) share one body: a stage the manifest records as done
  // is replayed from its weights and recorded metrics; otherwise it trains
  // (resuming from its epoch checkpoint) and is persisted with the manifest.
  const auto train_stage = [&](int stage, dnn::TrainLoop& trainer,
                               const std::vector<dnn::Param*>& params,
                               double& accuracy, double& seconds) {
    if (ck.enabled && manifest.stage_completed >= stage) {
      robust::load_params(params, robust::stage_weights_path(ck.dir, stage));
      return;
    }
    Timer timer;
    std::unique_ptr<robust::TrainCheckpointer> epoch_ckpt;
    if (ck.enabled) {
      epoch_ckpt = std::make_unique<robust::TrainCheckpointer>(
          robust::stage_train_state_path(ck.dir, stage));
    }
    trainer.fit(train, nullptr, epoch_ckpt.get());
    seconds = timer.seconds();
    accuracy = trainer.evaluate(test);
    if (ck.enabled) {
      robust::save_params(params, robust::stage_weights_path(ck.dir, stage));
      manifest.stage_completed = stage;
      robust::save_manifest(manifest, robust::manifest_path(ck.dir));
      if (epoch_ckpt) epoch_ckpt->remove();
    }
  };

  // Stage (a): DNN training.
  dnn::TrainConfig dnn_cfg = config_.dnn_train;
  dnn_cfg.verbose = config_.verbose;
  dnn::DnnTrainer dnn_trainer(*dnn_, dnn_cfg);
  train_stage(1, dnn_trainer, dnn_->params(),
              manifest.dnn_accuracy, manifest.dnn_train_seconds);
  result.dnn_accuracy = manifest.dnn_accuracy;
  result.dnn_train_seconds = manifest.dnn_train_seconds;
  ULLSNN_GAUGE_SET("pipeline.dnn_accuracy", result.dnn_accuracy);
  if (config_.verbose) {
    obs::logf(obs::LogLevel::kInfo, "[pipeline] DNN accuracy: %.4f",
              result.dnn_accuracy);
  }

  // Stage (b): conversion (calibrated on the training set). Conversion is
  // deterministic given the stage-(a) weights, so a resumed run rebuilds the
  // SNN topology and the report by re-converting, then (for stage >= 2)
  // overlays the persisted weights — identical to the uninterrupted run.
  snn_ = convert(*dnn_, train, config_.conversion, &result.conversion_report);
  if (ck.enabled && manifest.stage_completed >= 2) {
    robust::load_params(snn_->params(), robust::stage_weights_path(ck.dir, 2));
    result.converted_accuracy = manifest.converted_accuracy;
  } else {
    result.converted_accuracy = snn::evaluate_snn(*snn_, test);
    if (ck.enabled) {
      robust::save_params(snn_->params(), robust::stage_weights_path(ck.dir, 2));
      manifest.stage_completed = 2;
      manifest.converted_accuracy = result.converted_accuracy;
      robust::save_manifest(manifest, robust::manifest_path(ck.dir));
    }
  }
  ULLSNN_GAUGE_SET("pipeline.converted_accuracy", result.converted_accuracy);
  if (config_.verbose) {
    obs::logf(obs::LogLevel::kInfo,
              "[pipeline] converted SNN accuracy (T=%lld, %s): %.4f",
              static_cast<long long>(config_.conversion.time_steps),
              to_string(config_.conversion.mode), result.converted_accuracy);
  }

  // Gate before stage (c): the planned scaling report now exists; validate
  // the (alpha, beta, V_th) entries and their alignment with the model's
  // activation sites before spending the SGL fine-tuning epochs.
  if (config_.verify.mode != VerifyGateConfig::Mode::kOff) {
    apply_verify_gate(
        verify::check_conversion_report(result.conversion_report,
                                        verify::count_activation_sites(*dnn_)),
        "report");
  }

  // Stage (c): SGL fine-tuning.
  snn::SglConfig sgl_cfg = config_.sgl;
  sgl_cfg.verbose = config_.verbose;
  snn::SglTrainer sgl_trainer(*snn_, sgl_cfg);
  train_stage(3, sgl_trainer, snn_->params(),
              manifest.sgl_accuracy, manifest.sgl_train_seconds);
  result.sgl_accuracy = manifest.sgl_accuracy;
  result.sgl_train_seconds = manifest.sgl_train_seconds;
  ULLSNN_GAUGE_SET("pipeline.sgl_accuracy", result.sgl_accuracy);
  if (config_.verbose) {
    obs::logf(obs::LogLevel::kInfo, "[pipeline] SNN accuracy after SGL: %.4f",
              result.sgl_accuracy);
  }

  if (config_.telemetry.enabled) run_probed_inference(test, result.conversion_report);
  return result;
}

void HybridPipeline::run_probed_inference(const data::LabeledImages& test,
                                          const ConversionReport& report) {
  const TelemetryOptions& tel = config_.telemetry;
  const data::LabeledImages probe_set = head_subset(test, kProbeSamples);

  obs::SnnRuntimeProbe::Config probe_cfg;
  probe_cfg.keep_step_stats = !tel.probe_jsonl_path.empty();
  obs::SnnRuntimeProbe probe(*snn_, probe_cfg);
  probe.set_layer_mu(report.layer_mu);
  snn_->reset_stats();
  snn::evaluate_snn(*snn_, probe_set);

  if (!tel.probe_csv_path.empty()) {
    obs::CsvSink csv(tel.probe_csv_path, obs::build_info_comment());
    probe.emit_summary_records(csv);
    csv.flush();
  }
  if (!tel.probe_jsonl_path.empty()) {
    obs::JsonlSink jsonl(tel.probe_jsonl_path);
    probe.emit_summary_records(jsonl);
    probe.emit_step_records(jsonl);
    jsonl.flush();
  }
  if (config_.verbose) {
    obs::logf(obs::LogLevel::kInfo,
              "[pipeline] probed %lld samples: %lld spikes across %zu layers",
              static_cast<long long>(probe.samples()),
              static_cast<long long>(probe.total_spikes()),
              probe.summaries().size());
  }
}

dnn::Sequential& HybridPipeline::dnn() {
  if (!dnn_) throw std::logic_error("HybridPipeline::dnn before run()");
  return *dnn_;
}

snn::SnnNetwork& HybridPipeline::snn() {
  if (!snn_) throw std::logic_error("HybridPipeline::snn before run()");
  return *snn_;
}

}  // namespace ullsnn::core
