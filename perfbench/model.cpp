#include "perfbench/model.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "src/core/activation_collector.h"
#include "src/core/converter.h"
#include "src/core/pipeline.h"
#include "src/data/dataset.h"
#include "src/dnn/trainer.h"
#include "src/tensor/arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/util/serialize.h"

namespace perfbench {

namespace art = ullsnn::artifact;
namespace data = ullsnn::data;

Inputs make_inputs(std::int64_t heldout_images) {
  data::SyntheticCifarSpec spec;
  spec.num_classes = 10;
  const data::SyntheticCifar gen(spec);
  Inputs in;
  in.train = gen.generate(kTrainImages, 1);
  in.heldout = gen.generate(heldout_images, 2);
  const data::ChannelStats stats = data::standardize(in.train);
  data::apply_standardize(in.heldout, stats);
  return in;
}

Tensor image_at(const data::LabeledImages& set, std::int64_t index) {
  const Shape shape(set.images.shape().begin() + 1, set.images.shape().end());
  Tensor out(shape);
  const std::int64_t numel = ullsnn::shape_numel(shape);
  std::memcpy(out.data(), set.images.data() + index * numel,
              static_cast<std::size_t>(numel) * sizeof(float));
  return out;
}

Tensor batch_of(const data::LabeledImages& set,
                const std::vector<std::int64_t>& indices) {
  Shape shape = set.images.shape();
  const std::int64_t numel = set.images.numel() / shape[0];
  shape[0] = static_cast<std::int64_t>(indices.size());
  Tensor out(shape);
  for (std::size_t k = 0; k < indices.size(); ++k) {
    std::memcpy(out.data() + static_cast<std::int64_t>(k) * numel,
                set.images.data() + indices[k] * numel,
                static_cast<std::size_t>(numel) * sizeof(float));
  }
  return out;
}

namespace {

std::string param_key(std::size_t i) {
  std::string key = std::to_string(i);
  key.insert(key.begin(), 'p');
  return key;
}

std::unique_ptr<ullsnn::dnn::Sequential> build_dnn() {
  ullsnn::dnn::ModelConfig config;
  config.width = kWidth;
  config.num_classes = 10;
  ullsnn::Rng rng(3);
  return ullsnn::core::build_model(ullsnn::core::Architecture::kVgg11, config,
                                   rng);
}

}  // namespace

void ensure_fixture(const std::string& path, const Inputs& inputs) {
  if (std::filesystem::exists(path)) return;
  auto model = build_dnn();
  ullsnn::dnn::TrainConfig config;
  config.epochs = kEpochs;
  config.batch_size = 32;
  config.augment = false;
  ullsnn::dnn::DnnTrainer(*model, config).fit(inputs.train);
  ullsnn::TensorDict dict;
  const std::vector<ullsnn::dnn::Param*> params = model->params();
  for (std::size_t i = 0; i < params.size(); ++i) dict[param_key(i)] = params[i]->value;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  const std::string tmp = path + ".tmp";
  ullsnn::save_tensors(dict, tmp);
  std::filesystem::rename(tmp, path);
  std::printf("fixture: trained VGG-11, held-out DNN accuracy %.4f\n",
              ullsnn::dnn::evaluate_model(*model, inputs.heldout, 64));
}

std::unique_ptr<ullsnn::dnn::Sequential> load_fixture(const std::string& path) {
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error("fixture missing: " + path);
  }
  const ullsnn::TensorDict dict = ullsnn::load_tensors(path);  // CRC-checked
  auto model = build_dnn();
  const std::vector<ullsnn::dnn::Param*> params = model->params();
  if (dict.size() != params.size()) {
    throw std::runtime_error("fixture does not match the VGG-11 parameters");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto it = dict.find(param_key(i));
    if (it == dict.end() || it->second.shape() != params[i]->value.shape()) {
      throw std::runtime_error("fixture parameter " + param_key(i) +
                               " is missing or has the wrong shape");
    }
    params[i]->value = it->second;
  }
  return model;
}

Conversion convert_and_pack(ullsnn::dnn::Sequential& dnn,
                            const data::LabeledImages& calibration,
                            const std::string& artifact_path,
                            Precision precision) {
  Conversion c;
  auto t0 = Clock::now();
  const ullsnn::core::ActivationProfile profile =
      ullsnn::core::collect_activations(dnn, calibration);
  c.collect_s = seconds_since(t0);

  ullsnn::core::ConversionConfig config;
  config.time_steps = kTimeSteps;
  t0 = Clock::now();
  const ullsnn::core::ConversionReport plan =
      ullsnn::core::plan_conversion(profile, config);
  c.plan_ms = seconds_since(t0) * 1e3;
  if (plan.sites.empty()) throw std::runtime_error("conversion planned no sites");

  t0 = Clock::now();
  c.net = ullsnn::core::convert(dnn, profile, config);
  c.convert_ms = seconds_since(t0) * 1e3;

  art::PackOptions options;
  options.input_shape = Shape(calibration.images.shape().begin() + 1,
                              calibration.images.shape().end());
  options.precision = precision;
  t0 = Clock::now();
  art::pack_network(*c.net, artifact_path, options);
  c.pack_ms = seconds_since(t0) * 1e3;
  return c;
}

std::int64_t argmax_row(const float* row, std::int64_t classes) {
  std::int64_t best = 0;
  for (std::int64_t k = 1; k < classes; ++k) {
    if (row[k] > row[best]) best = k;
  }
  return best;
}

bool all_finite(const float* values, std::int64_t count) {
  for (std::int64_t k = 0; k < count; ++k) {
    if (!std::isfinite(values[k])) return false;
  }
  return true;
}

bool bitwise_equal(const float* a, const float* b, std::int64_t count) {
  return std::memcmp(a, b, static_cast<std::size_t>(count) * sizeof(float)) == 0;
}

std::vector<WeightedLayer> weighted_layers(const art::UllsnnArtifact& artifact) {
  std::vector<WeightedLayer> out;
  std::int64_t convs = 0;
  std::int64_t fcs = 0;
  const auto& layers = artifact.arch().layers;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i].kind == art::LayerKind::kConv2d) {
      out.push_back({static_cast<std::int64_t>(i), "conv" + std::to_string(convs++)});
    } else if (layers[i].kind == art::LayerKind::kLinear) {
      out.push_back({static_cast<std::int64_t>(i), "fc" + std::to_string(fcs++)});
    }
  }
  return out;
}

// ---- LayerTimer ------------------------------------------------------------

void LayerTimer::attach(ullsnn::snn::SnnNetwork& net, std::int64_t capture_step) {
  capture_step_ = capture_step;
  net.set_observer(this);
  net.set_step_hook(
      [this](ullsnn::snn::SnnNetwork&, std::int64_t) { on_step_end(); });
}

void LayerTimer::on_sequence_begin(ullsnn::snn::SnnNetwork& net,
                                   const Shape& /*input_shape*/,
                                   std::int64_t /*time_steps*/, bool /*train*/) {
  current_ = ForwardRecord{};
  current_.layer_ms.assign(static_cast<std::size_t>(net.size()), 0.0);
  current_.input_density.assign(static_cast<std::size_t>(net.size()), 0.0);
  for (std::int64_t i = 0; i < net.size(); ++i) net.layer(i).reset_stats();
  current_.start = Clock::now();
  last_ = current_.start;
}

void LayerTimer::on_layer_step(ullsnn::snn::SnnNetwork& /*net*/,
                               std::int64_t layer_index, const Tensor& output,
                               std::int64_t t) {
  const Clock::time_point now = Clock::now();
  current_.layer_ms[static_cast<std::size_t>(layer_index)] += ms_between(last_, now);
  if (t == capture_step_) captured_.push_back(output);
  last_ = Clock::now();
}

void LayerTimer::on_step_end() {
  current_.step_end.push_back(Clock::now());
  last_ = current_.step_end.back();
}

void LayerTimer::on_sequence_end(ullsnn::snn::SnnNetwork& net) {
  current_.end = Clock::now();
  for (std::int64_t i = 0; i < net.size(); ++i) {
    const std::int64_t elements = net.layer(i).input_elements();
    current_.input_density[static_cast<std::size_t>(i)] =
        elements > 0 ? static_cast<double>(net.layer(i).input_nonzeros()) /
                           static_cast<double>(elements)
                     : 0.0;
  }
  records_.push_back(std::move(current_));
  capture_step_ = -1;
}

void report_layer_records(const std::vector<ForwardRecord>& records,
                          const std::vector<WeightedLayer>& layers,
                          Metrics& metrics) {
  std::vector<double> step0;
  std::vector<double> later;
  for (const ForwardRecord& r : records) {
    if (r.step_end.empty()) continue;
    step0.push_back(ms_between(r.start, r.step_end.front()));
    if (r.step_end.size() > 1) {
      later.push_back(ms_between(r.step_end.front(), r.step_end.back()) /
                      static_cast<double>(r.step_end.size() - 1));
    }
  }
  metrics.set("snn.step0_ms", median(step0), "ms");
  metrics.set("snn.later_step_ms", median(later), "ms");
  for (const WeightedLayer& layer : layers) {
    std::vector<double> ms;
    std::vector<double> density;
    for (const ForwardRecord& r : records) {
      const auto i = static_cast<std::size_t>(layer.index);
      if (i >= r.layer_ms.size()) continue;
      ms.push_back(r.layer_ms[i]);
      density.push_back(r.input_density[i]);
    }
    metrics.set("snn.layer." + layer.name + ".ms", median(ms), "ms");
    metrics.set("snn.layer." + layer.name + ".density", mean(density), "ratio");
  }
}

// ---- batch invariance ------------------------------------------------------

void report_batch_invariance(ullsnn::snn::SnnNetwork& net,
                             const data::LabeledImages& heldout,
                             const std::string& scratch_dir, Metrics& metrics) {
  constexpr std::int64_t kImages = 64;
  constexpr std::int64_t kBatch = 8;
  if (heldout.size() < kImages) throw std::runtime_error("held-out set too small");
  for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
    const std::string name = ullsnn::to_string(precision);
    const std::string path = scratch_dir + "/invariance_" + name + ".art";
    art::PackOptions options;
    options.input_shape = Shape(heldout.images.shape().begin() + 1,
                                heldout.images.shape().end());
    options.precision = precision;
    art::pack_network(net, path, options);
    const auto artifact = art::UllsnnArtifact::load(path);
    auto alone = artifact->make_network();
    auto batched = artifact->make_network();
    std::int64_t argmax_diff = 0;
    std::int64_t bitwise_diff = 0;
    for (std::int64_t t = 1; t <= kTimeSteps; ++t) {
      alone->set_time_steps(t);
      batched->set_time_steps(t);
      for (std::int64_t g = 0; g < kImages / kBatch; ++g) {
        std::vector<std::int64_t> members;
        for (std::int64_t j = 0; j < kBatch; ++j) members.push_back(g * kBatch + j);
        batched->reset_state();
        const Tensor together = batched->forward(batch_of(heldout, members), false);
        const std::int64_t classes = together.numel() / kBatch;
        for (std::int64_t j = 0; j < kBatch; ++j) {
          alone->reset_state();
          const Tensor single = alone->forward(batch_of(heldout, {members[static_cast<std::size_t>(j)]}), false);
          const float* a = together.data() + j * classes;
          if (argmax_row(a, classes) != argmax_row(single.data(), classes)) ++argmax_diff;
          if (!bitwise_equal(a, single.data(), classes)) ++bitwise_diff;
        }
      }
    }
    metrics.set("snn.batch_variant_argmax." + name, static_cast<double>(argmax_diff), "count");
    metrics.set("snn.batch_variant_bitwise." + name, static_cast<double>(bitwise_diff), "count");
    std::filesystem::remove(path);
  }
}

// ---- kernel replay ---------------------------------------------------------

namespace {

/// Median wall time of `fn` in microseconds: two warm-up calls, then at least
/// 5 and at most 400 timed calls, stopping after ~25 ms of timed work.
template <typename Fn>
double time_us(Fn&& fn) {
  fn();
  fn();
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (samples.size() < 400 &&
         (samples.size() < 5 || seconds_since(begin) < 0.025)) {
    const Clock::time_point a = Clock::now();
    fn();
    samples.push_back(ms_between(a, Clock::now()) * 1e3);
  }
  return median(samples);
}

Tensor first_rows(const Tensor& batch, std::int64_t rows) {
  Shape shape = batch.shape();
  const std::int64_t per = batch.numel() / shape[0];
  shape[0] = rows;
  Tensor out(shape);
  std::memcpy(out.data(), batch.data(), static_cast<std::size_t>(rows * per) * sizeof(float));
  return out;
}

}  // namespace

void report_kernel_replay(const std::string& fp32_path,
                          const data::LabeledImages& heldout, Metrics& metrics) {
  constexpr std::int64_t kBatch = 8;
  const auto artifact = art::UllsnnArtifact::load(fp32_path);
  auto replica = artifact->make_network();
  replica->set_time_steps(kTimeSteps);
  LayerTimer capture;
  capture.attach(*replica, /*capture_step=*/kTimeSteps - 1);
  std::vector<std::int64_t> members;
  for (std::int64_t j = 0; j < kBatch; ++j) members.push_back(j);
  const Tensor images = batch_of(heldout, members);
  replica->reset_state();
  replica->forward(images, false);
  const std::vector<Tensor>& outputs = capture.captured();

  std::printf("-- kernel replay shapes (operations and bytes computed from "
              "shapes, per call) --\n");
  std::printf("  %-6s %-18s %8s %12s %12s %12s\n", "layer", "input (batch 8)",
              "density", "Mop (b1)", "KiB fp32 b1", "KiB int8 b1");
  for (const WeightedLayer& layer : weighted_layers(*artifact)) {
    const art::LayerDesc& desc =
        artifact->arch().layers[static_cast<std::size_t>(layer.index)];
    const Tensor weight = artifact->tensor_view(desc.weight);
    const Tensor& input8 =
        layer.index == 0 ? images : outputs[static_cast<std::size_t>(layer.index - 1)];
    const bool conv = desc.kind == art::LayerKind::kConv2d;
    const std::int64_t rows = weight.dim(0);
    const std::int64_t cols = weight.numel() / rows;
    const ullsnn::QuantizedWeight q = ullsnn::quantize_weight_per_row(weight.data(), rows, cols);
    ullsnn::QuantizedPackedB qpacked;
    qpacked.pack(q);

    const std::int64_t out_per_sample =
        conv ? rows * desc.conv.out_extent(input8.dim(2)) * desc.conv.out_extent(input8.dim(3))
             : rows;
    const double in_per_sample = static_cast<double>(input8.numel() / kBatch);
    const double act_bytes = 4.0 * (in_per_sample + static_cast<double>(out_per_sample));
    std::int64_t nonzeros = 0;
    for (std::int64_t k = 0; k < input8.numel(); ++k) nonzeros += input8.data()[k] != 0.0F;
    std::printf("  %-6s %-18s %8.4f %12.4f %12.1f %12.1f\n", layer.name.c_str(),
                ullsnn::shape_to_string(input8.shape()).c_str(),
                static_cast<double>(nonzeros) / static_cast<double>(input8.numel()),
                2.0 * static_cast<double>(out_per_sample) * static_cast<double>(cols) / 1e6,
                (4.0 * static_cast<double>(weight.numel()) + act_bytes) / 1024.0,
                (static_cast<double>(weight.numel()) + 4.0 * static_cast<double>(rows) + act_bytes) /
                    1024.0);

    for (const std::int64_t batch : {std::int64_t{1}, kBatch}) {
      const Tensor input = batch == kBatch ? input8 : first_rows(input8, 1);
      const Shape out_shape = conv ? Shape{batch, rows, desc.conv.out_extent(input8.dim(2)),
                                           desc.conv.out_extent(input8.dim(3))}
                                   : Shape{batch, rows};
      Tensor output(out_shape);
      for (const Precision precision : {Precision::kFp32, Precision::kInt8}) {
        const ullsnn::QuantizedPackedB* qw =
            precision == Precision::kInt8 ? &qpacked : nullptr;
        std::vector<float> wt_cache;  // kept across calls, as within a sequence
        ullsnn::SpikeKernelStats stats;
        const auto call = [&] {
          if (conv) {
            ullsnn::conv2d_forward_spiking(input, weight, output, desc.conv,
                                           ullsnn::kDefaultSpikeDensityThreshold,
                                           wt_cache, stats, qw);
          } else {
            ullsnn::linear_forward_spiking(input, weight, output,
                                           ullsnn::kDefaultSpikeDensityThreshold,
                                           wt_cache, stats, qw);
          }
        };
        const std::string prefix = "tensor." + layer.name + ".";
        const std::string prec = ullsnn::to_string(precision);
        metrics.set(prefix + prec + ".b" + std::to_string(batch) + "_us", time_us(call),
                    "us");
        if (precision != Precision::kFp32 || batch != 1) continue;
        metrics.set(prefix + "fp32.b1_first_us", time_us([&] {
                      wt_cache.clear();  // what begin_sequence does
                      call();
                    }),
                    "us");
        if (!conv) continue;
        // The blocked fp32 conv path re-packs the transposed weight into
        // GEMM panels on every call; time that packing on its own.
        if (wt_cache.empty()) call();
        metrics.set(prefix + "fp32.pack_us", time_us([&] {
                      ullsnn::Arena& arena = ullsnn::thread_arena();
                      ullsnn::ArenaScope scope(arena);
                      ullsnn::PackedB packed;
                      packed.pack(ullsnn::row_major(wt_cache.data(), rows), cols, rows,
                                  arena);
                    }),
                    "us");
      }
    }
  }
}

}  // namespace perfbench
