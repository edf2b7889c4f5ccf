// The served model and everything built from it: the trained VGG-11 fixture,
// the conversion and packing pipeline, and the per-layer instruments that
// attach to a replica from outside (a StepObserver and the step hook).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "src/artifact/artifact.h"
#include "src/data/synthetic_cifar.h"
#include "src/dnn/sequential.h"
#include "src/snn/snn_network.h"

namespace perfbench {

using ullsnn::Precision;
using ullsnn::Shape;
using ullsnn::Tensor;

/// Default-scale VGG-11 of the repository's benches: width 0.125, 10
/// classes, 1024 training images, 20 epochs, batch 32, no augmentation.
inline constexpr std::int64_t kTrainImages = 1024;
inline constexpr std::int64_t kEpochs = 20;
inline constexpr float kWidth = 0.125F;
/// Conversion target: Algorithm 1 at T = 3, the top rung of the ladder.
inline constexpr std::int64_t kTimeSteps = 3;

/// The fixed data every run uses. Neither set depends on the workload seed:
/// the seed only orders and times requests, so accuracies stay comparable.
struct Inputs {
  ullsnn::data::LabeledImages train;    // calibration set for collection
  ullsnn::data::LabeledImages heldout;  // test split, never trained on
};
Inputs make_inputs(std::int64_t heldout_images);

/// One held-out image as [C, H, W], or a batch of them as [B, C, H, W].
Tensor image_at(const ullsnn::data::LabeledImages& set, std::int64_t index);
Tensor batch_of(const ullsnn::data::LabeledImages& set,
                const std::vector<std::int64_t>& indices);

/// Train the fixture once (fixed seed) and save it as a CRC-checked
/// checkpoint at `path`. No-op when the file already exists.
void ensure_fixture(const std::string& path, const Inputs& inputs);
/// Load the fixture; throws if the file is missing, corrupt or mismatched.
std::unique_ptr<ullsnn::dnn::Sequential> load_fixture(const std::string& path);

/// Collect, plan (Algorithm 1 at T = 3), convert and pack one artifact.
struct Conversion {
  std::unique_ptr<ullsnn::snn::SnnNetwork> net;
  double collect_s = 0.0;
  double plan_ms = 0.0;
  double convert_ms = 0.0;  // convert() re-plans internally; included here
  double pack_ms = 0.0;
  double total_s() const {
    return collect_s + (plan_ms + convert_ms + pack_ms) / 1e3;
  }
};
Conversion convert_and_pack(ullsnn::dnn::Sequential& dnn,
                            const ullsnn::data::LabeledImages& calibration,
                            const std::string& artifact_path,
                            Precision precision);

std::int64_t argmax_row(const float* row, std::int64_t classes);
bool all_finite(const float* values, std::int64_t count);
bool bitwise_equal(const float* a, const float* b, std::int64_t count);

/// Indices of the weighted (conv / linear) layers of an artifact's network,
/// in network order, with display names "conv0".."fc2".
struct WeightedLayer {
  std::int64_t index = 0;
  std::string name;
};
std::vector<WeightedLayer> weighted_layers(
    const ullsnn::artifact::UllsnnArtifact& artifact);

/// Per-forward timing record from a LayerTimer.
struct ForwardRecord {
  Clock::time_point start{};
  Clock::time_point end{};
  std::vector<Clock::time_point> step_end;  // from the step hook
  std::vector<double> layer_ms;             // summed over steps
  std::vector<double> input_density;        // input nonzeros / elements
};

/// StepObserver that times every layer at every step and reads each layer's
/// input density from its activity counters. It also installs a step hook
/// on the replica (the engine chains it) to stamp step boundaries. One timer
/// per replica; not shared between threads.
class LayerTimer : public ullsnn::snn::StepObserver {
 public:
  /// Attach to `net` (observer + step hook). With `capture_step` >= 0 the
  /// timer keeps a copy of every layer's output at that step of the next
  /// forward (the kernel replay's inputs).
  void attach(ullsnn::snn::SnnNetwork& net, std::int64_t capture_step = -1);

  void on_sequence_begin(ullsnn::snn::SnnNetwork& net, const Shape& input_shape,
                         std::int64_t time_steps, bool train) override;
  void on_layer_step(ullsnn::snn::SnnNetwork& net, std::int64_t layer_index,
                     const Tensor& output, std::int64_t t) override;
  void on_sequence_end(ullsnn::snn::SnnNetwork& net) override;

  const std::vector<ForwardRecord>& records() const { return records_; }
  const std::vector<Tensor>& captured() const { return captured_; }

 private:
  void on_step_end();

  std::int64_t capture_step_ = -1;
  ForwardRecord current_;
  Clock::time_point last_{};
  std::vector<ForwardRecord> records_;
  std::vector<Tensor> captured_;
};

/// Per-layer snn.* metrics from a set of forward records (medians over
/// forwards) for the weighted layers.
void report_layer_records(const std::vector<ForwardRecord>& records,
                          const std::vector<WeightedLayer>& layers,
                          Metrics& metrics);

/// Exact batch-invariance counts: the first 64 held-out images are served
/// in fixed batches of 8 and alone, at T = 1, 2 and 3, from one artifact of
/// each precision packed from `net`. Sets snn.batch_variant_argmax.<prec>
/// and snn.batch_variant_bitwise.<prec>.
void report_batch_invariance(ullsnn::snn::SnnNetwork& net,
                             const ullsnn::data::LabeledImages& heldout,
                             const std::string& scratch_dir, Metrics& metrics);

/// Kernel replay at the served model's exact shapes: every weighted layer,
/// batch 1 and 8, fp32 and int8, on the real last-step spike inputs of a
/// T = 3 forward of the fp32 artifact at `fp32_path`. Sets
/// tensor.<layer>.<prec>.b<N>_us (weights already transposed, as on every
/// step after the first), tensor.<layer>.fp32.b1_first_us (the first call of
/// a sequence, which re-transposes the weight) and, for conv layers,
/// tensor.<layer>.fp32.pack_us (the GEMM panel packing every fp32 conv call
/// repeats). Operation counts and bytes moved, computed from the shapes
/// rather than measured, are printed as a table.
void report_kernel_replay(const std::string& fp32_path,
                          const ullsnn::data::LabeledImages& heldout,
                          Metrics& metrics);

}  // namespace perfbench
