// UllsnnArtifact: the zero-copy model artifact — packer, paranoid loader,
// and borrowed-weight network builder.
//
// Packing (pack_network): a live SnnNetwork is walked into a self-contained
// architecture descriptor (layer kinds + specs + neuron dynamics), its
// synaptic weights are laid out 64-byte aligned, and a deterministic probe
// batch is pushed through the network so the artifact records the exact
// logits the model must reproduce after any future load. The file is
// written to "<path>.tmp", fsync'd, and atomically renamed — a crash
// mid-pack never leaves a partial artifact under the real name.
//
// Loading (UllsnnArtifact::load): mmap read-only, then verify — header CRC,
// footer CRC over the whole file, per-section CRCs, bounds and alignment of
// every table entry, and structural validity of every descriptor. Any
// truncation, flipped bit, or nonsense field is rejected with a typed
// ArtifactError before a single tensor is touched. The fault-injection
// corruption matrix (tests/artifact/, `ctest -L artifact`) proves this for
// every section boundary and representative byte flips.
//
// Serving (make_network): builds an SnnNetwork whose synaptic weights are
// Tensor::borrow views straight into the mapping — worker spin-up is
// O(layers) allocations plus page faults, not a parse-and-copy of every
// parameter. Each weight's kernel operand (W^T plus dense fp32 or int8
// panels, see PreparedWeight) is built once at load and shared read-only by
// every replica, so no request and no replica re-transposes or re-packs a
// weight. Mutable runtime state (membranes, BPTT caches, encoder RNG) is
// owned per replica, so the replicas are exactly as isolated as the
// reset_state() contract requires. Callers must keep the artifact alive for
// as long as any replica exists (ModelRegistry pins it with a shared_ptr).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/artifact/artifact_format.h"
#include "src/artifact/mapped_file.h"
#include "src/snn/snn_network.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace ullsnn::artifact {

/// Layer taxonomy of the serialized architecture descriptor. Values are part
/// of the on-disk format; never renumber.
enum class LayerKind : std::uint32_t {
  kConv2d = 1,
  kLinear = 2,
  kMaxPool = 3,
  kAvgPool = 4,
  kDropout = 5,
  kFlatten = 6,
  kResidual = 7,
};

/// IF dynamics of one neuron site, as stored on disk. Thresholds and leaks
/// live here (they are scalars), not in the weights section.
struct NeuronDesc {
  float v_threshold = 1.0F;
  float leak = 1.0F;
  float beta = 1.0F;
  float initial_membrane_fraction = 0.0F;
  std::uint32_t reset = 0;  // snn::ResetMode
  std::uint8_t train_threshold = 0;
  std::uint8_t train_leak = 0;
};

/// One layer of the serialized architecture. Tensor references are indices
/// into the artifact's tensor table (-1 = none).
struct LayerDesc {
  LayerKind kind = LayerKind::kFlatten;
  Conv2dSpec conv;        // kConv2d; kResidual conv1
  Conv2dSpec conv2;       // kResidual conv2
  Conv2dSpec projection;  // kResidual projection (valid iff has_projection)
  Pool2dSpec pool;        // kMaxPool / kAvgPool
  NeuronDesc neuron;      // kConv2d / kLinear / kResidual neuron1
  NeuronDesc neuron2;     // kResidual neuron2
  std::uint8_t with_neuron = 0;     // kLinear: classifier head has none
  std::uint8_t has_projection = 0;  // kResidual
  float drop_prob = 0.0F;           // kDropout
  std::int32_t weight = -1;         // kConv2d / kLinear / kResidual conv1
  std::int32_t weight2 = -1;        // kResidual conv2
  std::int32_t weight_projection = -1;
};

/// Temporal + topological description of the whole network.
struct ArchDescriptor {
  std::int64_t time_steps = 0;
  std::uint32_t encoding = 0;  // snn::Encoding
  std::uint64_t encoder_seed = 99;
  /// Serving precision (ullsnn::Precision). Arch blob v1 files predate the
  /// field and parse as kFp32; v2 stores it explicitly. Not part of the
  /// structural fingerprint — an int8 repack of a model hot-swaps over its
  /// fp32 predecessor.
  std::uint32_t precision = 0;
  std::vector<LayerDesc> layers;
};

/// One entry of the tensor table. `offset` is absolute into the file and
/// 64-byte aligned; the payload is numel(shape) little-endian f32s.
struct TensorEntry {
  std::string name;
  Shape shape;
  std::uint64_t offset = 0;
};

struct PackOptions {
  /// Per-sample input shape, e.g. {3, 32, 32}. Required.
  Shape input_shape;
  /// Probe batch size recorded for the canary gate.
  std::int64_t probe_batch = 4;
  /// Seed for the deterministic probe inputs (uniform in [0, 1)).
  std::uint64_t probe_seed = 0xA11CE;
  /// Serving precision recorded in the artifact. kInt8 additionally writes a
  /// kQuantWeights section (per-output-channel symmetric int8 + f32 scales,
  /// quantized deterministically from the fp32 weights at pack time) and runs
  /// the canary probe at int8 so the recorded logits are the ones an int8
  /// replica must reproduce bit-exactly.
  Precision precision = Precision::kFp32;
};

/// Serialize `net` (weights, architecture, probe logits) into an artifact at
/// `path`. Runs `net.reset_state()` and a probe forward pass as a side
/// effect. Returns the file size in bytes. Throws ArtifactError on I/O
/// failure or std::invalid_argument on unpackable networks / bad options.
std::uint64_t pack_network(snn::SnnNetwork& net, const std::string& path,
                           const PackOptions& options);

/// Structural fingerprint (FNV-1a 64) of an architecture: layer kinds,
/// synapse/pool geometry, and weight shapes — NOT threshold values, T, or
/// encoding, so a retrained or re-converted model of the same topology
/// fingerprints identically and is hot-swappable over its predecessor.
std::uint64_t arch_fingerprint(const ArchDescriptor& arch,
                               const std::vector<TensorEntry>& tensors);

class UllsnnArtifact {
 public:
  /// Map and fully validate `path`. Throws ArtifactError (see
  /// artifact_format.h for the rejection taxonomy). The returned artifact is
  /// immutable and safe to share across threads.
  static std::shared_ptr<const UllsnnArtifact> load(const std::string& path);

  UllsnnArtifact(const UllsnnArtifact&) = delete;
  UllsnnArtifact& operator=(const UllsnnArtifact&) = delete;

  const std::string& path() const { return map_.path(); }
  std::uint64_t file_size() const { return map_.size(); }
  std::uint64_t fingerprint() const { return fingerprint_; }
  const ArchDescriptor& arch() const { return arch_; }
  std::int64_t time_steps() const { return arch_.time_steps; }
  Precision precision() const { return static_cast<Precision>(arch_.precision); }

  /// Pre-quantized weights from the optional kQuantWeights section, keyed by
  /// tensor-table index (validated against the tensor shapes at load). Empty
  /// for fp32 artifacts.
  const std::vector<std::pair<std::int32_t, QuantizedWeight>>& quant_weights() const {
    return quant_weights_;
  }

  std::int64_t tensor_count() const {
    return static_cast<std::int64_t>(tensors_.size());
  }
  const std::vector<TensorEntry>& tensors() const { return tensors_; }
  /// Borrowed view into the mapping. The artifact must outlive the tensor.
  Tensor tensor_view(std::int64_t index) const;

  /// Canary probe recorded by the packer: inputs [P, ...], the bit-exact
  /// logits [P, classes] the model produced at pack time, and the T it ran
  /// at. All borrowed views.
  Tensor probe_inputs() const;
  Tensor probe_logits() const;
  std::int64_t probe_time_steps() const { return probe_time_steps_; }
  /// Per-sample input shape (probe inputs minus the batch dimension).
  Shape input_shape() const;

  /// Build a worker replica: borrowed weight views over the mapping, the
  /// shared prepared operands, owned runtime state. O(layers), not
  /// O(parameters).
  std::unique_ptr<snn::SnnNetwork> make_network() const;

  /// True iff `p` points into this artifact's mapping — lets tests assert
  /// that replica weights are genuinely zero-copy.
  bool contains(const void* p) const {
    const auto* b = static_cast<const unsigned char*>(p);
    return b >= map_.data() && b < map_.data() + map_.size();
  }

 private:
  UllsnnArtifact() = default;

  MappedFile map_;
  ArchDescriptor arch_;
  std::vector<TensorEntry> tensors_;
  std::vector<std::pair<std::int32_t, QuantizedWeight>> quant_weights_;
  // Per tensor-table index: the operand every replica's synapse shares
  // (null for tensors no synapse references).
  std::vector<std::shared_ptr<const PreparedWeight>> prepared_;
  std::uint64_t fingerprint_ = 0;
  std::int64_t probe_time_steps_ = 0;
  Shape probe_input_shape_;
  Shape probe_logits_shape_;
  std::uint64_t probe_inputs_offset_ = 0;
  std::uint64_t probe_logits_offset_ = 0;
};

}  // namespace ullsnn::artifact
