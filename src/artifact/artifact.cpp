#include "src/artifact/artifact.h"

#include <cstring>
#include <optional>
#include <typeinfo>

#include "src/obs/log.h"
#include "src/tensor/random.h"
#include "src/util/serialize.h"

namespace ullsnn::artifact {

const char* to_string(SectionKind kind) {
  switch (kind) {
    case SectionKind::kArch: return "arch";
    case SectionKind::kTensorIndex: return "tensor-index";
    case SectionKind::kWeights: return "weights";
    case SectionKind::kProbe: return "probe";
    case SectionKind::kQuantWeights: return "quant-weights";
  }
  return "unknown";
}

const char* to_string(ArtifactErrorCode code) {
  switch (code) {
    case ArtifactErrorCode::kIo: return "io";
    case ArtifactErrorCode::kTruncated: return "truncated";
    case ArtifactErrorCode::kBadMagic: return "bad-magic";
    case ArtifactErrorCode::kBadVersion: return "bad-version";
    case ArtifactErrorCode::kHeaderCorrupt: return "header-corrupt";
    case ArtifactErrorCode::kSectionCorrupt: return "section-corrupt";
    case ArtifactErrorCode::kFooterCorrupt: return "footer-corrupt";
    case ArtifactErrorCode::kMalformed: return "malformed";
    case ArtifactErrorCode::kArchMismatch: return "arch-mismatch";
  }
  return "unknown";
}

namespace {

[[noreturn]] void fail(ArtifactErrorCode code, const std::string& path,
                       const std::string& why) {
  throw ArtifactError(code, "artifact: " + path + ": [" +
                                std::string(to_string(code)) + "] " + why);
}

// ---------------------------------------------------------------------------
// Byte-stream helpers. Everything on disk is little-endian POD appended in a
// fixed order; the reader is a bounds-checked cursor that throws kMalformed
// (or kTruncated via the caller) on the first missing byte.
// ---------------------------------------------------------------------------

struct ByteWriter {
  std::vector<char> bytes;

  template <typename T>
  void pod(const T& v) {
    const char* p = reinterpret_cast<const char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  }
  void raw(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    bytes.insert(bytes.end(), c, c + n);
  }
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  /// Pad with zeros until size() is a multiple of `a`.
  void align(std::uint64_t a) {
    while (bytes.size() % a != 0) bytes.push_back(0);
  }
  std::uint64_t size() const { return bytes.size(); }
};

class Reader {
 public:
  Reader(const unsigned char* data, std::uint64_t size, const std::string& path,
         ArtifactErrorCode overrun_code)
      : data_(data), size_(size), path_(path), overrun_(overrun_code) {}

  template <typename T>
  T pod() {
    T v{};
    raw(&v, sizeof v);
    return v;
  }
  void raw(void* dst, std::uint64_t n) {
    if (n > remaining()) fail(overrun_, path_, "descriptor runs past its section");
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
  }
  std::string str(std::uint32_t max_len) {
    const auto len = pod<std::uint32_t>();
    if (len > max_len) fail(overrun_, path_, "string length exceeds bound");
    std::string s(len, '\0');
    raw(s.data(), len);
    return s;
  }
  std::uint64_t remaining() const { return size_ - pos_; }
  std::uint64_t pos() const { return pos_; }

 private:
  const unsigned char* data_;
  std::uint64_t size_;
  std::uint64_t pos_ = 0;
  std::string path_;
  ArtifactErrorCode overrun_;
};

// ---------------------------------------------------------------------------
// Arch / tensor-table / probe (de)serialization
// ---------------------------------------------------------------------------

// v1: no precision field (parses as fp32). v2: appends `precision` (u32)
// after encoder_seed. The reader accepts both, so pre-int8 artifacts keep
// loading; the writer always emits v2.
constexpr std::uint32_t kArchBlobVersion = 2;

void write_conv_spec(ByteWriter& w, const Conv2dSpec& s) {
  w.pod(s.in_channels);
  w.pod(s.out_channels);
  w.pod(s.kernel);
  w.pod(s.stride);
  w.pod(s.pad);
}

Conv2dSpec read_conv_spec(Reader& r) {
  Conv2dSpec s;
  s.in_channels = r.pod<std::int64_t>();
  s.out_channels = r.pod<std::int64_t>();
  s.kernel = r.pod<std::int64_t>();
  s.stride = r.pod<std::int64_t>();
  s.pad = r.pod<std::int64_t>();
  return s;
}

void write_neuron(ByteWriter& w, const NeuronDesc& n) {
  w.pod(n.v_threshold);
  w.pod(n.leak);
  w.pod(n.beta);
  w.pod(n.initial_membrane_fraction);
  w.pod(n.reset);
  w.pod(n.train_threshold);
  w.pod(n.train_leak);
}

NeuronDesc read_neuron(Reader& r) {
  NeuronDesc n;
  n.v_threshold = r.pod<float>();
  n.leak = r.pod<float>();
  n.beta = r.pod<float>();
  n.initial_membrane_fraction = r.pod<float>();
  n.reset = r.pod<std::uint32_t>();
  n.train_threshold = r.pod<std::uint8_t>();
  n.train_leak = r.pod<std::uint8_t>();
  return n;
}

std::vector<char> write_arch_blob(const ArchDescriptor& arch) {
  ByteWriter w;
  w.pod(kArchBlobVersion);
  w.pod(arch.time_steps);
  w.pod(arch.encoding);
  w.pod(arch.encoder_seed);
  w.pod(arch.precision);
  w.pod(static_cast<std::uint32_t>(arch.layers.size()));
  for (const LayerDesc& l : arch.layers) {
    w.pod(static_cast<std::uint32_t>(l.kind));
    switch (l.kind) {
      case LayerKind::kConv2d:
        write_conv_spec(w, l.conv);
        write_neuron(w, l.neuron);
        w.pod(l.weight);
        break;
      case LayerKind::kLinear:
        w.pod(l.with_neuron);
        write_neuron(w, l.neuron);
        w.pod(l.weight);
        break;
      case LayerKind::kMaxPool:
      case LayerKind::kAvgPool:
        w.pod(l.pool.kernel);
        w.pod(l.pool.stride);
        break;
      case LayerKind::kDropout:
        w.pod(l.drop_prob);
        break;
      case LayerKind::kFlatten:
        break;
      case LayerKind::kResidual:
        write_conv_spec(w, l.conv);
        write_neuron(w, l.neuron);
        w.pod(l.weight);
        write_conv_spec(w, l.conv2);
        write_neuron(w, l.neuron2);
        w.pod(l.weight2);
        w.pod(l.has_projection);
        if (l.has_projection != 0) {
          write_conv_spec(w, l.projection);
          w.pod(l.weight_projection);
        }
        break;
    }
  }
  return std::move(w.bytes);
}

ArchDescriptor parse_arch_blob(Reader& r, const std::string& path) {
  ArchDescriptor arch;
  const auto version = r.pod<std::uint32_t>();
  if (version == 0 || version > kArchBlobVersion) {
    fail(ArtifactErrorCode::kMalformed, path,
         "unsupported arch descriptor version " + std::to_string(version));
  }
  arch.time_steps = r.pod<std::int64_t>();
  if (arch.time_steps <= 0 || arch.time_steps > 1024) {
    fail(ArtifactErrorCode::kMalformed, path, "time_steps out of range");
  }
  arch.encoding = r.pod<std::uint32_t>();
  if (arch.encoding > static_cast<std::uint32_t>(snn::Encoding::kPoisson)) {
    fail(ArtifactErrorCode::kMalformed, path, "unknown encoding");
  }
  arch.encoder_seed = r.pod<std::uint64_t>();
  arch.precision = version >= 2 ? r.pod<std::uint32_t>() : 0;
  if (arch.precision > static_cast<std::uint32_t>(Precision::kInt8)) {
    fail(ArtifactErrorCode::kMalformed, path, "unknown precision");
  }
  const auto count = r.pod<std::uint32_t>();
  if (count == 0 || count > kMaxLayers) {
    fail(ArtifactErrorCode::kMalformed, path, "layer count out of range");
  }
  arch.layers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    LayerDesc l;
    const auto kind = r.pod<std::uint32_t>();
    l.kind = static_cast<LayerKind>(kind);
    switch (l.kind) {
      case LayerKind::kConv2d:
        l.conv = read_conv_spec(r);
        l.neuron = read_neuron(r);
        l.weight = r.pod<std::int32_t>();
        break;
      case LayerKind::kLinear:
        l.with_neuron = r.pod<std::uint8_t>();
        l.neuron = read_neuron(r);
        l.weight = r.pod<std::int32_t>();
        break;
      case LayerKind::kMaxPool:
      case LayerKind::kAvgPool:
        l.pool.kernel = r.pod<std::int64_t>();
        l.pool.stride = r.pod<std::int64_t>();
        break;
      case LayerKind::kDropout:
        l.drop_prob = r.pod<float>();
        break;
      case LayerKind::kFlatten:
        break;
      case LayerKind::kResidual:
        l.conv = read_conv_spec(r);
        l.neuron = read_neuron(r);
        l.weight = r.pod<std::int32_t>();
        l.conv2 = read_conv_spec(r);
        l.neuron2 = read_neuron(r);
        l.weight2 = r.pod<std::int32_t>();
        l.has_projection = r.pod<std::uint8_t>();
        if (l.has_projection != 0) {
          l.projection = read_conv_spec(r);
          l.weight_projection = r.pod<std::int32_t>();
        }
        break;
      default:
        fail(ArtifactErrorCode::kMalformed, path,
             "unknown layer kind " + std::to_string(kind));
    }
    arch.layers.push_back(l);
  }
  if (r.remaining() != 0) {
    fail(ArtifactErrorCode::kMalformed, path, "trailing bytes in arch section");
  }
  return arch;
}

snn::IfConfig to_if_config(const NeuronDesc& n, const std::string& path) {
  if (n.reset > static_cast<std::uint32_t>(snn::ResetMode::kZero)) {
    fail(ArtifactErrorCode::kMalformed, path, "unknown neuron reset mode");
  }
  snn::IfConfig c;
  c.v_threshold = n.v_threshold;
  c.leak = n.leak;
  c.beta = n.beta;
  c.initial_membrane_fraction = n.initial_membrane_fraction;
  c.reset = static_cast<snn::ResetMode>(n.reset);
  c.train_threshold = n.train_threshold != 0;
  c.train_leak = n.train_leak != 0;
  return c;
}

NeuronDesc describe_neuron(const snn::IfNeuron& neuron) {
  const snn::IfConfig c = neuron.config();
  NeuronDesc n;
  n.v_threshold = c.v_threshold;
  n.leak = c.leak;
  n.beta = c.beta;
  n.initial_membrane_fraction = c.initial_membrane_fraction;
  n.reset = static_cast<std::uint32_t>(c.reset);
  n.train_threshold = c.train_threshold ? 1 : 0;
  n.train_leak = c.train_leak ? 1 : 0;
  return n;
}

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Network walking (pack side)
// ---------------------------------------------------------------------------

struct DescribedNetwork {
  ArchDescriptor arch;
  std::vector<TensorEntry> tensors;           // offsets filled during layout
  std::vector<const Tensor*> tensor_sources;  // parallel to `tensors`
};

std::int32_t add_tensor(DescribedNetwork& d, std::string name, const Tensor& t) {
  const auto index = static_cast<std::int32_t>(d.tensors.size());
  TensorEntry e;
  e.name = std::move(name);
  e.shape = t.shape();
  d.tensors.push_back(std::move(e));
  d.tensor_sources.push_back(&t);
  return index;
}

DescribedNetwork describe_network(snn::SnnNetwork& net) {
  DescribedNetwork d;
  d.arch.time_steps = net.time_steps();
  d.arch.encoding = static_cast<std::uint32_t>(net.encoding());
  d.arch.encoder_seed = net.encoder_seed();
  for (std::int64_t i = 0; i < net.size(); ++i) {
    snn::SpikingLayer& layer = net.layer(i);
    std::string prefix = "l";
    prefix += std::to_string(i);
    LayerDesc l;
    if (auto* weighted = dynamic_cast<snn::SynapticLayer*>(&layer)) {
      const snn::Synapse& synapse = weighted->synapse();
      if (synapse.kind() == snn::Synapse::Kind::kConv) {
        l.kind = LayerKind::kConv2d;
        l.conv = synapse.spec();
      } else {
        l.kind = LayerKind::kLinear;
        l.with_neuron = weighted->has_neuron() ? 1 : 0;
      }
      if (weighted->has_neuron()) l.neuron = describe_neuron(*weighted->neuron_or_null());
      l.weight = add_tensor(d, prefix + ".w", synapse.weight().value);
    } else if (auto* pool = dynamic_cast<snn::SpikingMaxPool*>(&layer)) {
      l.kind = LayerKind::kMaxPool;
      l.pool = pool->spec();
    } else if (auto* apool = dynamic_cast<snn::SpikingAvgPool*>(&layer)) {
      l.kind = LayerKind::kAvgPool;
      l.pool = apool->spec();
    } else if (auto* dropout = dynamic_cast<snn::SpikingDropout*>(&layer)) {
      l.kind = LayerKind::kDropout;
      l.drop_prob = dropout->drop_prob();
    } else if (dynamic_cast<snn::SpikingFlatten*>(&layer) != nullptr) {
      l.kind = LayerKind::kFlatten;
    } else if (auto* res = dynamic_cast<snn::SpikingResidualBlock*>(&layer)) {
      l.kind = LayerKind::kResidual;
      l.conv = res->conv1_synapse().spec();
      l.neuron = describe_neuron(res->neuron1());
      l.weight = add_tensor(d, prefix + ".conv1.w", res->conv1_synapse().weight().value);
      l.conv2 = res->conv2_synapse().spec();
      l.neuron2 = describe_neuron(res->neuron2());
      l.weight2 = add_tensor(d, prefix + ".conv2.w", res->conv2_synapse().weight().value);
      if (snn::Synapse* proj = res->projection_synapse_or_null()) {
        l.has_projection = 1;
        l.projection = proj->spec();
        l.weight_projection = add_tensor(d, prefix + ".proj.w", proj->weight().value);
      }
    } else {
      const std::string kind_name = layer.name();
      throw std::invalid_argument("pack_network: unsupported layer type " +
                                  kind_name);
    }
    d.arch.layers.push_back(l);
  }
  return d;
}

}  // namespace

std::uint64_t arch_fingerprint(const ArchDescriptor& arch,
                               const std::vector<TensorEntry>& tensors) {
  // Structural tokens only: kinds + geometry + weight shapes. Threshold
  // values, T, seeds, and encodings are versioned payload, not topology.
  ByteWriter w;
  for (const LayerDesc& l : arch.layers) {
    w.pod(static_cast<std::uint32_t>(l.kind));
    write_conv_spec(w, l.conv);
    write_conv_spec(w, l.conv2);
    w.pod(l.pool.kernel);
    w.pod(l.pool.stride);
    w.pod(l.with_neuron);
    w.pod(l.has_projection);
    if (l.has_projection != 0) write_conv_spec(w, l.projection);
  }
  for (const TensorEntry& t : tensors) {
    w.pod(static_cast<std::uint32_t>(t.shape.size()));
    for (std::int64_t dim : t.shape) w.pod(dim);
  }
  return fnv1a64(w.bytes.data(), w.bytes.size(), 0xCBF29CE484222325ULL);
}

// ---------------------------------------------------------------------------
// pack_network
// ---------------------------------------------------------------------------

std::uint64_t pack_network(snn::SnnNetwork& net, const std::string& path,
                           const PackOptions& options) {
  if (net.empty()) throw std::invalid_argument("pack_network: empty network");
  if (options.input_shape.empty()) {
    throw std::invalid_argument("pack_network: options.input_shape is required");
  }
  if (options.probe_batch <= 0) {
    throw std::invalid_argument("pack_network: probe_batch must be positive");
  }

  DescribedNetwork d = describe_network(net);
  d.arch.precision = static_cast<std::uint32_t>(options.precision);

  // Deterministic probe batch + the bit-exact logits the artifact promises.
  // The probe runs at the precision the artifact records: an int8 pack flips
  // the live network to int8 first, so the canary logits are the ones an int8
  // replica reproduces. quantize_weight_per_row is deterministic, so the
  // network's lazily self-quantized weights equal the bytes written below.
  Shape probe_shape;
  probe_shape.push_back(options.probe_batch);
  for (std::int64_t dim : options.input_shape) probe_shape.push_back(dim);
  Tensor probe_inputs(probe_shape);
  Rng rng(options.probe_seed);
  for (std::int64_t i = 0; i < probe_inputs.numel(); ++i) {
    probe_inputs[i] = rng.uniform();
  }
  const Precision prev_precision = net.precision();
  net.set_precision(options.precision);
  net.reset_state();
  const Tensor probe_logits = net.forward(probe_inputs, /*train=*/false);
  net.reset_state();
  net.set_precision(prev_precision);

  // ---- section payloads ----
  const std::vector<char> arch_blob = write_arch_blob(d.arch);

  // Optional quant-weights payload: count, then per tensor
  // { index u32, rows u64, cols u64, scales f32[rows], data i8[rows*cols] }.
  ByteWriter quant;
  if (options.precision == Precision::kInt8) {
    quant.pod(static_cast<std::uint32_t>(d.tensors.size()));
    for (std::size_t i = 0; i < d.tensors.size(); ++i) {
      const Tensor& t = *d.tensor_sources[i];
      const std::int64_t rows = t.dim(0);
      const std::int64_t cols = t.numel() / rows;
      const QuantizedWeight qw = quantize_weight_per_row(t.data(), rows, cols);
      quant.pod(static_cast<std::uint32_t>(i));
      quant.pod(static_cast<std::uint64_t>(rows));
      quant.pod(static_cast<std::uint64_t>(cols));
      quant.raw(qw.scales.data(), qw.scales.size() * sizeof(float));
      quant.raw(qw.data.data(), qw.data.size());
    }
  }

  ByteWriter weights;
  for (std::size_t i = 0; i < d.tensors.size(); ++i) {
    weights.align(kAlignment);
    d.tensors[i].offset = weights.size();  // section-relative for now
    const Tensor& t = *d.tensor_sources[i];
    weights.raw(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  }

  ByteWriter probe;
  probe.pod(net.time_steps());
  probe.pod(static_cast<std::uint32_t>(probe_inputs.rank()));
  for (std::int64_t dim : probe_inputs.shape()) probe.pod(dim);
  probe.pod(static_cast<std::uint32_t>(probe_logits.rank()));
  for (std::int64_t dim : probe_logits.shape()) probe.pod(dim);
  probe.raw(probe_inputs.data(),
            static_cast<std::size_t>(probe_inputs.numel()) * sizeof(float));
  probe.raw(probe_logits.data(),
            static_cast<std::size_t>(probe_logits.numel()) * sizeof(float));

  // ---- layout: header | table | payloads | footer ----
  struct Pending {
    SectionKind kind;
    const std::vector<char>* payload;
  };
  ByteWriter index;  // written after offsets are known; placeholder for order
  const std::uint32_t section_count =
      options.precision == Precision::kInt8 ? 5 : 4;
  std::uint64_t cursor = kHeaderBytes + section_count * kSectionEntryBytes;
  auto place = [&cursor](std::uint64_t size) {
    cursor = (cursor + kAlignment - 1) / kAlignment * kAlignment;
    const std::uint64_t at = cursor;
    cursor += size;
    return at;
  };
  const std::uint64_t arch_at = place(arch_blob.size());
  // Tensor index references absolute offsets, so the weights section must be
  // placed before the index payload is rendered. Order on disk:
  // arch, weights, tensor-index, probe.
  const std::uint64_t weights_at = place(weights.size());
  index.pod(static_cast<std::uint32_t>(d.tensors.size()));
  for (TensorEntry& t : d.tensors) {
    t.offset += weights_at;  // absolute now
    index.str(t.name);
    index.pod(static_cast<std::uint32_t>(t.shape.size()));
    for (std::int64_t dim : t.shape) index.pod(dim);
    index.pod(t.offset);
    index.pod(static_cast<std::uint64_t>(shape_numel(t.shape)) * sizeof(float));
  }
  const std::uint64_t index_at = place(index.size());
  const std::uint64_t probe_at = place(probe.size());
  const std::uint64_t quant_at =
      section_count == 5 ? place(quant.size()) : 0;
  const std::uint64_t file_size = cursor + kFooterBytes;

  std::vector<char> file(static_cast<std::size_t>(file_size), 0);
  auto put = [&file](std::uint64_t at, const void* src, std::uint64_t n) {
    std::memcpy(file.data() + at, src, n);
  };

  // Section table.
  const Pending sections[5] = {
      {SectionKind::kArch, &arch_blob},
      {SectionKind::kWeights, &weights.bytes},
      {SectionKind::kTensorIndex, &index.bytes},
      {SectionKind::kProbe, &probe.bytes},
      {SectionKind::kQuantWeights, &quant.bytes},
  };
  const std::uint64_t offsets[5] = {arch_at, weights_at, index_at, probe_at,
                                    quant_at};
  for (std::uint32_t s = 0; s < section_count; ++s) {
    ByteWriter entry;
    entry.pod(static_cast<std::uint32_t>(sections[s].kind));
    entry.pod(std::uint32_t{0});
    entry.pod(offsets[s]);
    entry.pod(static_cast<std::uint64_t>(sections[s].payload->size()));
    entry.pod(crc32(sections[s].payload->data(), sections[s].payload->size()));
    entry.pod(std::uint32_t{0});
    put(kHeaderBytes + s * kSectionEntryBytes, entry.bytes.data(), entry.size());
    put(offsets[s], sections[s].payload->data(), sections[s].payload->size());
  }

  // Header (CRC computed with the crc field itself zeroed).
  const std::uint64_t fingerprint = arch_fingerprint(d.arch, d.tensors);
  ByteWriter header;
  header.raw(kArtifactMagic, sizeof kArtifactMagic);
  header.pod(kFormatVersion);
  header.pod(std::uint32_t{0});  // header_crc placeholder
  header.pod(file_size);
  header.pod(fingerprint);
  header.pod(section_count);
  header.pod(std::uint32_t{0});  // flags
  header.align(kHeaderBytes);
  const std::uint32_t header_crc = crc32(header.bytes.data(), header.size());
  std::memcpy(header.bytes.data() + 12, &header_crc, sizeof header_crc);
  put(0, header.bytes.data(), header.size());

  // Footer: whole-file CRC over everything before it.
  ByteWriter footer;
  footer.raw(kFooterMagic, sizeof kFooterMagic);
  footer.pod(crc32(file.data(), static_cast<std::size_t>(file_size - kFooterBytes)));
  footer.pod(file_size);
  put(file_size - kFooterBytes, footer.bytes.data(), footer.size());

  try {
    atomic_write_file(path, file.data(), file.size());
  } catch (const std::runtime_error& e) {
    throw ArtifactError(ArtifactErrorCode::kIo, e.what());
  }
  obs::logf(obs::LogLevel::kInfo,
            "[artifact] packed %lld tensor(s), %lld layer(s), precision=%s, "
            "%llu bytes -> %s",
            static_cast<long long>(d.tensors.size()),
            static_cast<long long>(d.arch.layers.size()),
            to_string(options.precision),
            static_cast<unsigned long long>(file_size), path.c_str());
  return file_size;
}

// ---------------------------------------------------------------------------
// UllsnnArtifact::load
// ---------------------------------------------------------------------------

std::shared_ptr<const UllsnnArtifact> UllsnnArtifact::load(const std::string& path) {
  auto art = std::shared_ptr<UllsnnArtifact>(new UllsnnArtifact());
  art->map_ = MappedFile(path);
  const unsigned char* base = art->map_.data();
  const std::uint64_t size = art->map_.size();

  if (size < kHeaderBytes + kFooterBytes) {
    fail(ArtifactErrorCode::kTruncated, path,
         "file is " + std::to_string(size) + " bytes, smaller than header+footer");
  }

  // Header.
  if (std::memcmp(base, kArtifactMagic, sizeof kArtifactMagic) != 0) {
    fail(ArtifactErrorCode::kBadMagic, path, "not a ULSNARTF artifact");
  }
  Reader hr(base, kHeaderBytes, path, ArtifactErrorCode::kHeaderCorrupt);
  char magic[8];
  hr.raw(magic, sizeof magic);
  const auto version = hr.pod<std::uint32_t>();
  if (version != kFormatVersion) {
    fail(ArtifactErrorCode::kBadVersion, path,
         "format version " + std::to_string(version) + ", this build reads " +
             std::to_string(kFormatVersion));
  }
  const auto stored_header_crc = hr.pod<std::uint32_t>();
  const auto header_file_size = hr.pod<std::uint64_t>();
  const auto fingerprint = hr.pod<std::uint64_t>();
  const auto section_count = hr.pod<std::uint32_t>();
  std::vector<unsigned char> header_copy(base, base + kHeaderBytes);
  std::memset(header_copy.data() + 12, 0, sizeof stored_header_crc);
  if (crc32(header_copy.data(), header_copy.size()) != stored_header_crc) {
    fail(ArtifactErrorCode::kHeaderCorrupt, path, "header CRC mismatch");
  }
  if (header_file_size != size) {
    fail(ArtifactErrorCode::kTruncated, path,
         "header claims " + std::to_string(header_file_size) + " bytes, file has " +
             std::to_string(size));
  }
  if (section_count == 0 || section_count > kMaxSections) {
    fail(ArtifactErrorCode::kHeaderCorrupt, path, "section count out of range");
  }

  // Footer.
  const unsigned char* footer = base + size - kFooterBytes;
  if (std::memcmp(footer, kFooterMagic, sizeof kFooterMagic) != 0) {
    fail(ArtifactErrorCode::kFooterCorrupt, path,
         "footer magic missing (file truncated or overwritten mid-write)");
  }
  std::uint32_t file_crc = 0;
  std::uint64_t footer_file_size = 0;
  std::memcpy(&file_crc, footer + 4, sizeof file_crc);
  std::memcpy(&footer_file_size, footer + 8, sizeof footer_file_size);
  if (footer_file_size != size) {
    fail(ArtifactErrorCode::kFooterCorrupt, path, "footer size disagrees with file");
  }
  if (crc32(base, static_cast<std::size_t>(size - kFooterBytes)) != file_crc) {
    fail(ArtifactErrorCode::kFooterCorrupt, path, "whole-file CRC mismatch");
  }

  // Section table: bounds, alignment, per-section CRCs, exactly-once kinds.
  const std::uint64_t table_end = kHeaderBytes + section_count * kSectionEntryBytes;
  if (table_end > size - kFooterBytes) {
    fail(ArtifactErrorCode::kTruncated, path, "section table runs past the file");
  }
  struct Located {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    bool present = false;
  };
  Located arch_s, index_s, weights_s, probe_s, quant_s;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    Reader er(base + kHeaderBytes + s * kSectionEntryBytes, kSectionEntryBytes, path,
              ArtifactErrorCode::kSectionCorrupt);
    const auto kind = er.pod<std::uint32_t>();
    er.pod<std::uint32_t>();  // reserved
    const auto offset = er.pod<std::uint64_t>();
    const auto payload_size = er.pod<std::uint64_t>();
    const auto payload_crc = er.pod<std::uint32_t>();
    if (offset % kAlignment != 0) {
      fail(ArtifactErrorCode::kSectionCorrupt, path,
           "section " + std::to_string(s) + " payload is not 64-byte aligned");
    }
    if (offset < table_end || offset > size - kFooterBytes ||
        payload_size > size - kFooterBytes - offset) {
      fail(ArtifactErrorCode::kSectionCorrupt, path,
           "section " + std::to_string(s) + " is out of bounds");
    }
    if (crc32(base + offset, static_cast<std::size_t>(payload_size)) != payload_crc) {
      fail(ArtifactErrorCode::kSectionCorrupt, path,
           std::string("section '") + to_string(static_cast<SectionKind>(kind)) +
               "' payload CRC mismatch");
    }
    Located* slot = nullptr;
    switch (static_cast<SectionKind>(kind)) {
      case SectionKind::kArch: slot = &arch_s; break;
      case SectionKind::kTensorIndex: slot = &index_s; break;
      case SectionKind::kWeights: slot = &weights_s; break;
      case SectionKind::kProbe: slot = &probe_s; break;
      case SectionKind::kQuantWeights: slot = &quant_s; break;
      default:
        fail(ArtifactErrorCode::kSectionCorrupt, path,
             "unknown section kind " + std::to_string(kind));
    }
    if (slot->present) {
      fail(ArtifactErrorCode::kMalformed, path,
           std::string("duplicate section '") +
               to_string(static_cast<SectionKind>(kind)) + "'");
    }
    *slot = {offset, payload_size, true};
  }
  const std::pair<const Located*, const char*> required[] = {
      {&arch_s, "arch"},
      {&index_s, "tensor-index"},
      {&weights_s, "weights"},
      {&probe_s, "probe"},
  };
  for (const auto& [s, name] : required) {
    if (!s->present) {
      fail(ArtifactErrorCode::kMalformed, path,
           std::string("required section '") + name + "' missing");
    }
  }

  // Arch.
  {
    Reader r(base + arch_s.offset, arch_s.size, path, ArtifactErrorCode::kMalformed);
    art->arch_ = parse_arch_blob(r, path);
  }

  // Tensor index: every entry must sit inside the weights section, aligned,
  // with a size that matches its shape exactly.
  {
    Reader r(base + index_s.offset, index_s.size, path, ArtifactErrorCode::kMalformed);
    const auto count = r.pod<std::uint32_t>();
    if (count > kMaxTensors) {
      fail(ArtifactErrorCode::kMalformed, path, "tensor count out of range");
    }
    art->tensors_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      TensorEntry e;
      e.name = r.str(kMaxNameLen);
      const auto rank = r.pod<std::uint32_t>();
      if (rank > kMaxRank) {
        fail(ArtifactErrorCode::kMalformed, path,
             "tensor '" + e.name + "' rank exceeds bound");
      }
      e.shape.resize(rank);
      std::uint64_t numel = 1;
      for (auto& dim : e.shape) {
        dim = r.pod<std::int64_t>();
        if (dim < 0) {
          fail(ArtifactErrorCode::kMalformed, path,
               "tensor '" + e.name + "' has a negative dimension");
        }
        numel *= static_cast<std::uint64_t>(dim);
        if (numel * sizeof(float) > weights_s.size) {
          fail(ArtifactErrorCode::kMalformed, path,
               "tensor '" + e.name + "' larger than the weights section");
        }
      }
      e.offset = r.pod<std::uint64_t>();
      const auto byte_size = r.pod<std::uint64_t>();
      if (byte_size != numel * sizeof(float)) {
        fail(ArtifactErrorCode::kMalformed, path,
             "tensor '" + e.name + "' size disagrees with its shape");
      }
      if (e.offset % kAlignment != 0 || e.offset < weights_s.offset ||
          e.offset + byte_size > weights_s.offset + weights_s.size) {
        fail(ArtifactErrorCode::kMalformed, path,
             "tensor '" + e.name + "' payload escapes the weights section");
      }
      art->tensors_.push_back(std::move(e));
    }
    if (r.remaining() != 0) {
      fail(ArtifactErrorCode::kMalformed, path, "trailing bytes in tensor index");
    }
  }

  // Quant weights (optional): every entry must reference a valid tensor and
  // agree with its shape (rows = output channels = dim 0, rows*cols = numel),
  // so an int8 replica can never install a mis-sized operand.
  if (quant_s.present) {
    Reader r(base + quant_s.offset, quant_s.size, path, ArtifactErrorCode::kMalformed);
    const auto count = r.pod<std::uint32_t>();
    if (count > kMaxTensors) {
      fail(ArtifactErrorCode::kMalformed, path, "quant tensor count out of range");
    }
    std::vector<bool> seen(art->tensors_.size(), false);
    art->quant_weights_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto tensor_index = r.pod<std::uint32_t>();
      if (tensor_index >= art->tensors_.size()) {
        fail(ArtifactErrorCode::kMalformed, path,
             "quant entry references tensor " + std::to_string(tensor_index) +
                 " of " + std::to_string(art->tensors_.size()));
      }
      if (seen[tensor_index]) {
        fail(ArtifactErrorCode::kMalformed, path,
             "duplicate quant entry for tensor " + std::to_string(tensor_index));
      }
      seen[tensor_index] = true;
      const TensorEntry& te = art->tensors_[tensor_index];
      const auto rows = r.pod<std::uint64_t>();
      const auto cols = r.pod<std::uint64_t>();
      const std::uint64_t numel = static_cast<std::uint64_t>(shape_numel(te.shape));
      if (rows == 0 || cols == 0 || te.shape.empty() ||
          rows != static_cast<std::uint64_t>(te.shape[0]) || rows * cols != numel) {
        fail(ArtifactErrorCode::kMalformed, path,
             "quant entry for tensor '" + te.name + "' disagrees with its shape");
      }
      QuantizedWeight qw;
      qw.rows = static_cast<std::int64_t>(rows);
      qw.cols = static_cast<std::int64_t>(cols);
      qw.scales.resize(rows);
      qw.data.resize(rows * cols);
      r.raw(qw.scales.data(), rows * sizeof(float));
      r.raw(qw.data.data(), rows * cols);
      art->quant_weights_.emplace_back(static_cast<std::int32_t>(tensor_index),
                                       std::move(qw));
    }
    if (r.remaining() != 0) {
      fail(ArtifactErrorCode::kMalformed, path,
           "trailing bytes in quant-weights section");
    }
  }

  // Cross-check: every layer's weight reference resolves to a tensor whose
  // shape matches the synapse geometry, so make_network cannot throw an
  // untyped error later.
  const auto tensor_of = [&](std::int32_t index, const char* what) -> const TensorEntry& {
    if (index < 0 || index >= static_cast<std::int32_t>(art->tensors_.size())) {
      fail(ArtifactErrorCode::kMalformed, path,
           std::string(what) + " references tensor " + std::to_string(index) +
               " of " + std::to_string(art->tensors_.size()));
    }
    return art->tensors_[static_cast<std::size_t>(index)];
  };
  const auto check_conv = [&](std::int32_t index, const Conv2dSpec& spec,
                              const char* what) {
    const TensorEntry& e = tensor_of(index, what);
    const Shape expected = {spec.out_channels, spec.in_channels, spec.kernel,
                            spec.kernel};
    if (e.shape != expected) {
      fail(ArtifactErrorCode::kMalformed, path,
           std::string(what) + " weight shape " + shape_to_string(e.shape) +
               " does not match conv spec " + shape_to_string(expected));
    }
  };
  for (std::size_t i = 0; i < art->arch_.layers.size(); ++i) {
    const LayerDesc& l = art->arch_.layers[i];
    const std::string which = "layer " + std::to_string(i);
    switch (l.kind) {
      case LayerKind::kConv2d:
        check_conv(l.weight, l.conv, which.c_str());
        break;
      case LayerKind::kLinear: {
        const TensorEntry& e = tensor_of(l.weight, which.c_str());
        if (e.shape.size() != 2) {
          fail(ArtifactErrorCode::kMalformed, path,
               which + " linear weight must be rank 2");
        }
        break;
      }
      case LayerKind::kResidual:
        check_conv(l.weight, l.conv, which.c_str());
        check_conv(l.weight2, l.conv2, which.c_str());
        if (l.has_projection != 0) {
          check_conv(l.weight_projection, l.projection, which.c_str());
        }
        break;
      case LayerKind::kDropout:
        if (l.drop_prob < 0.0F || l.drop_prob >= 1.0F) {
          fail(ArtifactErrorCode::kMalformed, path, which + " drop_prob out of [0, 1)");
        }
        break;
      default:
        break;
    }
  }

  // Probe.
  {
    Reader r(base + probe_s.offset, probe_s.size, path, ArtifactErrorCode::kMalformed);
    art->probe_time_steps_ = r.pod<std::int64_t>();
    if (art->probe_time_steps_ <= 0 || art->probe_time_steps_ > 1024) {
      fail(ArtifactErrorCode::kMalformed, path, "probe time_steps out of range");
    }
    const auto read_shape = [&](Shape& shape) {
      const auto rank = r.pod<std::uint32_t>();
      if (rank == 0 || rank > kMaxRank) {
        fail(ArtifactErrorCode::kMalformed, path, "probe shape rank out of range");
      }
      shape.resize(rank);
      std::uint64_t numel = 1;
      for (auto& dim : shape) {
        dim = r.pod<std::int64_t>();
        if (dim <= 0) {
          fail(ArtifactErrorCode::kMalformed, path, "probe shape has a bad extent");
        }
        numel *= static_cast<std::uint64_t>(dim);
        if (numel * sizeof(float) > probe_s.size) {
          fail(ArtifactErrorCode::kMalformed, path,
               "probe payload larger than its section");
        }
      }
      return numel;
    };
    const std::uint64_t in_numel = read_shape(art->probe_input_shape_);
    const std::uint64_t out_numel = read_shape(art->probe_logits_shape_);
    if (art->probe_input_shape_[0] != art->probe_logits_shape_[0]) {
      fail(ArtifactErrorCode::kMalformed, path,
           "probe input and logits batch sizes disagree");
    }
    if (r.remaining() != (in_numel + out_numel) * sizeof(float)) {
      fail(ArtifactErrorCode::kMalformed, path, "probe data size mismatch");
    }
    art->probe_inputs_offset_ = probe_s.offset + r.pos();
    art->probe_logits_offset_ = art->probe_inputs_offset_ + in_numel * sizeof(float);
  }

  // The recorded fingerprint must match what this build computes from the
  // parsed structures — catches format skew between writer and reader.
  art->fingerprint_ = arch_fingerprint(art->arch_, art->tensors_);
  if (art->fingerprint_ != fingerprint) {
    fail(ArtifactErrorCode::kHeaderCorrupt, path,
         "header fingerprint disagrees with the architecture sections");
  }

  // Prepare every synaptic weight once, at the precision the artifact serves
  // (int8 from its quant-weights entry), for make_network to share.
  art->prepared_.resize(art->tensors_.size());
  std::vector<const QuantizedWeight*> quantized(art->tensors_.size(), nullptr);
  for (const auto& [index, qw] : art->quant_weights_) {
    quantized[static_cast<std::size_t>(index)] = &qw;
  }
  const auto prepare = [&](std::int32_t index) {
    const auto i = static_cast<std::size_t>(index);
    if (art->prepared_[i]) return;
    const Tensor w = art->tensor_view(index);
    const std::int64_t rows = w.dim(0);
    const std::int64_t cols = rows > 0 ? w.numel() / rows : 0;
    art->prepared_[i] = std::make_shared<const PreparedWeight>(
        w.data(), rows, cols, art->precision(), quantized[i]);
  };
  for (const LayerDesc& l : art->arch_.layers) {
    if (l.kind == LayerKind::kConv2d || l.kind == LayerKind::kLinear) prepare(l.weight);
    if (l.kind == LayerKind::kResidual) {
      prepare(l.weight);
      prepare(l.weight2);
      if (l.has_projection != 0) prepare(l.weight_projection);
    }
  }

  return art;
}

Tensor UllsnnArtifact::tensor_view(std::int64_t index) const {
  const TensorEntry& e = tensors_.at(static_cast<std::size_t>(index));
  return Tensor::borrow(e.shape,
                        reinterpret_cast<const float*>(map_.data() + e.offset));
}

Tensor UllsnnArtifact::probe_inputs() const {
  return Tensor::borrow(
      probe_input_shape_,
      reinterpret_cast<const float*>(map_.data() + probe_inputs_offset_));
}

Tensor UllsnnArtifact::probe_logits() const {
  return Tensor::borrow(
      probe_logits_shape_,
      reinterpret_cast<const float*>(map_.data() + probe_logits_offset_));
}

Shape UllsnnArtifact::input_shape() const {
  return Shape(probe_input_shape_.begin() + 1, probe_input_shape_.end());
}

std::unique_ptr<snn::SnnNetwork> UllsnnArtifact::make_network() const {
  auto net = std::make_unique<snn::SnnNetwork>(arch_.time_steps);
  net->set_encoding(static_cast<snn::Encoding>(arch_.encoding), arch_.encoder_seed);
  net->set_precision(precision());
  // Every synapse gets the operand prepared at load: all replicas share it.
  const auto prepared = [&](std::int32_t index) {
    return prepared_[static_cast<std::size_t>(index)];
  };
  for (const LayerDesc& l : arch_.layers) {
    switch (l.kind) {
      case LayerKind::kConv2d: {
        auto& layer = net->emplace<snn::SynapticLayer>(
            snn::Synapse(tensor_view(l.weight), l.conv), to_if_config(l.neuron, path()));
        layer.synapse().set_prepared_weight(prepared(l.weight));
        break;
      }
      case LayerKind::kLinear: {
        const snn::IfConfig neuron = to_if_config(l.neuron, path());
        auto& layer = net->emplace<snn::SynapticLayer>(
            snn::Synapse(tensor_view(l.weight)),
            l.with_neuron != 0 ? std::optional(neuron) : std::nullopt);
        layer.synapse().set_prepared_weight(prepared(l.weight));
        break;
      }
      case LayerKind::kMaxPool:
        net->emplace<snn::SpikingMaxPool>(l.pool);
        break;
      case LayerKind::kAvgPool:
        net->emplace<snn::SpikingAvgPool>(l.pool);
        break;
      case LayerKind::kDropout:
        net->emplace<snn::SpikingDropout>(l.drop_prob, net->dropout_rng());
        break;
      case LayerKind::kFlatten:
        net->emplace<snn::SpikingFlatten>();
        break;
      case LayerKind::kResidual: {
        auto& layer = net->emplace<snn::SpikingResidualBlock>(
            tensor_view(l.weight), l.conv, to_if_config(l.neuron, path()),
            tensor_view(l.weight2), l.conv2, to_if_config(l.neuron2, path()),
            l.has_projection != 0 ? tensor_view(l.weight_projection) : Tensor(),
            l.projection);
        layer.conv1_synapse().set_prepared_weight(prepared(l.weight));
        layer.conv2_synapse().set_prepared_weight(prepared(l.weight2));
        if (l.has_projection != 0) {
          layer.projection_synapse_or_null()->set_prepared_weight(
              prepared(l.weight_projection));
        }
        break;
      }
    }
  }
  return net;
}

}  // namespace ullsnn::artifact
