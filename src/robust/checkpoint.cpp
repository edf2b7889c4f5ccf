#include "src/robust/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "src/util/serialize.h"

namespace ullsnn::robust {

namespace {

// Bit-exact packing of 64-bit payloads into pairs of f32 tensor elements.
// The bytes are memcpy'd in and out; no float arithmetic ever touches them.
Tensor pack_u64(const std::vector<std::uint64_t>& words) {
  Tensor t({static_cast<std::int64_t>(words.size()) * 2});
  std::memcpy(t.data(), words.data(), words.size() * sizeof(std::uint64_t));
  return t;
}

std::vector<std::uint64_t> unpack_u64(const Tensor& t, std::size_t expected,
                                      const std::string& what) {
  if (t.numel() != static_cast<std::int64_t>(expected) * 2) {
    throw std::runtime_error("checkpoint: field '" + what + "' has wrong size");
  }
  std::vector<std::uint64_t> words(expected);
  std::memcpy(words.data(), t.data(), expected * sizeof(std::uint64_t));
  return words;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

const Tensor& require(const TensorDict& dict, const std::string& key,
                      const std::string& path) {
  const auto it = dict.find(key);
  if (it == dict.end()) {
    throw std::runtime_error("checkpoint: missing field '" + key + "' in " + path);
  }
  return it->second;
}

std::vector<std::uint64_t> rng_words(const Rng& rng) {
  const RngState st = rng.state();
  return {st.s[0], st.s[1], st.s[2], st.s[3], st.has_cached_normal,
          st.cached_normal_bits};
}

void set_rng_words(Rng& rng, const std::vector<std::uint64_t>& words) {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = words[static_cast<std::size_t>(i)];
  st.has_cached_normal = words[4];
  st.cached_normal_bits = words[5];
  rng.set_state(st);
}

}  // namespace

std::string manifest_path(const std::string& dir) { return dir + "/manifest.ckpt"; }

std::string stage_weights_path(const std::string& dir, int stage) {
  return dir + "/stage_" + std::to_string(stage) + "_weights.ckpt";
}

std::string stage_train_state_path(const std::string& dir, int stage) {
  return dir + "/stage_" + std::to_string(stage) + "_train_state.ckpt";
}

void save_manifest(const PipelineManifest& manifest, const std::string& path) {
  TensorDict dict;
  dict["stage"] = pack_u64({static_cast<std::uint64_t>(manifest.stage_completed)});
  dict["metrics"] = pack_u64({double_bits(manifest.dnn_accuracy),
                              double_bits(manifest.converted_accuracy),
                              double_bits(manifest.sgl_accuracy),
                              double_bits(manifest.dnn_train_seconds),
                              double_bits(manifest.sgl_train_seconds)});
  save_tensors(dict, path);
}

PipelineManifest load_manifest(const std::string& path) {
  const TensorDict dict = load_tensors(path);
  PipelineManifest m;
  const auto stage = unpack_u64(require(dict, "stage", path), 1, "stage");
  if (stage[0] > 3) {
    throw std::runtime_error("checkpoint: manifest stage " +
                             std::to_string(stage[0]) + " out of range in " + path);
  }
  m.stage_completed = static_cast<std::int64_t>(stage[0]);
  const auto metrics = unpack_u64(require(dict, "metrics", path), 5, "metrics");
  m.dnn_accuracy = bits_double(metrics[0]);
  m.converted_accuracy = bits_double(metrics[1]);
  m.sgl_accuracy = bits_double(metrics[2]);
  m.dnn_train_seconds = bits_double(metrics[3]);
  m.sgl_train_seconds = bits_double(metrics[4]);
  return m;
}

void save_params(const std::vector<dnn::Param*>& params, const std::string& path) {
  TensorDict dict;
  for (std::size_t i = 0; i < params.size(); ++i) {
    dict["p" + std::to_string(i)] = params[i]->value;
  }
  save_tensors(dict, path);
}

void load_params(const std::vector<dnn::Param*>& params, const std::string& path) {
  const TensorDict dict = load_tensors(path);
  if (dict.size() != params.size()) {
    throw std::runtime_error("checkpoint: " + path + " holds " +
                             std::to_string(dict.size()) + " tensors, model has " +
                             std::to_string(params.size()));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& stored = require(dict, "p" + std::to_string(i), path);
    if (stored.shape() != params[i]->value.shape()) {
      throw std::runtime_error("checkpoint: shape mismatch for parameter '" +
                               params[i]->name + "' in " + path);
    }
    params[i]->value = stored;
  }
}

TrainCheckpointer::TrainCheckpointer(std::string path) : path_(std::move(path)) {}

void TrainCheckpointer::save(std::int64_t epochs_completed,
                             const std::vector<dnn::Param*>& params,
                             const std::vector<Tensor>& velocity, const Rng& rng,
                             const HealthMonitor& guard) const {
  if (velocity.size() != params.size()) {
    throw std::invalid_argument("TrainCheckpointer::save: velocity/params mismatch");
  }
  TensorDict dict;
  dict["epoch"] = pack_u64({static_cast<std::uint64_t>(epochs_completed)});
  dict["rng"] = pack_u64(rng_words(rng));
  dict["guard"] = pack_u64({static_cast<std::uint64_t>(guard.rollbacks()),
                            double_bits(guard.lr_scale())});
  for (std::size_t i = 0; i < params.size(); ++i) {
    dict["p" + std::to_string(i)] = params[i]->value;
    dict["v" + std::to_string(i)] = velocity[i];
  }
  save_tensors(dict, path_);
}

std::int64_t TrainCheckpointer::restore(const std::vector<dnn::Param*>& params,
                                        std::vector<Tensor>& velocity, Rng& rng,
                                        HealthMonitor& guard) const {
  if (!std::filesystem::exists(path_)) return 0;
  const TensorDict dict = load_tensors(path_);
  // Files written before the guard field existed resume with a fresh guard.
  const bool has_guard = dict.count("guard") != 0;
  if (dict.size() != (has_guard ? 3 : 2) + 2 * params.size()) {
    throw std::runtime_error("checkpoint: " + path_ +
                             " does not match the model's parameter count");
  }
  // Validate every shape before mutating anything: restore is all-or-nothing.
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& p = require(dict, "p" + std::to_string(i), path_);
    const Tensor& v = require(dict, "v" + std::to_string(i), path_);
    if (p.shape() != params[i]->value.shape() ||
        v.shape() != velocity[i].shape()) {
      throw std::runtime_error("checkpoint: shape mismatch for parameter '" +
                               params[i]->name + "' in " + path_);
    }
  }
  const auto epoch = unpack_u64(require(dict, "epoch", path_), 1, "epoch");
  const auto rng_state = unpack_u64(require(dict, "rng", path_), 6, "rng");
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i]->value = dict.at("p" + std::to_string(i));
    params[i]->zero_grad();
    velocity[i] = dict.at("v" + std::to_string(i));
  }
  set_rng_words(rng, rng_state);
  if (has_guard) {
    const auto backoff = unpack_u64(dict.at("guard"), 2, "guard");
    guard.restore_backoff(static_cast<float>(bits_double(backoff[1])),
                          static_cast<std::int64_t>(backoff[0]));
  }
  return static_cast<std::int64_t>(epoch[0]);
}

void TrainCheckpointer::remove() const {
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

}  // namespace ullsnn::robust
