// ModelRegistry tests: canary gate, atomic hot-swap, transition history,
// auto-rollback, and the ServeEngine integration — swap under live load with
// zero lost requests and bitwise-identical logits across the swap boundary.
#include "src/artifact/model_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "src/robust/fault_injector.h"
#include "src/serve/engine.h"
#include "src/tensor/random.h"
#include "src/util/serialize.h"

namespace ullsnn::artifact {
namespace {

using namespace std::chrono_literals;

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform() * 0.5F - 0.25F;
  }
  return t;
}

/// Identity hidden layer + 2-class readout over a [4] input (same closed-form
/// construction as the serve engine tests), with a seed-dependent weight
/// perturbation so "retrained" versions are distinguishable but same-arch.
std::unique_ptr<snn::SnnNetwork> make_net(std::uint64_t seed,
                                          std::int64_t hidden = 4) {
  Rng rng(seed);
  auto net = std::make_unique<snn::SnnNetwork>(3);
  Tensor w1({hidden, 4});
  for (std::int64_t i = 0; i < std::min<std::int64_t>(hidden, 4); ++i) {
    w1.at(i, i) = 1.0F + 0.001F * static_cast<float>(seed % 7);
  }
  snn::IfConfig cfg;
  cfg.v_threshold = 1.0F;
  net->emplace<snn::SynapticLayer>(snn::Synapse(w1), cfg);
  Tensor w2 = random_tensor({2, hidden}, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(w2), std::nullopt);
  return net;
}

std::string pack_version(const char* name, std::uint64_t seed,
                         std::int64_t hidden = 4) {
  const std::string path = temp_path(name);
  auto net = make_net(seed, hidden);
  PackOptions opt;
  opt.input_shape = {4};
  opt.probe_batch = 2;
  pack_network(*net, path, opt);
  return path;
}

TEST(ModelRegistryTest, DeployActivatesAndRecordsHistory) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.has_active());
  EXPECT_EQ(registry.active().artifact, nullptr);

  const std::string v1 = pack_version("registry_v1.art", 1);
  EXPECT_EQ(registry.deploy(v1), 1U);
  EXPECT_TRUE(registry.has_active());
  EXPECT_EQ(registry.active().version, 1U);
  EXPECT_EQ(registry.active().artifact->path(), v1);
  EXPECT_EQ(registry.deploys(), 1);

  const auto history = registry.history();
  ASSERT_EQ(history.size(), 1U);
  EXPECT_EQ(history[0].event, "activate");
  EXPECT_EQ(history[0].version, 1U);
  std::filesystem::remove(v1);
}

TEST(ModelRegistryTest, CorruptArtifactIsRejectedAndActiveUntouched) {
  ModelRegistry registry;
  const std::string v1 = pack_version("registry_keep.art", 1);
  registry.deploy(v1);

  const std::string v2 = pack_version("registry_corrupt.art", 2);
  robust::FaultInjector::corrupt_byte(v2, 100, 0x40);
  EXPECT_THROW(registry.deploy(v2), ArtifactError);
  EXPECT_EQ(registry.version(), 1U);
  EXPECT_EQ(registry.active().artifact->path(), v1);
  EXPECT_EQ(registry.rejects(), 1);
  const auto history = registry.history();
  ASSERT_EQ(history.size(), 2U);
  EXPECT_EQ(history[1].event, "reject");
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(ModelRegistryTest, ArchChangeIsRejectedWithTypedError) {
  ModelRegistry registry;
  const std::string v1 = pack_version("registry_arch1.art", 1);
  registry.deploy(v1);
  // Different hidden width => different fingerprint.
  const std::string v2 = pack_version("registry_arch2.art", 2, /*hidden=*/6);
  try {
    registry.deploy(v2);
    FAIL() << "topology change was hot-swapped";
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::kArchMismatch);
  }
  EXPECT_EQ(registry.version(), 1U);
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(ModelRegistryTest, CanaryCatchesLogitDriftEvenWhenChecksumsPass) {
  // Tamper with the recorded probe logits and repair every CRC: only the
  // canary replay can notice the artifact no longer reproduces its model.
  const std::string path = pack_version("registry_canary.art", 3);
  std::vector<char> bytes = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
  }();
  // Locate the probe section in the table; flip a byte of its payload tail
  // (the recorded logits live at the end) and recompute its CRC, then the
  // footer CRC.
  bool patched = false;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const std::size_t entry = kHeaderBytes + s * kSectionEntryBytes;
    std::uint32_t kind = 0;
    std::memcpy(&kind, bytes.data() + entry, sizeof kind);
    if (static_cast<SectionKind>(kind) != SectionKind::kProbe) continue;
    std::uint64_t offset = 0, size = 0;
    std::memcpy(&offset, bytes.data() + entry + 8, sizeof offset);
    std::memcpy(&size, bytes.data() + entry + 16, sizeof size);
    bytes[offset + size - 2] = static_cast<char>(bytes[offset + size - 2] ^ 0x01);
    const std::uint32_t crc = crc32(bytes.data() + offset, size);
    std::memcpy(bytes.data() + entry + 24, &crc, sizeof crc);
    patched = true;
  }
  ASSERT_TRUE(patched);
  const std::uint32_t fc = crc32(bytes.data(), bytes.size() - kFooterBytes);
  std::memcpy(bytes.data() + bytes.size() - 12, &fc, sizeof fc);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // The file itself now loads (all checksums valid)...
  EXPECT_NO_THROW(UllsnnArtifact::load(path));
  // ...but the canary gate refuses to activate it.
  ModelRegistry registry;
  EXPECT_THROW(registry.deploy(path), ArtifactError);
  EXPECT_FALSE(registry.has_active());
  EXPECT_EQ(registry.rejects(), 1);
  std::filesystem::remove(path);
}

TEST(ModelRegistryTest, ManualRollbackRestoresPreviousVersion) {
  ModelRegistry registry;
  const std::string v1 = pack_version("registry_rb1.art", 1);
  const std::string v2 = pack_version("registry_rb2.art", 2);
  registry.deploy(v1);
  registry.deploy(v2);
  EXPECT_EQ(registry.version(), 2U);
  EXPECT_TRUE(registry.can_rollback());

  EXPECT_EQ(registry.rollback("operator request"), 3U);
  EXPECT_EQ(registry.active().artifact->path(), v1);
  EXPECT_FALSE(registry.can_rollback());  // no ping-pong target
  EXPECT_THROW(registry.rollback("again"), std::logic_error);
  EXPECT_EQ(registry.rollbacks(), 1);
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(ModelRegistryTest, HealthRegressionAutoRollsBack) {
  RegistryConfig config;
  config.health_window = 4;
  config.health_failure_threshold = 2;
  ModelRegistry registry(config);
  const std::string v1 = pack_version("registry_hr1.art", 1);
  const std::string v2 = pack_version("registry_hr2.art", 2);
  registry.deploy(v1);
  registry.deploy(v2);

  // Stale verdicts (from a worker still draining v1) must be ignored.
  registry.record_batch_health(1, false);
  registry.record_batch_health(1, false);
  EXPECT_EQ(registry.version(), 2U);

  registry.record_batch_health(2, true);
  registry.record_batch_health(2, false);
  EXPECT_EQ(registry.version(), 2U);  // one failure, threshold is two
  registry.record_batch_health(2, false);
  EXPECT_EQ(registry.version(), 3U);  // rolled back
  EXPECT_EQ(registry.active().artifact->path(), v1);
  EXPECT_EQ(registry.rollbacks(), 1);
  const auto history = registry.history();
  EXPECT_EQ(history.back().event, "auto-rollback");

  // Beyond the window, bad batches no longer flip versions (breaker owns
  // steady-state degradation).
  for (int i = 0; i < 16; ++i) registry.record_batch_health(3, false);
  EXPECT_EQ(registry.version(), 3U);
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(ModelRegistryTest, HealthyWindowLeavesDeploymentAlone) {
  RegistryConfig config;
  config.health_window = 3;
  ModelRegistry registry(config);
  const std::string v1 = pack_version("registry_hw1.art", 1);
  const std::string v2 = pack_version("registry_hw2.art", 2);
  registry.deploy(v1);
  registry.deploy(v2);
  for (int i = 0; i < 8; ++i) registry.record_batch_health(2, true);
  EXPECT_EQ(registry.version(), 2U);
  EXPECT_EQ(registry.rollbacks(), 0);
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

// ---------------------------------------------------------------------------
// ServeEngine integration
// ---------------------------------------------------------------------------

serve::ServeConfig engine_config(std::int64_t workers = 2) {
  serve::ServeConfig config;
  config.workers = workers;
  config.default_deadline = 10000ms;
  config.request_timeout = 20000ms;
  config.retry_backoff = std::chrono::microseconds(0);
  return config;
}

Tensor probe_image() {
  Tensor image({4});
  image[0] = 1.5F;
  image[1] = 1.5F;
  return image;
}

TEST(RegistryServeTest, EngineRequiresDeployedRegistry) {
  auto registry = std::make_shared<ModelRegistry>();
  EXPECT_THROW(serve::ServeEngine(engine_config(), registry),
               std::invalid_argument);
  EXPECT_THROW(
      serve::ServeEngine(engine_config(), std::shared_ptr<ModelRegistry>()),
      std::invalid_argument);
}

TEST(RegistryServeTest, ServesFromRegistryAndInfersInputShape) {
  const std::string v1 = pack_version("registry_serve1.art", 1);
  auto registry = std::make_shared<ModelRegistry>();
  registry->deploy(v1);
  serve::ServeConfig config = engine_config(1);
  EXPECT_TRUE(config.input_shape.empty());
  serve::ServeEngine engine(config, registry);
  engine.start();
  auto submitted = engine.submit(probe_image());
  ASSERT_TRUE(submitted.accepted);
  const auto response = submitted.future.get();
  EXPECT_EQ(response.status, serve::ResponseStatus::kOk);
  EXPECT_EQ(engine.workers_on_active(), 1);
  engine.stop();
  std::filesystem::remove(v1);
}

TEST(RegistryServeTest, LogitsAreBitwiseIdenticalAcrossTheSwapBoundary) {
  // v1 and v2 are packed from the SAME seed: a swap between them must be
  // invisible at the logit level. Any per-worker copy drift, encoder state
  // leak, or artifact layout bug shows up as a bitwise difference.
  const std::string v1 = pack_version("registry_bit1.art", 5);
  const std::string v2 = pack_version("registry_bit2.art", 5);
  auto registry = std::make_shared<ModelRegistry>();
  registry->deploy(v1);
  serve::ServeEngine engine(engine_config(1), registry);
  engine.start();

  auto before = engine.submit(probe_image());
  ASSERT_TRUE(before.accepted);
  const Tensor logits_before = before.future.get().logits;

  registry->deploy(v2);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (engine.workers_on_active() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(engine.workers_on_active(), 1) << "swap never propagated";

  auto after = engine.submit(probe_image());
  ASSERT_TRUE(after.accepted);
  const Tensor logits_after = after.future.get().logits;
  ASSERT_EQ(logits_before.shape(), logits_after.shape());
  EXPECT_EQ(std::memcmp(logits_before.data(), logits_after.data(),
                        static_cast<std::size_t>(logits_before.numel()) *
                            sizeof(float)),
            0)
      << "hot swap of identical weights changed the logits";
  EXPECT_GE(engine.stats().swaps, 1);
  engine.stop();
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

TEST(RegistryServeTest, SwapUnderLoadLosesNoRequests) {
  const std::string v1 = pack_version("registry_load1.art", 1);
  const std::string v2 = pack_version("registry_load2.art", 2);
  const std::string v3 = pack_version("registry_load3.art", 3);
  auto registry = std::make_shared<ModelRegistry>();
  registry->deploy(v1);
  serve::ServeEngine engine(engine_config(2), registry);
  engine.start();

  constexpr int kRequests = 300;
  std::vector<serve::ResponseFuture> futures;
  futures.reserve(kRequests);
  int accepted = 0;
  for (int i = 0; i < kRequests; ++i) {
    if (i == 100) registry->deploy(v2);
    if (i == 200) registry->deploy(v3);
    auto submitted = engine.submit(probe_image());
    if (submitted.accepted) {
      futures.push_back(std::move(submitted.future));
      ++accepted;
    }
    if (i % 16 == 0) std::this_thread::sleep_for(1ms);
  }
  int resolved = 0;
  for (auto& f : futures) {
    const auto response = f.get();  // must never hang: watchdog bounds it
    EXPECT_TRUE(response.status == serve::ResponseStatus::kOk ||
                response.status == serve::ResponseStatus::kDegraded)
        << "request finished as " << serve::to_string(response.status) << " ("
        << response.reason << ")";
    ++resolved;
  }
  EXPECT_EQ(resolved, accepted);
  EXPECT_EQ(registry->version(), 3U);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (engine.workers_on_active() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(engine.workers_on_active(), 2);
  EXPECT_GE(engine.stats().swaps, 1);
  engine.stop();
  for (const auto& p : {v1, v2, v3}) std::filesystem::remove(p);
}

TEST(RegistryServeTest, PostSwapRegressionRollsBackAutomatically) {
  const std::string v1 = pack_version("registry_auto1.art", 1);
  const std::string v2 = pack_version("registry_auto2.art", 2);
  RegistryConfig rc;
  rc.health_window = 6;
  rc.health_failure_threshold = 1;
  auto registry = std::make_shared<ModelRegistry>(rc);
  registry->deploy(v1);

  // Chaos hook: once armed, poison every batch's logits so the post-swap
  // health feed sees a regression on the freshly deployed version.
  std::atomic<bool> poison{false};
  serve::ServeConfig config = engine_config(1);
  config.max_attempts = 1;
  config.governor.failure_threshold = 1000;  // keep the breaker out of the way
  config.after_forward_hook = [&poison](const std::vector<std::int64_t>&,
                                        Tensor& logits) {
    if (poison.load(std::memory_order_acquire)) {
      logits[0] = std::numeric_limits<float>::quiet_NaN();
    }
  };
  serve::ServeEngine engine(config, registry);
  engine.start();

  auto ok = engine.submit(probe_image());
  ASSERT_TRUE(ok.accepted);
  EXPECT_EQ(ok.future.get().status, serve::ResponseStatus::kOk);

  registry->deploy(v2);
  poison.store(true, std::memory_order_release);
  // Drive batches until the registry flees v2. Each request fails (kError)
  // but is still answered — degraded service, zero lost requests.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (registry->version() == 2U &&
         std::chrono::steady_clock::now() < deadline) {
    auto submitted = engine.submit(probe_image());
    if (submitted.accepted) (void)submitted.future.get();
  }
  ASSERT_EQ(registry->version(), 3U) << "auto-rollback never fired";
  EXPECT_EQ(registry->active().artifact->path(), v1);
  // In-flight poisoned batches on the rolled-back version may append further
  // "health-regression" notes, so check containment rather than the tail.
  const auto events = registry->history();
  EXPECT_TRUE(std::any_of(events.begin(), events.end(), [](const auto& t) {
    return t.event == "auto-rollback";
  }));

  // Heal the chaos: the rolled-back model serves cleanly again.
  poison.store(false, std::memory_order_release);
  const auto settle = std::chrono::steady_clock::now() + 5s;
  bool healthy_again = false;
  while (!healthy_again && std::chrono::steady_clock::now() < settle) {
    auto submitted = engine.submit(probe_image());
    if (!submitted.accepted) continue;
    healthy_again =
        submitted.future.get().status == serve::ResponseStatus::kOk;
  }
  EXPECT_TRUE(healthy_again);
  engine.stop();
  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

}  // namespace
}  // namespace ullsnn::artifact
