// Model-checking ModelRegistry hot-swap against a draining worker and a
// health-chaos thread: deploy(v2), active()-snapshot serving, and an
// unhealthy verdict race through exhaustive interleavings. Invariants:
// active() never hands out a null artifact once a version is live, snapshots
// stay valid (pinned) across a swap that retires their version, verdicts for
// non-active versions are inert, and the counters/history stay consistent
// with whichever of the two legal outcomes (swap sticks vs auto-rollback)
// the schedule produced.
//
// hook_test_points stays OFF here: registry methods hold mu_ across calls
// that reach ULLSNN_TEST_POINT sites, and parking a thread that holds a real
// mutex would wedge any body blocked on the same mutex (see the model rules
// in tests/sched/sched.h). Explicit yield_point()s between operations are the
// decision points instead.
#include "src/artifact/model_registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tests/sched/sched.h"
#include "src/snn/snn_network.h"
#include "src/snn/spiking_layers.h"
#include "src/tensor/random.h"

namespace ullsnn::artifact {
namespace {

/// Same closed-form same-arch construction as tests/artifact/registry_test.cpp
/// (identity hidden layer, seed-perturbed so versions are distinguishable).
std::string pack_version(const char* name, std::uint64_t seed) {
  const std::string path = testing::TempDir() + "/" + name;
  Rng rng(seed);
  snn::SnnNetwork net(3);
  Tensor w1({4, 4});
  for (std::int64_t i = 0; i < 4; ++i) {
    w1.at(i, i) = 1.0F + 0.001F * static_cast<float>(seed % 7);
  }
  snn::IfConfig cfg;
  cfg.v_threshold = 1.0F;
  net.emplace<snn::SynapticLayer>(snn::Synapse(w1), cfg);
  Tensor w2({2, 4});
  for (std::int64_t i = 0; i < w2.numel(); ++i) {
    w2[i] = rng.uniform() * 0.5F - 0.25F;
  }
  net.emplace<snn::SynapticLayer>(snn::Synapse(w2), std::nullopt);
  PackOptions opt;
  opt.input_shape = {4};
  opt.probe_batch = 2;
  pack_network(net, path, opt);
  return path;
}

struct RegistryModel {
  explicit RegistryModel(const std::string& v1_path) {
    RegistryConfig cfg;
    cfg.verify_canary = false;  // canary replay is covered by artifact tests;
                                // here each interleaving re-deploys, so keep
                                // the per-run cost to load + arch gate + flip
    cfg.health_window = 4;
    cfg.health_failure_threshold = 1;
    registry = std::make_unique<ModelRegistry>(cfg);
    registry->deploy(v1_path);  // version 1 live before the race begins
  }

  std::unique_ptr<ModelRegistry> registry;
  std::uint64_t deployed_version = 0;
  std::vector<std::pair<std::uint64_t, std::string>> observed;  // (ver, path)
  std::vector<std::shared_ptr<const UllsnnArtifact>> pins;
  bool null_active = false;
};

sched::ModelRun make_registry_run(const std::string& v1_path,
                                  const std::string& v2_path) {
  auto m = std::make_shared<RegistryModel>(v1_path);
  sched::ModelRun run;

  run.bodies.push_back([m, v2_path] {  // deployer
    sched::yield_point("deploy");
    m->deployed_version = m->registry->deploy(v2_path);
    sched::yield_point("post-deploy");
    (void)m->registry->version();  // racing read; value checked in verify
  });
  run.bodies.push_back([m] {  // serving worker: snapshot, serve, report
    for (int i = 0; i < 3; ++i) {
      sched::yield_point("serve");
      const ModelRegistry::Snapshot snap = m->registry->active();
      if (snap.artifact == nullptr) {
        m->null_active = true;
        continue;
      }
      m->observed.emplace_back(snap.version, snap.artifact->path());
      m->pins.push_back(snap.artifact);  // held across any concurrent swap
      m->registry->record_batch_health(snap.version, /*healthy=*/true);
    }
  });
  run.bodies.push_back([m] {  // chaos: one unhealthy verdict aimed at v2
    sched::yield_point("chaos");
    m->registry->record_batch_health(/*version=*/2, /*healthy=*/false);
    sched::yield_point("observe");
    (void)m->registry->can_rollback();
  });

  run.verify = [m, v1_path, v2_path] {
    const auto fail = [](const std::string& why) {
      throw std::runtime_error("registry invariant: " + why);
    };
    if (m->null_active) fail("active() returned null after first deploy");
    if (m->deployed_version != 2) fail("deploy(v2) did not return version 2");

    // Two legal outcomes: the unhealthy verdict landed while v2 was active
    // and inside its watch window (auto-rollback to v1, version 3), or it
    // landed while v1 was still active and was ignored (v2 sticks).
    const std::uint64_t final_version = m->registry->version();
    if (final_version != 2 && final_version != 3) {
      fail("final version " + std::to_string(final_version));
    }
    const bool rolled_back = final_version == 3;
    const ModelRegistry::Snapshot final_snap = m->registry->active();
    if (final_snap.artifact == nullptr) fail("final active artifact null");
    if (final_snap.artifact->path() != (rolled_back ? v1_path : v2_path)) {
      fail("final active artifact does not match final version");
    }

    if (m->registry->deploys() != 2) fail("deploys != 2");
    if (m->registry->rejects() != 0) fail("unexpected reject");
    if (m->registry->rollbacks() != (rolled_back ? 1 : 0)) {
      fail("rollback count inconsistent with final version");
    }
    const auto history = m->registry->history();
    if (history.size() != static_cast<std::size_t>(2 + (rolled_back ? 1 : 0))) {
      fail("history size inconsistent with transitions");
    }
    if (rolled_back && history.back().event != "auto-rollback") {
      fail("rollback outcome without auto-rollback history entry");
    }

    // Every snapshot the worker served from was version-consistent, and the
    // pinned artifacts must still be readable even though the registry has
    // moved on (shared_ptr pins the mmap — no use-after-swap).
    for (std::size_t i = 0; i < m->observed.size(); ++i) {
      const auto& [ver, path] = m->observed[i];
      if (ver == 0 || ver > 3) fail("observed impossible version");
      const std::string& want = (ver == 2) ? v2_path : v1_path;
      if (path != want) fail("snapshot version/path mismatch");
      if (m->pins[i]->path() != path) fail("pinned artifact changed identity");
    }
  };
  return run;
}

TEST(RegistryModelTest, SwapDrainRollbackAcrossInterleavings) {
  const std::string v1 = pack_version("sched_registry_v1.art", 1);
  const std::string v2 = pack_version("sched_registry_v2.art", 2);

  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 1500;
  const sched::ExploreStats stats = sched::explore(
      [&] { return make_registry_run(v1, v2); }, opts);
  // deployer x3 + worker x4 + chaos x3 = 10 steps: 4200 interleavings.
  EXPECT_GE(stats.distinct, 1000) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct);

  std::filesystem::remove(v1);
  std::filesystem::remove(v2);
}

}  // namespace
}  // namespace ullsnn::artifact
