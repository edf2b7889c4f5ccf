// Artifact + hot-swap deployment bench: what the mmap'd artifact buys at
// worker spin-up time, and what a live swap costs the serving path.
//
// Modes (combinable; with no flags both run at a short default):
//
//   --spinup     cold checkpoint parse vs full artifact load (mmap + every
//                CRC) vs per-worker replica builds: borrowed zero-copy views
//                against the old deep-copy-per-worker path.
//   --soak       swap-under-load: drive the registry-backed ServeEngine and
//                hot-swap the model every --swap-every accepted requests,
//                interleaving corrupt candidates (must be rejected with the
//                active version untouched) and one forced post-swap health
//                regression (must auto-roll back). FAILS (exit 1) on any
//                lost request, any corrupt deploy that activates, or a
//                rollback that never fires. Also reports swap-drain latency
//                (deploy() return -> every worker on the new version).
//
// Options: --seconds N, --swap-every N, --workers N, --json PATH.
//
// The JSON snapshot (tools/bench_to_json.sh artifact) is the checked-in
// bench/BENCH_artifact.json deployment baseline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/artifact/artifact.h"
#include "src/artifact/model_registry.h"
#include "src/robust/fault_injector.h"
#include "src/serve/engine.h"
#include "src/util/timer.h"

using namespace ullsnn;

namespace {

struct Options {
  bool spinup = false;
  bool soak = false;
  double seconds = 5.0;
  std::int64_t swap_every = 200;
  std::int64_t workers = 2;
  std::string json_path;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value after " + arg);
      }
      return argv[++i];
    };
    if (arg == "--spinup") {
      opt.spinup = true;
    } else if (arg == "--soak") {
      opt.soak = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--swap-every") {
      opt.swap_every = std::stoll(next());
    } else if (arg == "--workers") {
      opt.workers = std::stoll(next());
    } else if (arg == "--json") {
      opt.json_path = next();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (!opt.spinup && !opt.soak) {
    opt.spinup = true;
    opt.soak = true;
  }
  if (opt.swap_every <= 0) {
    throw std::invalid_argument("--swap-every must be positive");
  }
  return opt;
}

std::string work_dir() { return bench::cache_dir() + "/artifacts"; }

struct SpinupResult {
  double checkpoint_load_ms = 0.0;  // v2 checkpoint parse (load_tensors)
  double artifact_load_ms = 0.0;    // mmap + full CRC/bounds validation
  double borrow_spinup_us = 0.0;    // make_network(): borrowed views
  double deepcopy_spinup_us = 0.0;  // make_network() + detach every weight
  std::uint64_t artifact_bytes = 0;
  std::int64_t replicas = 0;
};

SpinupResult run_spinup(snn::SnnNetwork& net, const std::string& art_path) {
  SpinupResult r;
  constexpr std::int64_t kLoadReps = 20;
  constexpr std::int64_t kReplicaReps = 50;
  r.replicas = kReplicaReps;

  // Baseline: the pre-artifact path parsed a v2 checkpoint per process.
  const std::string ckpt = work_dir() + "/bench_weights.ckpt";
  {
    TensorDict dict;
    std::int64_t i = 0;
    for (const dnn::Param* p : net.params()) {
      std::string key = "p";
      key += std::to_string(i++);
      dict[key] = p->value;
    }
    save_tensors(dict, ckpt);
  }
  {
    Timer t;
    for (std::int64_t i = 0; i < kLoadReps; ++i) {
      const TensorDict d = load_tensors(ckpt);
      if (d.empty()) throw std::runtime_error("empty checkpoint");
    }
    r.checkpoint_load_ms = t.millis() / static_cast<double>(kLoadReps);
  }

  {
    Timer t;
    for (std::int64_t i = 0; i < kLoadReps; ++i) {
      auto art = artifact::UllsnnArtifact::load(art_path);
      r.artifact_bytes = art->file_size();
    }
    r.artifact_load_ms = t.millis() / static_cast<double>(kLoadReps);
  }

  const auto art = artifact::UllsnnArtifact::load(art_path);
  {
    Timer t;
    for (std::int64_t i = 0; i < kReplicaReps; ++i) {
      auto replica = art->make_network();
      if (replica->size() == 0) throw std::runtime_error("empty replica");
    }
    r.borrow_spinup_us =
        t.millis() * 1e3 / static_cast<double>(kReplicaReps);
  }
  {
    Timer t;
    for (std::int64_t i = 0; i < kReplicaReps; ++i) {
      auto replica = art->make_network();
      // The old path: every worker owns a full copy of every weight.
      for (dnn::Param* p : replica->params()) {
        (void)p->value.data();  // non-const access detaches the borrow
      }
    }
    r.deepcopy_spinup_us =
        t.millis() * 1e3 / static_cast<double>(kReplicaReps);
  }

  std::printf("\n== Spin-up (%lld load reps, %lld replica reps) ==\n",
              static_cast<long long>(kLoadReps),
              static_cast<long long>(kReplicaReps));
  std::printf("  checkpoint parse      %8.3f ms  (v2 load_tensors)\n",
              r.checkpoint_load_ms);
  std::printf("  artifact load         %8.3f ms  (mmap + full validation, "
              "%llu bytes)\n",
              r.artifact_load_ms,
              static_cast<unsigned long long>(r.artifact_bytes));
  std::printf("  replica, zero-copy    %8.1f us  (borrowed views)\n",
              r.borrow_spinup_us);
  std::printf("  replica, deep-copy    %8.1f us  (owned weight copies)\n",
              r.deepcopy_spinup_us);
  return r;
}

struct SoakResult {
  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  std::int64_t resolved = 0;
  std::int64_t lost = 0;
  std::int64_t swaps_requested = 0;
  std::int64_t corrupt_deploys = 0;
  std::int64_t corrupt_rejected = 0;
  std::int64_t auto_rollbacks = 0;
  double elapsed_s = 0.0;
  double drain_p50_ms = 0.0;
  double drain_max_ms = 0.0;
  bool passed = false;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

SoakResult run_soak(const Options& opt, const data::LabeledImages& test,
                    const std::vector<std::string>& versions,
                    const std::string& corrupt_path) {
  std::printf("\n== Swap-under-load soak: %.0fs, swap every %lld requests, "
              "%lld worker(s) ==\n",
              opt.seconds, static_cast<long long>(opt.swap_every),
              static_cast<long long>(opt.workers));
  SoakResult r;

  artifact::RegistryConfig rc;
  rc.health_window = 8;
  rc.health_failure_threshold = 1;
  auto registry = std::make_shared<artifact::ModelRegistry>(rc);
  registry->deploy(versions[0]);

  serve::ServeConfig config;
  config.workers = opt.workers;
  config.queue_capacity = 128;
  config.default_deadline = std::chrono::milliseconds(10000);
  config.request_timeout = std::chrono::milliseconds(30000);
  config.retry_backoff = std::chrono::microseconds(0);
  config.max_attempts = 1;
  config.governor.failure_threshold = 1 << 20;  // registry owns rollback here
  std::atomic<bool> poison{false};
  config.after_forward_hook = [&poison](const std::vector<std::int64_t>&,
                                        Tensor& logits) {
    if (poison.load(std::memory_order_acquire)) {
      logits.data()[0] = std::numeric_limits<float>::quiet_NaN();
    }
  };
  serve::ServeEngine engine(config, registry);
  engine.start();

  const std::int64_t samples = test.size();
  const std::int64_t numel = test.images.numel() / samples;
  const Shape shape(test.images.shape().begin() + 1,
                    test.images.shape().end());
  std::vector<serve::ResponseFuture> futures;
  std::vector<double> drains;
  Timer wall;
  std::size_t next_version = 1;
  while (wall.seconds() < opt.seconds) {
    // Periodic hot swap; every third swap tries the corrupt candidate.
    if (r.accepted > 0 && r.accepted % opt.swap_every == 0 &&
        r.swaps_requested * opt.swap_every < r.accepted) {
      ++r.swaps_requested;
      if (r.swaps_requested % 3 == 0) {
        ++r.corrupt_deploys;
        try {
          registry->deploy(corrupt_path);
        } catch (const artifact::ArtifactError&) {
          ++r.corrupt_rejected;
        }
      } else {
        registry->deploy(versions[next_version % versions.size()]);
        ++next_version;
        Timer drain;
        while (engine.workers_on_active() < opt.workers &&
               drain.seconds() < 10.0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        drains.push_back(drain.millis());
      }
    }
    const std::int64_t s = r.submitted % samples;
    Tensor image(shape);
    std::copy(test.images.data() + s * numel,
              test.images.data() + (s + 1) * numel, image.data());
    ++r.submitted;
    serve::SubmitResult sub = engine.submit(std::move(image));
    if (sub.accepted) {
      futures.push_back(std::move(sub.future));
      ++r.accepted;
    }
    if (r.submitted % 32 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  // Forced post-swap regression: deploy a fresh version, poison the logits,
  // and require the registry to flee back on its own.
  const std::uint64_t before = registry->version();
  registry->deploy(versions[next_version % versions.size()]);
  poison.store(true, std::memory_order_release);
  Timer rollback_timer;
  while (registry->version() == before + 1 && rollback_timer.seconds() < 10.0) {
    const std::int64_t s = r.submitted % samples;
    Tensor image(shape);
    std::copy(test.images.data() + s * numel,
              test.images.data() + (s + 1) * numel, image.data());
    ++r.submitted;
    serve::SubmitResult sub = engine.submit(std::move(image));
    if (sub.accepted) {
      futures.push_back(std::move(sub.future));
      ++r.accepted;
    }
  }
  poison.store(false, std::memory_order_release);
  for (const auto& t : registry->history()) {
    if (t.event == "auto-rollback") ++r.auto_rollbacks;
  }

  for (auto& f : futures) {
    if (!f.valid()) continue;
    (void)f.get();  // watchdog bounds this; every accepted request resolves
    ++r.resolved;
  }
  engine.stop();
  r.elapsed_s = wall.seconds();
  r.lost = r.accepted - r.resolved;
  r.drain_p50_ms = percentile(drains, 0.50);
  r.drain_max_ms = drains.empty() ? 0.0 : *std::max_element(drains.begin(),
                                                            drains.end());
  r.passed = r.lost == 0 && r.corrupt_rejected == r.corrupt_deploys &&
             r.corrupt_deploys > 0 && r.auto_rollbacks >= 1;

  std::printf("  submitted=%lld accepted=%lld resolved=%lld lost=%lld\n",
              static_cast<long long>(r.submitted),
              static_cast<long long>(r.accepted),
              static_cast<long long>(r.resolved),
              static_cast<long long>(r.lost));
  std::printf("  swaps=%lld drain p50=%.2fms max=%.2fms\n",
              static_cast<long long>(r.swaps_requested), r.drain_p50_ms,
              r.drain_max_ms);
  std::printf("  corrupt deploys=%lld rejected=%lld auto-rollbacks=%lld\n",
              static_cast<long long>(r.corrupt_deploys),
              static_cast<long long>(r.corrupt_rejected),
              static_cast<long long>(r.auto_rollbacks));
  std::printf("  %s\n", r.passed ? "PASSED" : "FAILED");
  return r;
}

void write_json(const std::string& path, bench::Scale scale,
                const SpinupResult* spinup, const SoakResult* soak) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\n  \"bench\": \"artifact\",\n  \"scale\": \"%s\"",
               bench::scale_name(scale));
  if (spinup != nullptr) {
    std::fprintf(f,
                 ",\n  \"spinup\": {\n"
                 "    \"checkpoint_load_ms\": %.3f,\n"
                 "    \"artifact_load_ms\": %.3f,\n"
                 "    \"replica_zero_copy_us\": %.1f,\n"
                 "    \"replica_deep_copy_us\": %.1f,\n"
                 "    \"artifact_bytes\": %llu\n  }",
                 spinup->checkpoint_load_ms, spinup->artifact_load_ms,
                 spinup->borrow_spinup_us, spinup->deepcopy_spinup_us,
                 static_cast<unsigned long long>(spinup->artifact_bytes));
  }
  if (soak != nullptr) {
    std::fprintf(f,
                 ",\n  \"soak\": {\n"
                 "    \"seconds\": %.3f,\n"
                 "    \"submitted\": %lld,\n"
                 "    \"accepted\": %lld,\n"
                 "    \"resolved\": %lld,\n"
                 "    \"lost\": %lld,\n"
                 "    \"swaps\": %lld,\n"
                 "    \"drain_ms\": {\"p50\": %.3f, \"max\": %.3f},\n"
                 "    \"corrupt_deploys\": %lld,\n"
                 "    \"corrupt_rejected\": %lld,\n"
                 "    \"auto_rollbacks\": %lld,\n"
                 "    \"passed\": %s\n  }",
                 soak->elapsed_s, static_cast<long long>(soak->submitted),
                 static_cast<long long>(soak->accepted),
                 static_cast<long long>(soak->resolved),
                 static_cast<long long>(soak->lost),
                 static_cast<long long>(soak->swaps_requested),
                 soak->drain_p50_ms, soak->drain_max_ms,
                 static_cast<long long>(soak->corrupt_deploys),
                 static_cast<long long>(soak->corrupt_rejected),
                 static_cast<long long>(soak->auto_rollbacks),
                 soak->passed ? "true" : "false");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_options(argc, argv);
    const bench::Scale scale = bench::read_scale();
    bench::BenchSetup setup = bench::setup_for(scale);
    std::printf("== Artifact bench (scale: %s) ==\n",
                bench::scale_name(scale));

    // Artifact benches measure deployment mechanics, not accuracy: an
    // untrained VGG-11 has the same layout, size, and conversion cost as a
    // trained one, so skip the training stage entirely.
    const bench::BenchData data = bench::make_data(10, setup);
    dnn::ModelConfig mc;
    mc.width = setup.width_for(core::Architecture::kVgg11);
    mc.num_classes = 10;
    std::filesystem::create_directories(work_dir());

    std::vector<std::string> versions;
    std::unique_ptr<snn::SnnNetwork> net;
    for (std::uint64_t v = 0; v < 2; ++v) {
      Rng rng(3 + v);  // same topology, different weights: hot-swappable
      auto model = core::build_model(core::Architecture::kVgg11, mc, rng);
      const core::ActivationProfile profile =
          core::collect_activations(*model, data.train);
      core::ConversionConfig cc;
      cc.time_steps = 3;
      auto converted = core::convert(*model, profile, cc, nullptr);
      artifact::PackOptions po;
      po.input_shape = Shape(data.test.images.shape().begin() + 1,
                             data.test.images.shape().end());
      const std::string path =
          work_dir() + "/bench_v" + std::to_string(v + 1) + ".art";
      artifact::pack_network(*converted, path, po);
      versions.push_back(path);
      if (v == 0) net = std::move(converted);
    }
    // The corrupt candidate: a valid artifact with one payload byte flipped.
    const std::string corrupt = work_dir() + "/bench_corrupt.art";
    std::filesystem::copy_file(versions[0], corrupt,
                               std::filesystem::copy_options::overwrite_existing);
    robust::FaultInjector::corrupt_byte(
        corrupt, std::filesystem::file_size(corrupt) / 2, 0x20);

    SpinupResult spinup;
    bool have_spinup = false;
    if (opt.spinup) {
      spinup = run_spinup(*net, versions[0]);
      have_spinup = true;
    }
    SoakResult soak;
    bool have_soak = false;
    if (opt.soak) {
      soak = run_soak(opt, data.test, versions, corrupt);
      have_soak = true;
    }
    if (!opt.json_path.empty()) {
      write_json(opt.json_path, scale, have_spinup ? &spinup : nullptr,
                 have_soak ? &soak : nullptr);
    }
    return have_soak && !soak.passed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_artifact: %s\n", e.what());
    return 1;
  }
}
