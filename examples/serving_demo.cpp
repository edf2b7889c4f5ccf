// Resilient serving demo: the degradation ladder and zero-downtime deploys,
// end to end.
//
// Trains a small VGG-11 on SyntheticCIFAR-10, converts it to a T=3 SNN, and
// serves it through the ServeEngine in six acts:
//
//   1. healthy traffic    — requests served at the full T=3 budget
//   2. numeric distress   — a fault hook poisons the logits with NaN; the
//                           governor's health signal (the circuit breaker)
//                           walks the ladder T=3 -> 2 -> 1, then opens and
//                           answers kUnavailable
//   3. recovery           — the fault clears; a half-open probe succeeds and
//                           the breaker climbs back to full T
//   4. hot swap           — the model is packed into a v1 artifact and served
//                           through a ModelRegistry; a retrained v2 deploys
//                           mid-traffic behind the canary gate, workers drain
//                           and rebuild, zero requests lost
//   5. corrupt deploy     — a bit-flipped v3 artifact is rejected at the gate
//                           (CRC) while v2 keeps serving uninterrupted
//   6. bad retrain        — a v4 that passes its own canary but regresses in
//                           production is auto-rolled back to v2
//
// The governor's and registry's transition histories are printed at the end —
// the same arcs the `ctest -L serve` and `ctest -L artifact` suites assert.
//
// Usage: serving_demo [epochs] [train_size]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <vector>

#include "src/artifact/artifact.h"
#include "src/artifact/model_registry.h"
#include "src/core/pipeline.h"
#include "src/obs/flight_recorder.h"
#include "src/robust/fault_injector.h"
#include "src/serve/engine.h"

using namespace ullsnn;

namespace {

/// Send `n` requests one at a time and tally their statuses.
void drive(serve::ServeEngine& engine, const data::LabeledImages& dataset,
           std::int64_t n, std::int64_t* cursor, const char* act) {
  std::int64_t ok = 0, degraded = 0, unavailable = 0, error = 0, other = 0;
  const std::int64_t samples = dataset.size();
  const std::int64_t numel = dataset.images.numel() / samples;
  const Shape shape(dataset.images.shape().begin() + 1,
                    dataset.images.shape().end());
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t s = (*cursor)++ % samples;
    Tensor image(shape);
    std::copy(dataset.images.data() + s * numel,
              dataset.images.data() + (s + 1) * numel, image.data());
    serve::SubmitResult r = engine.submit(std::move(image));
    if (!r.accepted) {
      ++other;
      continue;
    }
    const serve::InferResponse resp = r.future.get();
    switch (resp.status) {
      case serve::ResponseStatus::kOk: ++ok; break;
      case serve::ResponseStatus::kDegraded: ++degraded; break;
      case serve::ResponseStatus::kUnavailable: ++unavailable; break;
      case serve::ResponseStatus::kError: ++error; break;
      default: ++other; break;
    }
  }
  std::printf("[%s] %lld requests: ok=%lld degraded=%lld unavailable=%lld "
              "error=%lld other=%lld (breaker: %s at T=%lld)\n",
              act, static_cast<long long>(n), static_cast<long long>(ok),
              static_cast<long long>(degraded),
              static_cast<long long>(unavailable),
              static_cast<long long>(error), static_cast<long long>(other),
              serve::to_string(engine.governor().state()),
              static_cast<long long>(engine.governor().time_steps()));
}

int run(int argc, char** argv) {
  const std::int64_t epochs = argc > 1 ? std::atoll(argv[1]) : 6;
  const std::int64_t train_size = argc > 2 ? std::atoll(argv[2]) : 512;

  // Stage 1: train + convert (the usual pipeline, kept small).
  data::SyntheticCifarSpec spec;
  data::SyntheticCifar gen(spec);
  data::LabeledImages train = gen.generate(train_size, 1);
  data::LabeledImages test = gen.generate(train_size / 4, 2);
  const data::ChannelStats stats = data::standardize(train);
  data::apply_standardize(test, stats);

  dnn::ModelConfig mc;
  mc.width = 0.125F;
  mc.num_classes = spec.num_classes;
  Rng rng(3);
  auto model_ptr = core::build_model(core::Architecture::kVgg11, mc, rng);
  dnn::Sequential& model = *model_ptr;
  std::printf("== serving demo: training VGG-11 (%lld epochs) ==\n",
              static_cast<long long>(epochs));
  dnn::TrainConfig tc;
  tc.epochs = epochs;
  tc.augment = false;
  dnn::DnnTrainer trainer(model, tc);
  trainer.fit(train);
  std::printf("DNN accuracy: %.2f%%\n",
              100.0 * dnn::evaluate_model(model, test, 32));
  const core::ActivationProfile profile =
      core::collect_activations(model, train);

  // Stage 2: a serving engine whose breaker reacts quickly, so the three
  // acts fit in seconds. Production configs would use larger thresholds.
  serve::ServeConfig sc;
  sc.workers = 1;
  sc.batcher.max_batch = 1;  // one request per batch: readable transitions
  sc.governor.ladder = {3, 2, 1};
  sc.governor.failure_threshold = 2;
  sc.governor.recovery_threshold = 2;
  sc.governor.open_cooldown = 3;
  sc.max_attempts = 1;  // the fault is persistent; retries would not help
  sc.default_deadline = std::chrono::milliseconds(10000);
  sc.request_timeout = std::chrono::milliseconds(30000);
  sc.input_shape = Shape(test.images.shape().begin() + 1,
                         test.images.shape().end());

  // Live operations: serve /metrics, /healthz, and /flight while the acts
  // run, and auto-dump the flight recorder on anomalies — the act-2 circuit
  // open will write one.
  const std::string flight_path =
      (std::filesystem::temp_directory_path() / "ullsnn_serving_demo_flight.jsonl")
          .string();
  sc.obs.endpoint = true;
  sc.obs.flight_dump_path = flight_path;

  std::atomic<bool> poison{false};
  sc.after_forward_hook = [&poison](const std::vector<std::int64_t>&,
                                    Tensor& logits) {
    if (poison.load(std::memory_order_relaxed)) {
      logits.data()[0] = std::numeric_limits<float>::quiet_NaN();
    }
  };

  core::ConversionConfig cc;
  cc.time_steps = 3;
  serve::ServeEngine engine(
      sc, [&model, &profile, cc] {
        return core::convert(model, profile, cc, nullptr);
      });
  engine.start();
  std::printf("live endpoint up: curl -s 127.0.0.1:%d/metrics | grep ^serve_\n"
              "                  curl -s 127.0.0.1:%d/healthz   "
              "(503 while the circuit is open)\n"
              "                  curl -s 127.0.0.1:%d/flight\n",
              engine.http_port(), engine.http_port(), engine.http_port());
  std::int64_t cursor = 0;

  // Act 1: healthy traffic at full T.
  drive(engine, test, 20, &cursor, "act 1: healthy");

  // Act 2: poison the logits — watch the ladder descend, then the circuit
  // open.
  poison.store(true);
  drive(engine, test, 12, &cursor, "act 2: distress");

  // Act 3: the fault clears; cooldown, half-open probe, then climb back up.
  poison.store(false);
  drive(engine, test, 16, &cursor, "act 3: recovery");

  engine.stop();

  std::printf("\nGovernor transition history:\n");
  for (const serve::TimeStepGovernor::Transition& t :
       engine.governor().history()) {
    std::printf("  event %4lld: %-6s %-9s T=%lld  (%s)\n",
                static_cast<long long>(t.sequence), serve::to_string(t.signal),
                serve::to_string(t.state),
                static_cast<long long>(t.time_steps), t.cause.c_str());
  }
  const serve::ServeStats s = engine.stats();
  std::printf("\nTotals: submitted=%lld ok=%lld degraded=%lld "
              "unavailable=%lld errors=%lld trips=%lld recoveries=%lld\n",
              static_cast<long long>(s.submitted),
              static_cast<long long>(s.completed_ok),
              static_cast<long long>(s.completed_degraded),
              static_cast<long long>(s.unavailable),
              static_cast<long long>(s.errors),
              static_cast<long long>(engine.governor().trips()),
              static_cast<long long>(engine.governor().recoveries()));

  // The act-2 breaker open was an anomaly: the flight recorder dumped the
  // recent request/event rings (with per-stage timings) for forensics.
  obs::FlightRecorder& flight = obs::FlightRecorder::instance();
  std::printf("flight recorder: %llu requests seen, %lld anomalies, "
              "%lld dump(s) -> %s\n",
              static_cast<unsigned long long>(flight.requests_recorded()),
              static_cast<long long>(flight.anomalies()),
              static_cast<long long>(flight.dumps_written()),
              flight_path.c_str());

  // The demo's contract: the breaker must have tripped during act 2 and
  // recovered during act 3; anything else means the arc did not happen.
  if (engine.governor().trips() < 1 || engine.governor().recoveries() < 1) {
    std::fprintf(stderr, "serving_demo: breaker never completed the "
                         "trip/recover arc\n");
    return 1;
  }
  std::printf("\nThe breaker walked healthy -> degraded -> open -> probe -> "
              "recovered.\n");

  // ---- Acts 4-6: zero-downtime deploys through the ModelRegistry ----
  const std::string art_dir =
      (std::filesystem::temp_directory_path() / "ullsnn_serving_demo").string();
  std::filesystem::create_directories(art_dir);
  const std::string v1_path = art_dir + "/model_v1.art";
  const std::string v2_path = art_dir + "/model_v2.art";
  const std::string v3_path = art_dir + "/model_v3.art";

  artifact::PackOptions po;
  po.input_shape = sc.input_shape;
  {
    auto packed = core::convert(model, profile, cc, nullptr);
    artifact::pack_network(*packed, v1_path, po);
  }
  {
    // "Retrain": one more epoch, then re-convert. Same topology, new
    // weights — exactly what the arch-fingerprint gate is built to allow.
    dnn::TrainConfig retrain = tc;
    retrain.epochs = 1;
    dnn::DnnTrainer(model, retrain).fit(train);
    const core::ActivationProfile profile2 =
        core::collect_activations(model, train);
    auto packed = core::convert(model, profile2, cc, nullptr);
    artifact::pack_network(*packed, v2_path, po);
  }

  artifact::RegistryConfig rc;
  rc.health_window = 6;
  rc.health_failure_threshold = 1;
  auto registry = std::make_shared<artifact::ModelRegistry>(rc);
  registry->deploy(v1_path);

  serve::ServeConfig rsc = sc;
  rsc.max_attempts = 1;
  rsc.governor = serve::GovernorConfig{};  // registry owns rollback in this act
  serve::ServeEngine deploy_engine(rsc, registry);
  deploy_engine.start();

  // Act 4: traffic on v1, then deploy v2 mid-stream and keep serving.
  drive(deploy_engine, test, 10, &cursor, "act 4: serving v1");
  registry->deploy(v2_path);
  drive(deploy_engine, test, 10, &cursor, "act 4: swapped to v2");
  std::printf("[act 4] workers on active version: %lld/%lld, swaps: %lld\n",
              static_cast<long long>(deploy_engine.workers_on_active()),
              static_cast<long long>(rsc.workers),
              static_cast<long long>(deploy_engine.stats().swaps));

  // Act 5: a corrupt v3 must be rejected at the gate, v2 untouched.
  std::filesystem::copy_file(v2_path, v3_path,
                             std::filesystem::copy_options::overwrite_existing);
  robust::FaultInjector::corrupt_byte(
      v3_path, std::filesystem::file_size(v3_path) / 2, 0x08);
  try {
    registry->deploy(v3_path);
    std::fprintf(stderr, "serving_demo: corrupt artifact was activated\n");
    return 1;
  } catch (const artifact::ArtifactError& e) {
    std::printf("[act 5] corrupt v3 rejected: [%s]\n", to_string(e.code()));
  }
  drive(deploy_engine, test, 8, &cursor, "act 5: still on v2");

  // Act 6: a v4 that canaries clean but regresses in production; the
  // registry's post-swap health window rolls it back automatically.
  const std::uint64_t before_v4 = registry->version();
  registry->deploy(v1_path);  // any same-arch artifact stands in for "v4"
  poison.store(true);
  for (int round = 0; registry->version() == before_v4 + 1; ++round) {
    if (round > 50) {
      std::fprintf(stderr, "serving_demo: auto-rollback never fired\n");
      return 1;
    }
    drive(deploy_engine, test, 4, &cursor, "act 6: regressing");
  }
  poison.store(false);
  drive(deploy_engine, test, 8, &cursor, "act 6: rolled back");
  deploy_engine.stop();

  std::printf("\nRegistry transition history:\n");
  for (const artifact::ModelRegistry::Transition& t : registry->history()) {
    std::printf("  seq %3lld: %-13s -> v%llu  (%s)\n",
                static_cast<long long>(t.sequence), t.event.c_str(),
                static_cast<unsigned long long>(t.version), t.detail.c_str());
  }

  if (registry->rejects() < 1 || registry->rollbacks() < 1) {
    std::fprintf(stderr, "serving_demo: registry never completed the "
                         "reject/rollback arc\n");
    return 1;
  }
  std::printf("\nThe registry deployed, gated a corrupt artifact, and "
              "auto-rolled back a bad retrain — zero requests lost.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serving_demo: %s\n", e.what());
    return 1;
  }
}
