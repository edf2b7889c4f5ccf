// Open-loop load bench: locate the serving knee, then prove the overload
// controls hold past it.
//
// Unlike bench_serve's closed-loop soak (which self-throttles under
// overload and therefore cannot see it — coordinated omission), this bench
// drives the engine with serve::LoadGen: a Poisson arrival schedule fixed
// before the run, every request submitted on time regardless of engine
// state, latency measured from the intended arrival.
//
// Protocol:
//   1. Calibrate: closed-loop saturation run measures the engine's service
//      capacity (QPS) on this machine, so every sweep point is knee-relative
//      and the checked-in gates are machine-independent.
//   2. Sweep: one fresh engine per point at --rel multiples of the knee
//      (default 0.5, 0.75, 1.0, 1.5, 2.0, 3.0), reporting per-class goodput,
//      shed rate, and coordinated-omission-safe latency percentiles.
//   3. Gate (exit 1 on violation):
//        - exact conservation at every point, in both the generator's ledger
//          and the engine's own stats;
//        - zero watchdog terminations (shedding must act before timeouts);
//        - sub-knee: >= 99% of interactive submissions fulfilled;
//        - overload (>= 2x knee): fulfilled-request p99 within 2x of the
//          sub-knee p99 — shedding keeps admitted work fast;
//        - overload: interactive goodput strictly above batch goodput
//          (priority inversion absent);
//        - goodput retention: supra-knee goodput >= 80% of the best
//          sub/at-knee goodput (monotone-nondecreasing up to noise);
//        - clean drain from the deepest overload point: queue empty and
//          ledger balanced after the offered load stops.
//
// Fault mode (--stall-rate/--stall-ms/--slow-replicas/--slow-factor) routes
// robust::FaultInjector worker-stall and slow-replica faults through the
// engine's chaos hooks; the same gates must hold, which is the "watchdog +
// shedding keep goodput monotone under partial failure" claim.
//
// Options: --seconds N (per sweep point), --workers N, --rel "0.5,1,2",
//          --base-qps Q (skip calibration; Q becomes the knee),
//          --stall-rate R --stall-ms M, --slow-replicas R --slow-factor F,
//          --json PATH.
//
// The JSON snapshot (tools/bench_to_json.sh load) is the checked-in
// bench/BENCH_load.json baseline; tools/compare_bench.py --load re-checks
// the gate booleans.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/robust/fault_injector.h"
#include "src/serve/engine.h"
#include "src/serve/loadgen.h"
#include "src/util/mutex.h"
#include "src/util/timer.h"

using namespace ullsnn;

namespace {

struct Options {
  double seconds = -1.0;  // per sweep point; <0 = scale default
  std::int64_t workers = 2;
  std::vector<double> rel = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
  double base_qps = 0.0;  // >0 skips calibration
  double stall_rate = 0.0;
  std::int64_t stall_ms = 20;
  double slow_replica_rate = 0.0;
  double slow_replica_factor = 3.0;
  std::string json_path;
};

std::vector<double> parse_list(const std::string& csv) {
  std::vector<double> values;
  std::istringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) values.push_back(std::stod(item));
  }
  if (values.empty()) {
    throw std::invalid_argument("--rel needs a non-empty comma list");
  }
  std::sort(values.begin(), values.end());
  return values;
}

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
    if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--workers") {
      opt.workers = std::stoll(next());
    } else if (arg == "--rel") {
      opt.rel = parse_list(next());
    } else if (arg == "--base-qps") {
      opt.base_qps = std::stod(next());
    } else if (arg == "--stall-rate") {
      opt.stall_rate = std::stod(next());
    } else if (arg == "--stall-ms") {
      opt.stall_ms = std::stoll(next());
    } else if (arg == "--slow-replicas") {
      opt.slow_replica_rate = std::stod(next());
    } else if (arg == "--slow-factor") {
      opt.slow_replica_factor = std::stod(next());
    } else if (arg == "--json") {
      opt.json_path = next();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (opt.workers <= 0) throw std::invalid_argument("--workers must be positive");
  if (opt.stall_rate < 0.0 || opt.stall_rate > 1.0) {
    throw std::invalid_argument("--stall-rate must be in [0, 1]");
  }
  if (opt.slow_replica_rate < 0.0 || opt.slow_replica_rate > 1.0) {
    throw std::invalid_argument("--slow-replicas must be in [0, 1]");
  }
  return opt;
}

/// The engine ledger must balance exactly at quiescence (see ServeStats).
bool engine_conserved(const serve::ServeStats& s) {
  return s.submitted == s.accepted + s.rejected + s.shed_admission &&
         s.accepted == s.completed_ok + s.completed_degraded +
                           s.shed_deadline + s.shed_load + s.unavailable +
                           s.timeouts + s.errors;
}

/// Shared engine configuration for calibration and every sweep point. The
/// fault hooks (when enabled) are installed on top by make_engine.
serve::ServeConfig base_config(const Options& opt, const Shape& input_shape) {
  serve::ServeConfig config;
  config.workers = opt.workers;
  config.queue_capacity = 64;        // interactive lane
  config.batch_queue_capacity = 64;  // batch lane
  config.batcher.max_batch = 8;
  config.default_deadline = std::chrono::milliseconds(250);
  config.request_timeout = std::chrono::milliseconds(20000);
  config.max_attempts = 2;
  config.retry_backoff = std::chrono::microseconds(50);
  config.input_shape = input_shape;
  return config;
}

/// Per-worker slowdown routing: the chaos hooks carry no worker index, so
/// slow-replica delays key off a dense index assigned to each worker thread
/// on first sight. Assignment order is nondeterministic but the *number* of
/// slow workers is fixed by the injector's pure hash, which is what the
/// goodput gates depend on.
struct SlowReplicaRouter {
  robust::FaultInjector* injector;
  double per_batch_ms;  // nominal batch service time at calibrated capacity
  Mutex mu;
  std::map<std::thread::id, std::int64_t> dense GUARDED_BY(mu);

  void before_forward() {
    std::int64_t index = 0;
    {
      MutexLock lock(mu);
      const auto it = dense.find(std::this_thread::get_id());
      if (it == dense.end()) {
        index = static_cast<std::int64_t>(dense.size());
        dense.emplace(std::this_thread::get_id(), index);
      } else {
        index = it->second;
      }
    }
    const double factor = injector->replica_slowdown(index);
    if (factor > 1.0 && per_batch_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          per_batch_ms * (factor - 1.0)));
    }
  }
};

struct EngineHarness {
  std::unique_ptr<serve::ServeEngine> engine;
  std::shared_ptr<robust::FaultInjector> injector;
  std::shared_ptr<SlowReplicaRouter> router;
};

EngineHarness make_engine(const Options& opt, const Shape& input_shape,
                          const serve::NetworkFactory& factory,
                          bool with_faults, double per_batch_ms) {
  EngineHarness h;
  serve::ServeConfig config = base_config(opt, input_shape);
  if (with_faults &&
      (opt.stall_rate > 0.0 || opt.slow_replica_rate > 0.0)) {
    robust::FaultSpec spec;
    spec.stall_rate = opt.stall_rate;
    spec.stall_ms = std::chrono::milliseconds(opt.stall_ms);
    spec.slow_replica_rate = opt.slow_replica_rate;
    spec.slow_replica_factor = opt.slow_replica_factor;
    h.injector = std::make_shared<robust::FaultInjector>(spec);
    h.router = std::make_shared<SlowReplicaRouter>();
    h.router->injector = h.injector.get();
    h.router->per_batch_ms = per_batch_ms;
    auto injector = h.injector;
    auto router = h.router;
    config.before_forward_hook =
        [injector, router](const std::vector<std::int64_t>&, std::int64_t,
                           snn::SnnNetwork&) {
          injector->maybe_stall();
          router->before_forward();
        };
  }
  h.engine = std::make_unique<serve::ServeEngine>(config, factory);
  return h;
}

/// Closed-loop saturation run: keep a deep backlog of no-deadline requests
/// in flight and measure completion throughput. That plateau is the service
/// capacity — the knee of the open-loop latency curve.
double calibrate_capacity_qps(const Options& opt, const Shape& input_shape,
                              const serve::NetworkFactory& factory,
                              const std::vector<Tensor>& images,
                              double seconds) {
  EngineHarness h =
      make_engine(opt, input_shape, factory, /*with_faults=*/false, 0.0);
  h.engine->start();
  constexpr std::int64_t kWave = 32;
  std::size_t image_index = 0;
  std::int64_t completed = 0;
  const auto submit_wave = [&] {
    std::vector<serve::ResponseFuture> futures;
    futures.reserve(kWave);
    for (std::int64_t k = 0; k < kWave; ++k) {
      Tensor image = images[image_index];
      image_index = (image_index + 1) % images.size();
      serve::SubmitOptions options;
      options.deadline = std::chrono::milliseconds(0);  // no deadline
      serve::SubmitResult r = h.engine->submit(std::move(image), options);
      if (r.accepted) futures.push_back(std::move(r.future));
    }
    return futures;
  };
  // Warmup wave (replica construction, cache effects) is not measured.
  for (const serve::ResponseFuture& f : submit_wave()) f.get();
  Timer wall;
  while (wall.seconds() < seconds) {
    for (const serve::ResponseFuture& f : submit_wave()) {
      f.get();
      ++completed;
    }
  }
  const double elapsed = wall.seconds();
  h.engine->stop();
  return elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
}

struct SweepPoint {
  double rel = 0.0;
  double qps = 0.0;
  serve::LoadReport report;
  serve::ServeStats stats;
  std::int64_t brownout_deepest = 0;
  std::int64_t breaker_trips = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double max_lag_ms = 0.0;
  bool conserved = false;  // generator ledger AND engine ledger
  bool drained = false;    // queue empty after the offered load stopped
};

SweepPoint run_point(const Options& opt, const Shape& input_shape,
                     const serve::NetworkFactory& factory,
                     const std::vector<Tensor>& images, double rel,
                     double qps, double seconds, double per_batch_ms) {
  SweepPoint point;
  point.rel = rel;
  point.qps = qps;

  EngineHarness h =
      make_engine(opt, input_shape, factory, /*with_faults=*/true, per_batch_ms);
  h.engine->start();

  // Warm every worker replica before the measured run: first-batch replica
  // construction would otherwise back the queue up and escalate brownout
  // even far below the knee.
  {
    std::vector<serve::ResponseFuture> warm;
    for (std::int64_t k = 0; k < 2 * opt.workers * 8; ++k) {
      Tensor image = images[static_cast<std::size_t>(k) % images.size()];
      serve::SubmitOptions options;
      options.deadline = std::chrono::milliseconds(0);  // no deadline
      serve::SubmitResult r = h.engine->submit(std::move(image), options);
      if (r.accepted) warm.push_back(std::move(r.future));
    }
    for (const serve::ResponseFuture& f : warm) f.get();
  }
  // Ledger snapshot after warmup: the cross-check against the generator's
  // report compares deltas so warmup traffic does not skew it.
  const serve::ServeStats pre = h.engine->stats();

  serve::LoadGenConfig lg;
  lg.qps = qps;
  lg.duration = std::chrono::milliseconds(static_cast<std::int64_t>(seconds * 1000.0));
  lg.interactive_fraction = 0.8;
  lg.interactive_deadline = {std::chrono::milliseconds(40),
                             std::chrono::milliseconds(80)};
  lg.batch_deadline = {std::chrono::milliseconds(200),
                       std::chrono::milliseconds(400)};
  lg.collectors = 2;
  lg.seed = 0x10AD + static_cast<std::uint64_t>(rel * 1000.0);
  lg.images = images;
  serve::LoadGen gen(lg);
  point.report = gen.run(*h.engine);

  // run() returns only after every accepted future resolved, so the engine
  // should be idle: an empty queue here is the clean-drain evidence.
  Timer drain;
  while (h.engine->queue_depth() > 0 && drain.seconds() < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  point.drained = h.engine->queue_depth() == 0;
  point.stats = h.engine->stats();
  point.brownout_deepest = h.engine->governor().deepest_load_rung();
  point.breaker_trips = h.engine->governor().trips();
  h.engine->stop();

  const serve::LogHistogram merged = point.report.merged_latency();
  point.p50 = merged.percentile(0.50);
  point.p95 = merged.percentile(0.95);
  point.p99 = merged.percentile(0.99);
  point.max_lag_ms = point.report.max_submit_lag_ms;
  point.conserved =
      point.report.conserved() && engine_conserved(point.stats) &&
      point.report.submitted() == point.stats.submitted - pre.submitted;
  return point;
}

struct Gates {
  bool conservation = true;
  bool zero_watchdog = true;
  bool sub_knee_interactive = true;   // evaluated when a rel <= 0.75 point exists
  bool p99_bounded = true;            // evaluated when a rel >= 2 point exists
  bool priority_order = true;         // evaluated when a rel >= 2 point exists
  bool goodput_retained = true;       // evaluated with >= 2 points
  bool clean_drain = true;

  bool passed() const {
    return conservation && zero_watchdog && sub_knee_interactive &&
           p99_bounded && priority_order && goodput_retained && clean_drain;
  }
};

Gates evaluate_gates(const std::vector<SweepPoint>& points) {
  Gates gates;
  const SweepPoint* sub_knee = nullptr;   // deepest sub-knee point
  double best_at_or_below_knee = 0.0;
  for (const SweepPoint& p : points) {
    if (!p.conserved) {
      std::printf("FAIL: conservation violated at rel %.2f (%.0f qps)\n",
                  p.rel, p.qps);
      gates.conservation = false;
    }
    if (p.stats.timeouts != 0) {
      std::printf("FAIL: %lld watchdog termination(s) at rel %.2f — "
                  "shedding must act before the watchdog\n",
                  static_cast<long long>(p.stats.timeouts), p.rel);
      gates.zero_watchdog = false;
    }
    if (p.rel <= 0.75 && (sub_knee == nullptr || p.rel > sub_knee->rel)) {
      sub_knee = &p;
    }
    if (p.rel <= 1.0 + 1e-9) {
      best_at_or_below_knee =
          std::max(best_at_or_below_knee, p.report.goodput_qps());
    }
  }
  if (sub_knee != nullptr) {
    const serve::ClassLoadStats& interactive =
        sub_knee->report.cls(serve::Priority::kInteractive);
    const double rate =
        interactive.submitted > 0
            ? static_cast<double>(interactive.fulfilled()) /
                  static_cast<double>(interactive.submitted)
            : 1.0;
    if (rate < 0.99) {
      std::printf("FAIL: sub-knee interactive fulfillment %.4f < 0.99 "
                  "(rel %.2f)\n",
                  rate, sub_knee->rel);
      gates.sub_knee_interactive = false;
    }
  }
  for (const SweepPoint& p : points) {
    if (p.rel < 2.0 - 1e-9) continue;
    if (sub_knee != nullptr && sub_knee->p99 > 0.0 &&
        p.p99 > 2.0 * sub_knee->p99 + 5.0) {
      std::printf("FAIL: fulfilled p99 %.2f ms at rel %.2f exceeds 2x the "
                  "sub-knee p99 %.2f ms\n",
                  p.p99, p.rel, sub_knee->p99);
      gates.p99_bounded = false;
    }
    if (p.report.goodput_qps(serve::Priority::kInteractive) <=
        p.report.goodput_qps(serve::Priority::kBatch)) {
      std::printf("FAIL: priority inversion at rel %.2f — interactive "
                  "goodput %.1f qps <= batch %.1f qps\n",
                  p.rel, p.report.goodput_qps(serve::Priority::kInteractive),
                  p.report.goodput_qps(serve::Priority::kBatch));
      gates.priority_order = false;
    }
    if (best_at_or_below_knee > 0.0 &&
        p.report.goodput_qps() < 0.8 * best_at_or_below_knee) {
      std::printf("FAIL: goodput collapse at rel %.2f — %.1f qps < 80%% of "
                  "the %.1f qps sub-knee plateau\n",
                  p.rel, p.report.goodput_qps(), best_at_or_below_knee);
      gates.goodput_retained = false;
    }
  }
  if (!points.empty() && !points.back().drained) {
    std::printf("FAIL: queue did not drain after the rel %.2f overload run\n",
                points.back().rel);
    gates.clean_drain = false;
  }
  return gates;
}

void write_json(const std::string& path, const Options& opt,
                bench::Scale scale, double capacity_qps,
                const std::vector<SweepPoint>& points, const Gates& gates) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\n  \"bench\": \"load\",\n  \"scale\": \"%s\",\n"
               "  \"loop\": \"open\",\n  \"workers\": %lld,\n"
               "  \"knee_qps\": %.1f,\n"
               "  \"faults\": {\"stall_rate\": %.4f, \"stall_ms\": %lld, "
               "\"slow_replica_rate\": %.4f, \"slow_replica_factor\": %.2f},\n"
               "  \"points\": [",
               bench::scale_name(scale), static_cast<long long>(opt.workers),
               capacity_qps, opt.stall_rate,
               static_cast<long long>(opt.stall_ms), opt.slow_replica_rate,
               opt.slow_replica_factor);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const serve::LoadReport& r = p.report;
    const serve::ClassLoadStats& ia = r.cls(serve::Priority::kInteractive);
    const serve::ClassLoadStats& ba = r.cls(serve::Priority::kBatch);
    std::fprintf(
        f,
        "%s\n    {\"rel\": %.2f, \"qps\": %.1f, \"submitted\": %lld, "
        "\"accepted\": %lld, \"rejected\": %lld, \"shed_admission\": %lld,\n"
        "     \"fulfilled\": %lld, \"shed\": %lld, \"failed\": %lld, "
        "\"goodput_qps\": %.1f, \"shed_rate\": %.4f,\n"
        "     \"interactive\": {\"submitted\": %lld, \"fulfilled\": %lld, "
        "\"goodput_qps\": %.1f},\n"
        "     \"batch\": {\"submitted\": %lld, \"fulfilled\": %lld, "
        "\"goodput_qps\": %.1f},\n"
        "     \"latency_ms\": {\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f},\n"
        "     \"max_submit_lag_ms\": %.2f, \"watchdog_timeouts\": %lld, "
        "\"brownout_deepest\": %lld, \"breaker_trips\": %lld,\n"
        "     \"conserved\": %s, \"drained\": %s}",
        i == 0 ? "" : ",", p.rel, p.qps,
        static_cast<long long>(r.submitted()),
        static_cast<long long>(ia.accepted + ba.accepted),
        static_cast<long long>(ia.rejected + ba.rejected),
        static_cast<long long>(ia.shed_admission + ba.shed_admission),
        static_cast<long long>(r.fulfilled()),
        static_cast<long long>(r.shed()), static_cast<long long>(r.failed()),
        r.goodput_qps(), r.shed_rate(), static_cast<long long>(ia.submitted),
        static_cast<long long>(ia.fulfilled()),
        r.goodput_qps(serve::Priority::kInteractive),
        static_cast<long long>(ba.submitted),
        static_cast<long long>(ba.fulfilled()),
        r.goodput_qps(serve::Priority::kBatch), p.p50, p.p95, p.p99,
        p.max_lag_ms, static_cast<long long>(p.stats.timeouts),
        static_cast<long long>(p.brownout_deepest),
        static_cast<long long>(p.breaker_trips),
        p.conserved ? "true" : "false", p.drained ? "true" : "false");
  }
  std::fprintf(
      f,
      "\n  ],\n  \"gates\": {\"conservation\": %s, \"zero_watchdog\": %s, "
      "\"sub_knee_interactive\": %s, \"p99_bounded\": %s, "
      "\"priority_order\": %s, \"goodput_retained\": %s, "
      "\"clean_drain\": %s},\n  \"passed\": %s\n}\n",
      gates.conservation ? "true" : "false",
      gates.zero_watchdog ? "true" : "false",
      gates.sub_knee_interactive ? "true" : "false",
      gates.p99_bounded ? "true" : "false",
      gates.priority_order ? "true" : "false",
      gates.goodput_retained ? "true" : "false",
      gates.clean_drain ? "true" : "false", gates.passed() ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Options opt = parse_options(argc, argv);
    const bench::Scale scale = bench::read_scale();
    if (opt.seconds <= 0.0) {
      opt.seconds = scale == bench::Scale::kQuick
                        ? 1.5
                        : (scale == bench::Scale::kFull ? 8.0 : 4.0);
    }
    std::printf("== Open-loop load bench (scale: %s) ==\n",
                bench::scale_name(scale));

    const core::Architecture arch = core::Architecture::kVgg11;
    const bench::BenchSetup setup = bench::setup_for(scale);
    const bench::BenchData data = bench::make_data(10, setup);
    auto model = bench::trained_dnn(arch, 10, setup, data);
    const core::ActivationProfile profile =
        core::collect_activations(*model, data.train);
    core::ConversionConfig cc;
    cc.time_steps = 3;
    const serve::NetworkFactory factory = [&model, &profile, cc] {
      return core::convert(*model, profile, cc, nullptr);
    };

    const Tensor& test_images = data.test.images;
    const std::int64_t samples = std::min<std::int64_t>(64, data.test.size());
    const std::int64_t sample_numel = test_images.numel() / data.test.size();
    const Shape input_shape(test_images.shape().begin() + 1,
                            test_images.shape().end());
    std::vector<Tensor> images;
    images.reserve(static_cast<std::size_t>(samples));
    for (std::int64_t s = 0; s < samples; ++s) {
      Tensor image(input_shape);
      std::memcpy(image.data(), test_images.data() + s * sample_numel,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
      images.push_back(std::move(image));
    }

    double knee_qps = opt.base_qps;
    if (knee_qps <= 0.0) {
      const double calib_seconds = scale == bench::Scale::kQuick ? 1.0 : 2.0;
      knee_qps = calibrate_capacity_qps(opt, input_shape, factory, images,
                                        calib_seconds);
      std::printf("[load] calibrated service capacity: %.1f qps "
                  "(%lld workers)\n",
                  knee_qps, static_cast<long long>(opt.workers));
    } else {
      std::printf("[load] using --base-qps %.1f as the knee\n", knee_qps);
    }
    if (knee_qps <= 0.0) throw std::runtime_error("capacity calibration failed");
    // The per-batch service time the slow-replica delay scales against.
    const double per_batch_ms = 8.0 * 1000.0 / knee_qps;

    std::vector<SweepPoint> points;
    Table table({"rel", "offered qps", "goodput", "interactive", "batch",
                 "shed %", "p50 ms", "p99 ms", "timeouts", "brownout"});
    for (const double rel : opt.rel) {
      const double qps = rel * knee_qps;
      std::printf("[load] rel %.2f: %.1f qps for %.1fs...\n", rel, qps,
                  opt.seconds);
      std::fflush(stdout);
      SweepPoint p = run_point(opt, input_shape, factory, images, rel, qps,
                               opt.seconds, per_batch_ms);
      table.add_row({Table::fmt(p.rel), Table::fmt(p.qps, 1),
                     Table::fmt(p.report.goodput_qps(), 1),
                     Table::fmt(p.report.goodput_qps(serve::Priority::kInteractive), 1),
                     Table::fmt(p.report.goodput_qps(serve::Priority::kBatch), 1),
                     Table::fmt(100.0 * p.report.shed_rate(), 2),
                     Table::fmt(p.p50, 2), Table::fmt(p.p99, 2),
                     std::to_string(p.stats.timeouts),
                     std::to_string(p.brownout_deepest)});
      points.push_back(std::move(p));
    }
    table.print("Open-loop QPS sweep");
    bench::write_csv(table, "load_sweep.csv");

    const Gates gates = evaluate_gates(points);
    if (!opt.json_path.empty()) {
      write_json(opt.json_path, opt, scale, knee_qps, points, gates);
    }
    if (gates.passed()) {
      std::printf("load PASS: knee %.1f qps; overload controls held across "
                  "%zu sweep points\n",
                  knee_qps, points.size());
      return 0;
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_load: %s\n", e.what());
    return 1;
  }
}
