// Open-loop load bench: locate the serving knee, then prove the overload
// controls hold past it.
//
// This is the repo's one serving bench. It drives the engine with
// serve::LoadGen: a Poisson arrival schedule fixed before the run, every
// request submitted on time regardless of engine state, latency measured
// from the intended arrival. (A closed-loop driver that waits for responses
// before submitting more throttles itself under overload and cannot see it
// — coordinated omission.)
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
//          ledger balanced after the offered load stops;
//        - live endpoint (--http only): at every point a mid-run /healthz
//          answers 200 or 503, and a quiescent self-scrape of /metrics
//          equals the engine's ServeStats.
//
// Fault mode routes faults through the engine's before-forward chaos hook;
// the same gates must hold, which is the "retries, watchdog and shedding
// keep goodput monotone under partial failure" claim:
//   --faults R        id-keyed transient fault: a fixed hash of the request
//                     id picks R of all requests, whose batch throws on its
//                     first forward attempt (the retry runs clean);
//   --stall-rate/--stall-ms, --slow-replicas/--slow-factor
//                     robust::FaultInjector worker stalls and slow replicas.
// `--rel 0.5 --faults 0.05 --http PORT` is the chaos soak: 5% of requests
// need a retry, the endpoint serves live, and the sub-knee gate requires
// >= 99% of interactive requests fulfilled.
//
// Overhead mode (--overhead) replaces calibration and sweep with the
// observability cost gate: one engine with a live endpoint runs paced waves
// at a 50% duty cycle in pairs, a plain off-wave and an on-wave that holds
// one /metrics scrape (about 20 Hz), in alternating order, for --seconds
// per mode. p99_off is the off-wave p99; p99_on_paired scales it by the
// median over pairs of the on-wave p99 / off-wave p99 ratio. The run fails
// unless p99_on_paired <= 1.05 * p99_off + 0.5 ms.
//
// Options: --seconds N (per sweep point, or per overhead mode), --workers N,
//          --rel "0.5,1,2", --base-qps Q (skip calibration; Q becomes the
//          knee), --faults R, --stall-rate R --stall-ms M,
//          --slow-replicas R --slow-factor F,
//          --http PORT (serve /metrics,/healthz,/flight from each point's
//          engine; 0 = ephemeral), --overhead, --json PATH.
//
// The JSON snapshot (tools/bench_to_json.sh load) is the checked-in
// bench/BENCH_load.json baseline; tools/compare_bench.py --load re-checks
// the gate booleans.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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
#include "tests/testutil/http_get.h"

using namespace ullsnn;

namespace {

struct Options {
  double seconds = -1.0;  // per sweep point; <0 = scale default
  std::int64_t workers = 2;
  std::vector<double> rel = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
  double base_qps = 0.0;  // >0 skips calibration
  double fault_rate = 0.0;
  double stall_rate = 0.0;
  std::int64_t stall_ms = 20;
  double slow_replica_rate = 0.0;
  double slow_replica_factor = 3.0;
  int http_port = -1;  // -1 = endpoint off; 0 = ephemeral; >0 = fixed port
  bool overhead = false;
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
    } else if (arg == "--faults") {
      opt.fault_rate = std::stod(next());
    } else if (arg == "--stall-rate") {
      opt.stall_rate = std::stod(next());
    } else if (arg == "--stall-ms") {
      opt.stall_ms = std::stoll(next());
    } else if (arg == "--slow-replicas") {
      opt.slow_replica_rate = std::stod(next());
    } else if (arg == "--slow-factor") {
      opt.slow_replica_factor = std::stod(next());
    } else if (arg == "--http") {
      opt.http_port = std::stoi(next());
    } else if (arg == "--overhead") {
      opt.overhead = true;
    } else if (arg == "--json") {
      opt.json_path = next();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (opt.workers <= 0) throw std::invalid_argument("--workers must be positive");
  for (const auto& [name, rate] : {std::pair{"--faults", opt.fault_rate},
                                   std::pair{"--stall-rate", opt.stall_rate},
                                   std::pair{"--slow-replicas",
                                             opt.slow_replica_rate}}) {
    if (rate < 0.0 || rate > 1.0) {
      throw std::invalid_argument(std::string(name) + " must be in [0, 1]");
    }
  }
  if (opt.http_port < -1 || opt.http_port > 65535) {
    throw std::invalid_argument("--http must be a port in [0, 65535]");
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

/// Deterministic per-request fault schedule: whether request `id` suffers a
/// transient fault on its first forward attempt. Keyed by a hash of the id,
/// not submission timing, so the faulted set is identical across runs and
/// thread interleavings.
bool fault_scheduled(std::int64_t id, double rate) {
  const auto h = static_cast<std::uint64_t>(id) * 1315423911ULL;
  return static_cast<double>(h % 10000ULL) < rate * 10000.0;
}

/// Value of the single-series line `name value` in Prometheus 0.0.4 text;
/// NaN when the series is absent.
double scrape_value(const std::string& body, const std::string& name) {
  const std::string prefix = name + " ";
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return std::nan("");
}

/// At quiescence (every accepted future resolved, engine still running) the
/// exported serve.* series must agree EXACTLY with the engine's own ledger —
/// fulfillment publishes metrics before any waiter wakes, so there is no
/// window in which a drained client can out-race its own counters.
bool check_conservation(const std::string& metrics, const serve::ServeStats& s) {
  struct Expect {
    const char* series;
    std::int64_t value;
  };
  const Expect expected[] = {
      {"serve_submitted", s.submitted},
      {"serve_accepted", s.accepted},
      {"serve_rejected", s.rejected},
      {"serve_completed_ok", s.completed_ok},
      {"serve_completed_degraded", s.completed_degraded},
      {"serve_timeouts", s.timeouts},
      {"serve_errors", s.errors},
      // Every accepted request is fulfilled exactly once, and every
      // fulfillment observes the total-latency histogram.
      {"serve_latency_total_ms_count", s.accepted},
  };
  bool ok = true;
  for (const Expect& e : expected) {
    const double got = scrape_value(metrics, e.series);
    if (std::isnan(got) || static_cast<std::int64_t>(got) != e.value) {
      std::printf("FAIL: /metrics conservation: %s = %.0f, ledger says %lld\n",
                  e.series, got, static_cast<long long>(e.value));
      ok = false;
    }
  }
  return ok;
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

/// What every engine of one run shares: options, the request images and the
/// replica factory, plus the per-batch service time the slow-replica delay
/// scales against (known once the knee is).
struct Rig {
  Options opt;
  Shape input_shape;
  serve::NetworkFactory factory;
  std::vector<Tensor> images;
  double per_batch_ms = 0.0;
};

struct EngineHarness {
  std::unique_ptr<serve::ServeEngine> engine;
  std::shared_ptr<robust::FaultInjector> injector;
  std::shared_ptr<SlowReplicaRouter> router;
  std::shared_ptr<std::atomic<std::int64_t>> faults_fired =
      std::make_shared<std::atomic<std::int64_t>>(0);
};

/// One engine with the bench's shared configuration. `with_faults` installs
/// the fault hook (calibration runs clean); `http_port` >= 0 serves the live
/// endpoint; its scrape describes this engine alone.
EngineHarness make_engine(const Rig& rig, bool with_faults, int http_port) {
  const Options& opt = rig.opt;
  EngineHarness h;
  serve::ServeConfig config;
  config.workers = opt.workers;
  config.queue_capacity = 64;        // interactive lane
  config.batch_queue_capacity = 64;  // batch lane
  config.batcher.max_batch = 8;
  config.default_deadline = std::chrono::milliseconds(250);
  config.request_timeout = std::chrono::milliseconds(20000);
  config.max_attempts = 2;
  config.retry_backoff = std::chrono::microseconds(50);
  config.input_shape = rig.input_shape;
  if (http_port >= 0) {
    config.obs.endpoint = true;
    config.obs.port = http_port;
  }
  const bool stalls = opt.stall_rate > 0.0 || opt.slow_replica_rate > 0.0;
  if (with_faults && (stalls || opt.fault_rate > 0.0)) {
    if (stalls) {
      robust::FaultSpec spec;
      spec.stall_rate = opt.stall_rate;
      spec.stall_ms = std::chrono::milliseconds(opt.stall_ms);
      spec.slow_replica_rate = opt.slow_replica_rate;
      spec.slow_replica_factor = opt.slow_replica_factor;
      h.injector = std::make_shared<robust::FaultInjector>(spec);
      h.router = std::make_shared<SlowReplicaRouter>();
      h.router->injector = h.injector.get();
      h.router->per_batch_ms = rig.per_batch_ms;
    }
    config.before_forward_hook =
        [injector = h.injector, router = h.router, fired = h.faults_fired,
         rate = opt.fault_rate](const std::vector<std::int64_t>& ids,
                                std::int64_t attempt, snn::SnnNetwork&) {
          if (injector) {
            injector->maybe_stall();
            router->before_forward();
          }
          if (attempt > 0) return;  // transient: retries run clean
          for (const std::int64_t id : ids) {
            if (fault_scheduled(id, rate)) {
              fired->fetch_add(1);
              throw std::runtime_error("bench_load: injected transient fault");
            }
          }
        };
  }
  h.engine = std::make_unique<serve::ServeEngine>(config, rig.factory);
  return h;
}

/// Closed-loop saturation run: keep a deep backlog of no-deadline requests
/// in flight and measure completion throughput. That plateau is the service
/// capacity — the knee of the open-loop latency curve.
double calibrate_capacity_qps(const Rig& rig, double seconds) {
  EngineHarness h = make_engine(rig, /*with_faults=*/false, /*http_port=*/-1);
  h.engine->start();
  constexpr std::int64_t kWave = 32;
  std::size_t image_index = 0;
  std::int64_t completed = 0;
  const auto submit_wave = [&] {
    std::vector<serve::ResponseFuture> futures;
    futures.reserve(kWave);
    for (std::int64_t k = 0; k < kWave; ++k) {
      Tensor image = rig.images[image_index];
      image_index = (image_index + 1) % rig.images.size();
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
  std::int64_t faults_fired = 0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double max_lag_ms = 0.0;
  bool conserved = false;  // generator ledger AND engine ledger
  bool drained = false;    // queue empty after the offered load stopped
  // Live endpoint (http_port >= 0 only).
  int http_port = -1;
  int healthz_status = 0;         // mid-run /healthz HTTP status
  bool metrics_conserved = true;  // quiescent /metrics == ServeStats
};

/// One fresh engine driven open-loop at `qps` for `seconds`. With
/// `http_port` >= 0 the point also probes /healthz at mid-run and checks a
/// quiescent /metrics scrape against ServeStats.
SweepPoint run_point(const Rig& rig, double rel, double qps, double seconds,
                     int http_port) {
  const Options& opt = rig.opt;
  SweepPoint point;
  point.rel = rel;
  point.qps = qps;

  EngineHarness h = make_engine(rig, /*with_faults=*/true, http_port);
  h.engine->start();
  if (http_port >= 0) {
    point.http_port = h.engine->http_port();
    std::printf("[load] live endpoint on 127.0.0.1:%d (/metrics /healthz "
                "/flight)\n",
                point.http_port);
    std::fflush(stdout);
  }

  // Warm every worker replica before the measured run: first-batch replica
  // construction would otherwise back the queue up and escalate brownout
  // even far below the knee.
  {
    std::vector<serve::ResponseFuture> warm;
    for (std::int64_t k = 0; k < 2 * opt.workers * 8; ++k) {
      Tensor image = rig.images[static_cast<std::size_t>(k) % rig.images.size()];
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

  // One /healthz probe at mid-run: 200 healthy or 503 open are both
  // answers; silence is the failure. run() below lasts at least `seconds`.
  std::thread probe;
  if (http_port >= 0) {
    probe = std::thread([&point, seconds] {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds / 2.0));
      const testutil::HttpResult health =
          testutil::http_request(point.http_port, "/healthz");
      point.healthz_status = health.ok ? health.status : 0;
    });
  }

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
  lg.images = rig.images;
  serve::LoadGen gen(lg);
  point.report = gen.run(*h.engine);
  if (probe.joinable()) probe.join();

  // run() returns only after every accepted future resolved, so the engine
  // should be idle: an empty queue here is the clean-drain evidence.
  Timer drain;
  while (h.engine->queue_depth() > 0 && drain.seconds() < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  point.drained = h.engine->queue_depth() == 0;
  point.stats = h.engine->stats();
  if (http_port >= 0) {
    // Quiescent self-scrape: every accepted future has resolved and nothing
    // new is submitted, so /metrics must agree exactly with the ledger.
    const testutil::HttpResult scrape =
        testutil::http_request(point.http_port, "/metrics");
    if (!scrape.ok || scrape.status != 200) {
      std::printf("FAIL: /metrics scrape failed (transport %s, status %d)\n",
                  scrape.ok ? "ok" : "error", scrape.status);
      point.metrics_conserved = false;
    } else {
      point.metrics_conserved = check_conservation(scrape.body, point.stats);
    }
  }
  point.brownout_deepest = h.engine->governor().deepest_load_rung();
  point.breaker_trips = h.engine->governor().trips();
  point.faults_fired = h.faults_fired->load();
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

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct OverheadResult {
  double p50_off = 0.0, p50_on = 0.0;
  double p99_off = 0.0, p99_on = 0.0;  // pooled per mode, both measured
  double p99_ratio = 0.0;      // median over pairs of on/off wave p99
  double p99_on_paired = 0.0;  // p99_off * p99_ratio: what the gate bounds
  std::int64_t pairs = 0;
  std::int64_t scrapes = 0;
  double scrape_hz = 0.0;
  double seconds = 0.0;
  bool passed = false;
};

/// The observability cost gate, paired inside one fault-free engine with a
/// live endpoint. The driver runs waves in pairs, one plain and one that
/// holds exactly one /metrics scrape, in alternating order (off/on, on/off,
/// ...). A wave submits one micro-batch, drains it, then sleeps as long as
/// it took (50% duty cycle), which leaves idle headroom on every machine,
/// single-core CI runners included. An on-wave starts its scrape on a
/// thread just before its first submit and joins it after the drain, so
/// the scrape overlaps the wave's requests and every on-wave prices one
/// scrape; at that pace the scrape rate comes out near 20 Hz, far beyond
/// any real Prometheus interval (>= 1 s).
///
/// Scoring is paired: each pair gives the ratio of its on-wave's p99 to its
/// off-wave's p99 (a wave's p99 is its slowest request), and the median of
/// those ratios scales the off-wave p99 into p99_on_paired, which the gate
/// bounds. The two waves of a pair run milliseconds apart, so machine drift
/// cancels within the pair, and the median ignores the rare stall that hits
/// one wave. Pooled per-mode p99s do neither: a handful of stalled waves
/// sets them, and they moved by more than the 5% the gate bounds between
/// identical runs; they are reported, not gated. The stage timing record
/// and serve.* instruments are on in both modes (engine contract), and the
/// endpoint thread is up in both; what this prices is the scrape path.
/// Both modes run `seconds` of waves; the first two pairs are warmup.
OverheadResult run_overhead(const Rig& rig, double seconds) {
  std::printf("\n== Observability overhead: paired waves, one /metrics scrape per "
              "on-wave, %.1fs per mode ==\n",
              seconds);
  EngineHarness h =
      make_engine(rig, /*with_faults=*/false, std::max(rig.opt.http_port, 0));
  serve::ServeEngine& engine = *h.engine;
  engine.start();
  const int port = engine.http_port();

  OverheadResult result;
  result.seconds = seconds;
  std::vector<double> latencies[2];  // [0] off-waves, [1] on-waves
  std::vector<double> pair_ratios;
  std::size_t cursor = 0;
  constexpr std::int64_t kWave = 8;  // one micro-batch per wave
  constexpr std::int64_t kWarmupPairs = 2;
  Timer wall;
  for (std::int64_t pair = 0; wall.seconds() < 2.0 * seconds; ++pair) {
    double wave_p99[2] = {0.0, 0.0};
    for (const std::int64_t slot : {0, 1}) {
      const bool on = slot != pair % 2;  // pair 0 runs off/on, pair 1 on/off
      Timer wave_timer;
      bool scraped = false;
      std::thread scrape;
      if (on) {
        scrape = std::thread(
            [port, &scraped] { scraped = testutil::http_request(port, "/metrics").ok; });
      }
      std::vector<serve::ResponseFuture> futures;
      futures.reserve(kWave);
      for (std::int64_t k = 0; k < kWave; ++k) {
        Tensor image = rig.images[cursor++ % rig.images.size()];
        serve::SubmitResult submitted = engine.submit(std::move(image));
        if (submitted.accepted) futures.push_back(std::move(submitted.future));
      }
      std::vector<double> wave;
      for (const serve::ResponseFuture& future : futures) {
        const serve::InferResponse response = future.get();
        if (serve::is_success(response.status)) wave.push_back(response.total_ms);
      }
      if (scrape.joinable()) scrape.join();
      if (scraped) ++result.scrapes;
      std::sort(wave.begin(), wave.end());
      wave_p99[on ? 1 : 0] = percentile(wave, 0.99);
      std::vector<double>& pooled = latencies[on ? 1 : 0];
      if (pair >= kWarmupPairs) pooled.insert(pooled.end(), wave.begin(), wave.end());
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(wave_timer.seconds(), 1.0)));
    }
    if (pair >= kWarmupPairs && wave_p99[0] > 0.0 && wave_p99[1] > 0.0) {
      pair_ratios.push_back(wave_p99[1] / wave_p99[0]);
      ++result.pairs;
    }
  }
  result.scrape_hz = static_cast<double>(result.scrapes) / wall.seconds();
  engine.stop();
  for (std::vector<double>& l : latencies) std::sort(l.begin(), l.end());
  std::sort(pair_ratios.begin(), pair_ratios.end());
  result.p50_off = percentile(latencies[0], 0.50);
  result.p50_on = percentile(latencies[1], 0.50);
  result.p99_off = percentile(latencies[0], 0.99);
  result.p99_on = percentile(latencies[1], 0.99);
  result.p99_ratio = percentile(pair_ratios, 0.50);
  result.p99_on_paired = result.p99_off * result.p99_ratio;
  // Gate: < 5% at the tail. The 0.5 ms absolute floor absorbs scheduler
  // noise when per-request latency is small enough that 5% is sub-jitter.
  result.passed =
      result.pairs > 0 && result.p99_on_paired <= result.p99_off * 1.05 + 0.5;

  Table table({"Metric", "Off-waves", "On-waves (1 scrape each)"});
  table.add_row({"latency p50 ms", Table::fmt(result.p50_off),
                 Table::fmt(result.p50_on)});
  table.add_row({"latency p99 ms (pooled)", Table::fmt(result.p99_off),
                 Table::fmt(result.p99_on)});
  table.add_row({"latency p99 ms (paired, gated)", Table::fmt(result.p99_off),
                 Table::fmt(result.p99_on_paired)});
  table.add_row({"wave pairs", std::to_string(result.pairs),
                 std::to_string(result.pairs)});
  table.add_row({"/metrics scrapes", "0", std::to_string(result.scrapes)});
  table.print("Observability overhead");
  bench::write_csv(table, "load_overhead.csv");
  std::printf("%s p99 %.3f -> %.3f ms (x%.3f, median over %lld wave pairs; "
              "%lld scrapes, %.1f Hz)%s\n",
              result.passed ? "overhead PASS:" : "FAIL: observability overhead",
              result.p99_off, result.p99_on_paired, result.p99_ratio,
              static_cast<long long>(result.pairs),
              static_cast<long long>(result.scrapes), result.scrape_hz,
              result.passed ? "" : " exceeds the 5% gate");
  return result;
}

struct Gates {
  bool conservation = true;
  bool zero_watchdog = true;
  bool sub_knee_interactive = true;   // evaluated when a rel <= 0.75 point exists
  bool p99_bounded = true;            // evaluated when a rel >= 2 point exists
  bool priority_order = true;         // evaluated when a rel >= 2 point exists
  bool goodput_retained = true;       // evaluated with >= 2 points
  bool clean_drain = true;
  bool live_endpoint = true;          // evaluated at points serving the endpoint
  bool overhead = true;               // evaluated under --overhead

  bool passed() const {
    return conservation && zero_watchdog && sub_knee_interactive &&
           p99_bounded && priority_order && goodput_retained && clean_drain &&
           live_endpoint && overhead;
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
    if (p.http_port >= 0) {
      if (p.healthz_status != 200 && p.healthz_status != 503) {
        std::printf("FAIL: mid-run /healthz probe got status %d at rel %.2f "
                    "(expected 200 or 503)\n",
                    p.healthz_status, p.rel);
        gates.live_endpoint = false;
      }
      if (!p.metrics_conserved) {
        std::printf("FAIL: quiescent /metrics scrape disagrees with the "
                    "engine ledger at rel %.2f\n",
                    p.rel);
        gates.live_endpoint = false;
      }
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
                const std::vector<SweepPoint>& points, const Gates& gates,
                const OverheadResult* overhead) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f,
               "{\n  \"bench\": \"load\",\n  \"scale\": \"%s\",\n"
               "  \"loop\": \"open\",\n  \"workers\": %lld,\n"
               "  \"knee_qps\": %.1f,\n"
               "  \"faults\": {\"transient_rate\": %.4f, \"stall_rate\": %.4f, "
               "\"stall_ms\": %lld, \"slow_replica_rate\": %.4f, "
               "\"slow_replica_factor\": %.2f},\n"
               "  \"points\": [",
               bench::scale_name(scale), static_cast<long long>(opt.workers),
               capacity_qps, opt.fault_rate, opt.stall_rate,
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
        "     \"faults_fired\": %lld, \"retries\": %lld, \"errors\": %lld,\n"
        "     \"http_port\": %d, \"healthz_status\": %d, "
        "\"metrics_conserved\": %s,\n"
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
        static_cast<long long>(p.faults_fired),
        static_cast<long long>(p.stats.retries),
        static_cast<long long>(p.stats.errors), p.http_port, p.healthz_status,
        p.http_port < 0 ? "null" : (p.metrics_conserved ? "true" : "false"),
        p.conserved ? "true" : "false", p.drained ? "true" : "false");
  }
  std::fprintf(f, "\n  ],\n");
  if (overhead != nullptr) {
    std::fprintf(
        f,
        "  \"overhead\": {\"seconds_per_mode\": %.3f, \"wave_pairs\": %lld, "
        "\"scrapes\": %lld,\n"
        "    \"p50_ms\": {\"off\": %.3f, \"on\": %.3f},\n"
        "    \"p99_ms\": {\"off\": %.3f, \"on\": %.3f, \"on_paired\": %.3f},\n"
        "    \"p99_ratio\": %.4f, \"passed\": %s},\n",
        overhead->seconds, static_cast<long long>(overhead->pairs),
        static_cast<long long>(overhead->scrapes),
        overhead->p50_off, overhead->p50_on, overhead->p99_off,
        overhead->p99_on, overhead->p99_on_paired, overhead->p99_ratio,
        overhead->passed ? "true" : "false");
  }
  std::fprintf(
      f,
      "  \"gates\": {\"conservation\": %s, \"zero_watchdog\": %s, "
      "\"sub_knee_interactive\": %s, \"p99_bounded\": %s, "
      "\"priority_order\": %s, \"goodput_retained\": %s, "
      "\"clean_drain\": %s, \"live_endpoint\": %s, \"overhead\": %s},\n"
      "  \"passed\": %s\n}\n",
      gates.conservation ? "true" : "false",
      gates.zero_watchdog ? "true" : "false",
      gates.sub_knee_interactive ? "true" : "false",
      gates.p99_bounded ? "true" : "false",
      gates.priority_order ? "true" : "false",
      gates.goodput_retained ? "true" : "false",
      gates.clean_drain ? "true" : "false",
      gates.live_endpoint ? "true" : "false",
      gates.overhead ? "true" : "false", gates.passed() ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Rig rig;
    rig.opt = parse_options(argc, argv);
    Options& opt = rig.opt;
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
    rig.factory = [&model, &profile, cc] {
      return core::convert(*model, profile, cc, nullptr);
    };

    const Tensor& test_images = data.test.images;
    const std::int64_t samples = std::min<std::int64_t>(64, data.test.size());
    const std::int64_t sample_numel = test_images.numel() / data.test.size();
    rig.input_shape = Shape(test_images.shape().begin() + 1,
                            test_images.shape().end());
    rig.images.reserve(static_cast<std::size_t>(samples));
    for (std::int64_t s = 0; s < samples; ++s) {
      Tensor image(rig.input_shape);
      std::memcpy(image.data(), test_images.data() + s * sample_numel,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
      rig.images.push_back(std::move(image));
    }

    std::vector<SweepPoint> points;
    if (opt.overhead) {
      const OverheadResult overhead = run_overhead(rig, opt.seconds);
      Gates gates;
      gates.overhead = overhead.passed;
      if (!opt.json_path.empty()) {
        write_json(opt.json_path, opt, scale, 0.0, points, gates, &overhead);
      }
      return gates.passed() ? 0 : 1;
    }

    double knee_qps = opt.base_qps;
    if (knee_qps <= 0.0) {
      const double calib_seconds = scale == bench::Scale::kQuick ? 1.0 : 2.0;
      knee_qps = calibrate_capacity_qps(rig, calib_seconds);
      std::printf("[load] calibrated service capacity: %.1f qps "
                  "(%lld workers)\n",
                  knee_qps, static_cast<long long>(opt.workers));
    } else {
      std::printf("[load] using --base-qps %.1f as the knee\n", knee_qps);
    }
    if (knee_qps <= 0.0) throw std::runtime_error("capacity calibration failed");
    rig.per_batch_ms = 8.0 * 1000.0 / knee_qps;

    Table table({"rel", "offered qps", "goodput", "interactive", "batch",
                 "shed %", "p50 ms", "p99 ms", "timeouts", "retries",
                 "brownout"});
    for (const double rel : opt.rel) {
      const double qps = rel * knee_qps;
      std::printf("[load] rel %.2f: %.1f qps for %.1fs...\n", rel, qps,
                  opt.seconds);
      std::fflush(stdout);
      SweepPoint p = run_point(rig, rel, qps, opt.seconds, opt.http_port);
      table.add_row(
          {Table::fmt(p.rel), Table::fmt(p.qps, 1),
           Table::fmt(p.report.goodput_qps(), 1),
           Table::fmt(p.report.goodput_qps(serve::Priority::kInteractive), 1),
           Table::fmt(p.report.goodput_qps(serve::Priority::kBatch), 1),
           Table::fmt(100.0 * p.report.shed_rate(), 2), Table::fmt(p.p50, 2),
           Table::fmt(p.p99, 2), std::to_string(p.stats.timeouts),
           std::to_string(p.stats.retries), std::to_string(p.brownout_deepest)});
      points.push_back(std::move(p));
    }
    table.print("Open-loop QPS sweep");
    bench::write_csv(table, "load_sweep.csv");

    const Gates gates = evaluate_gates(points);
    if (!opt.json_path.empty()) {
      write_json(opt.json_path, opt, scale, knee_qps, points, gates, nullptr);
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
