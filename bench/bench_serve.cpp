// Serving chaos/soak bench: the resilient inference engine under load and
// injected faults, plus the accuracy-vs-T curve behind the degradation
// ladder.
//
// Modes (combinable; with no flags both run at a short default):
//
//   --soak       drive the ServeEngine with the synthetic test set for
//                --seconds wall-clock, injecting a transient fault into
//                --faults of all requests (deterministic id-keyed schedule).
//                Reports throughput, latency percentiles, retry/breaker
//                counters, and FAILS (exit 1) if fewer than 99% of accepted
//                in-deadline requests complete non-error or if the
//                admission ledger does not balance.
//                NOTE: this soak is CLOSED-LOOP — each wave waits for its
//                responses before submitting the next, so under overload
//                the driver throttles itself and the latencies describe a
//                gentler workload than requested (coordinated omission).
//                It remains the fault/conservation/accuracy gate; for
//                latency and goodput under offered load use bench_load,
//                whose open-loop generator does not self-throttle
//                (docs/serving.md, "Overload & shedding").
//   --accuracy   measure the ladder's accuracy cost: one SNN converted at
//                T=3 evaluated at T=3/2/1 (what the governor actually does),
//                next to a fresh conversion at each T (the fair baseline).
//   --overhead   the observability cost gate: p99 under identical clean
//                load with the live endpoint off vs on (plus a 20 Hz
//                background /metrics scraper on the "on" leg). FAILS
//                (exit 1) if the endpoint costs more than 5% at the tail.
//
// Options: --seconds N, --faults R, --workers N, --json PATH,
//          --http PORT (soak only: serve /metrics,/healthz,/flight live;
//          0 = ephemeral. Adds a quiescent self-scrape that FAILS the soak
//          if /metrics disagrees with the engine's own ledger).
//
// The JSON snapshot (tools/bench_to_json.sh serve) is the checked-in
// bench/BENCH_serve.json serving baseline.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/serve/engine.h"
#include "src/util/timer.h"

using namespace ullsnn;

namespace {

struct Options {
  bool soak = false;
  bool accuracy = false;
  bool overhead = false;
  double seconds = 5.0;
  double fault_rate = 0.05;
  std::int64_t workers = 2;
  int http_port = -1;  // -1 = endpoint off; 0 = ephemeral; >0 = fixed port
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
    if (arg == "--soak") {
      opt.soak = true;
    } else if (arg == "--accuracy") {
      opt.accuracy = true;
    } else if (arg == "--overhead") {
      opt.overhead = true;
    } else if (arg == "--http") {
      opt.http_port = std::stoi(next());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(next());
    } else if (arg == "--faults") {
      opt.fault_rate = std::stod(next());
    } else if (arg == "--workers") {
      opt.workers = std::stoll(next());
    } else if (arg == "--json") {
      opt.json_path = next();
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (!opt.soak && !opt.accuracy && !opt.overhead) {
    opt.soak = true;
    opt.accuracy = true;
  }
  if (opt.fault_rate < 0.0 || opt.fault_rate > 1.0) {
    throw std::invalid_argument("--faults must be in [0, 1]");
  }
  if (opt.http_port < -1 || opt.http_port > 65535) {
    throw std::invalid_argument("--http must be a port in [0, 65535]");
  }
  return opt;
}

// ---- minimal HTTP scrape client (mirrors tests/testutil/http_get.h) ----

struct ScrapeResult {
  bool ok = false;  // transport-level success (connect + full read)
  int status = 0;
  std::string body;
};

ScrapeResult http_get(int port, const std::string& target) {
  ScrapeResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return result;
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return result;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return result;
  result.body = raw.substr(header_end + 4);
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp > header_end) return result;
  result.status = std::atoi(raw.c_str() + sp + 1);
  result.ok = true;
  return result;
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
  return std::numeric_limits<double>::quiet_NaN();
}

/// At quiescence (every accepted future resolved, engine still running) the
/// exported serve.* series must agree EXACTLY with the engine's own ledger —
/// fulfillment publishes metrics before any waiter wakes, so there is no
/// window in which a drained client can out-race its own counters.
bool check_conservation(const std::string& metrics,
                        const serve::ServeStats& s) {
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
    if (std::isnan(got) ||
        static_cast<std::int64_t>(got) != e.value) {
      std::printf("FAIL: /metrics conservation: %s = %.0f, ledger says %lld\n",
                  e.series, got, static_cast<long long>(e.value));
      ok = false;
    }
  }
  return ok;
}

/// Deterministic per-request fault schedule: whether request `id` suffers a
/// transient fault on its first forward attempt. Keyed by a hash of the id,
/// not submission timing, so the faulted set is identical across runs and
/// thread interleavings.
bool fault_scheduled(std::int64_t id, double rate) {
  const auto h = static_cast<std::uint64_t>(id) * 1315423911ULL;
  return static_cast<double>(h % 10000ULL) < rate * 10000.0;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct SoakResult {
  serve::ServeStats stats;
  std::int64_t queue_peak = 0;
  std::int64_t trips = 0;
  std::int64_t recoveries = 0;
  std::int64_t correct = 0;
  std::int64_t successes = 0;
  std::int64_t faults_fired = 0;
  double elapsed_s = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double completion_rate = 0.0;
  // Live-endpoint probes (--http only).
  int http_port = 0;
  int healthz_status = 0;          // mid-soak /healthz HTTP status
  bool conservation_checked = false;
  bool conservation_ok = false;    // quiescent /metrics == engine ledger
  bool passed = false;
};

SoakResult run_soak(const Options& opt, const bench::BenchData& data,
                    const serve::NetworkFactory& factory) {
  std::printf("\n== Soak: %.0fs, fault rate %.1f%%, %lld worker(s) ==\n",
              opt.seconds, 100.0 * opt.fault_rate,
              static_cast<long long>(opt.workers));
  serve::ServeConfig config;
  config.workers = opt.workers;
  config.queue_capacity = 128;
  config.batcher.max_batch = 8;
  config.default_deadline = std::chrono::milliseconds(5000);
  config.request_timeout = std::chrono::milliseconds(20000);
  config.max_attempts = 3;
  config.retry_backoff = std::chrono::microseconds(50);
  const Tensor& images = data.test.images;
  const std::int64_t samples = data.test.size();
  const std::int64_t sample_numel = images.numel() / samples;
  config.input_shape = Shape(images.shape().begin() + 1, images.shape().end());

  std::atomic<std::int64_t> faults_fired{0};
  const double rate = opt.fault_rate;
  config.before_forward_hook = [rate, &faults_fired](
                                   const std::vector<std::int64_t>& ids,
                                   std::int64_t attempt, snn::SnnNetwork&) {
    if (attempt > 0) return;  // transient: retries run clean
    for (const std::int64_t id : ids) {
      if (fault_scheduled(id, rate)) {
        faults_fired.fetch_add(1);
        throw std::runtime_error("soak: injected transient fault");
      }
    }
  };

  if (opt.http_port >= 0) {
    config.obs.endpoint = true;
    config.obs.port = opt.http_port;
  }

  serve::ServeEngine engine(config, factory);
  engine.start();

  SoakResult result;
  if (opt.http_port >= 0) {
    result.http_port = engine.http_port();
    std::printf("[serve] live endpoint on 127.0.0.1:%d "
                "(/metrics /healthz /flight)\n",
                result.http_port);
  }
  bool probed_health = false;
  std::vector<double> latencies;
  Timer wall;
  std::int64_t cursor = 0;
  constexpr std::int64_t kWave = 32;
  while (wall.seconds() < opt.seconds) {
    std::vector<serve::ResponseFuture> futures;
    std::vector<std::int64_t> labels;
    futures.reserve(kWave);
    labels.reserve(kWave);
    for (std::int64_t k = 0; k < kWave; ++k) {
      const std::int64_t sample = cursor++ % samples;
      Tensor image(config.input_shape);
      std::memcpy(image.data(), images.data() + sample * sample_numel,
                  static_cast<std::size_t>(sample_numel) * sizeof(float));
      serve::SubmitResult submitted = engine.submit(std::move(image));
      if (!submitted.accepted) continue;  // counted by the engine ledger
      futures.push_back(std::move(submitted.future));
      labels.push_back(data.test.labels[static_cast<std::size_t>(sample)]);
    }
    for (std::size_t k = 0; k < futures.size(); ++k) {
      const serve::InferResponse response = futures[k].get();
      if (serve::is_success(response.status)) {
        ++result.successes;
        latencies.push_back(response.total_ms);
        if (response.predicted == labels[k]) ++result.correct;
      }
    }
    // One live probe from mid-soak: /healthz must answer while the engine
    // is under chaos load (200 healthy or 503 with the breaker open — both
    // are correct answers; silence is the failure).
    if (opt.http_port >= 0 && !probed_health &&
        wall.seconds() > opt.seconds / 2) {
      const ScrapeResult health = http_get(result.http_port, "/healthz");
      result.healthz_status = health.ok ? health.status : 0;
      probed_health = true;
    }
  }
  result.elapsed_s = wall.seconds();

  if (opt.http_port >= 0) {
    // Quiescent self-scrape: every accepted future above has resolved and
    // nothing new is being submitted, so /metrics must agree exactly with
    // the engine's own ledger.
    const serve::ServeStats at_rest = engine.stats();
    const ScrapeResult scrape = http_get(result.http_port, "/metrics");
    result.conservation_checked = true;
    result.conservation_ok = scrape.ok && scrape.status == 200 &&
                             check_conservation(scrape.body, at_rest);
    if (!scrape.ok || scrape.status != 200) {
      std::printf("FAIL: /metrics scrape failed (transport %s, status %d)\n",
                  scrape.ok ? "ok" : "error", scrape.status);
    }
  }
  engine.stop();

  result.stats = engine.stats();
  result.queue_peak = engine.queue_peak_depth();
  result.trips = engine.governor().trips();
  result.recoveries = engine.governor().recoveries();
  result.faults_fired = faults_fired.load();
  std::sort(latencies.begin(), latencies.end());
  result.p50 = percentile(latencies, 0.50);
  result.p95 = percentile(latencies, 0.95);
  result.p99 = percentile(latencies, 0.99);
  const serve::ServeStats& s = result.stats;
  result.completion_rate =
      s.accepted > 0
          ? static_cast<double>(result.successes) / static_cast<double>(s.accepted)
          : 0.0;

  Table table({"Metric", "Value"});
  table.add_row({"elapsed s", Table::fmt(result.elapsed_s)});
  table.add_row({"submitted", std::to_string(s.submitted)});
  table.add_row({"accepted", std::to_string(s.accepted)});
  table.add_row({"rejected", std::to_string(s.rejected)});
  table.add_row({"ok", std::to_string(s.completed_ok)});
  table.add_row({"degraded", std::to_string(s.completed_degraded)});
  table.add_row({"errors", std::to_string(s.errors)});
  table.add_row({"timeouts", std::to_string(s.timeouts)});
  table.add_row({"shed (deadline)", std::to_string(s.shed_deadline)});
  table.add_row({"unavailable", std::to_string(s.unavailable)});
  table.add_row({"retries", std::to_string(s.retries)});
  table.add_row({"faults fired", std::to_string(result.faults_fired)});
  table.add_row({"batches", std::to_string(s.batches)});
  table.add_row({"queue peak depth", std::to_string(result.queue_peak)});
  table.add_row({"breaker trips", std::to_string(result.trips)});
  table.add_row({"breaker recoveries", std::to_string(result.recoveries)});
  table.add_row({"completion rate", Table::fmt(result.completion_rate, 4)});
  table.add_row({"soak accuracy %",
                 Table::fmt(result.successes > 0
                                ? 100.0 * static_cast<double>(result.correct) /
                                      static_cast<double>(result.successes)
                                : 0.0)});
  table.add_row({"latency p50 ms", Table::fmt(result.p50)});
  table.add_row({"latency p95 ms", Table::fmt(result.p95)});
  table.add_row({"latency p99 ms", Table::fmt(result.p99)});
  if (opt.http_port >= 0) {
    table.add_row({"endpoint port", std::to_string(result.http_port)});
    table.add_row({"healthz status", std::to_string(result.healthz_status)});
    table.add_row({"metrics conserved",
                   result.conservation_ok ? "yes" : "NO"});
  }
  table.print("Serving soak");
  bench::write_csv(table, "serve_soak.csv");

  // Hard gates — the CI serve-soak job keys off this exit status.
  result.passed = true;
  if (s.accepted + s.rejected != s.submitted) {
    std::printf("FAIL: admission ledger imbalance (accepted %lld + rejected "
                "%lld != submitted %lld)\n",
                static_cast<long long>(s.accepted),
                static_cast<long long>(s.rejected),
                static_cast<long long>(s.submitted));
    result.passed = false;
  }
  if (result.queue_peak > config.queue_capacity) {
    std::printf("FAIL: queue peak depth %lld exceeded capacity %lld\n",
                static_cast<long long>(result.queue_peak),
                static_cast<long long>(config.queue_capacity));
    result.passed = false;
  }
  if (result.completion_rate < 0.99) {
    std::printf("FAIL: completion rate %.4f < 0.99\n", result.completion_rate);
    result.passed = false;
  }
  if (opt.http_port >= 0) {
    if (result.healthz_status != 200 && result.healthz_status != 503) {
      std::printf("FAIL: mid-soak /healthz probe got status %d "
                  "(expected 200 or 503)\n",
                  result.healthz_status);
      result.passed = false;
    }
    if (result.conservation_checked && !result.conservation_ok) {
      std::printf("FAIL: quiescent /metrics scrape disagrees with the "
                  "engine ledger\n");
      result.passed = false;
    }
  }
  if (result.passed) {
    std::printf("soak PASS: %.2f%% of accepted requests completed non-error\n",
                100.0 * result.completion_rate);
  }
  return result;
}

struct AccuracyRow {
  std::int64_t t = 0;
  double ladder_acc = 0.0;       // T=3-converted net run at this T
  double reconverted_acc = 0.0;  // net converted specifically for this T
};

std::vector<AccuracyRow> run_accuracy(const bench::BenchData& data,
                                      const bench::BenchSetup& setup,
                                      dnn::Sequential& model,
                                      const core::ActivationProfile& profile) {
  std::printf("\n== Accuracy vs T (the degradation ladder's cost) ==\n");
  core::ConversionConfig cc3;
  cc3.time_steps = 3;
  auto ladder_net = core::convert(model, profile, cc3, nullptr);
  std::vector<AccuracyRow> rows;
  Table table({"T", "Ladder accuracy %", "Reconverted accuracy %"});
  for (const std::int64_t t : {3LL, 2LL, 1LL}) {
    AccuracyRow row;
    row.t = t;
    // What the governor does at runtime: same weights/thresholds (converted
    // for T=3), just fewer steps.
    ladder_net->set_time_steps(t);
    ladder_net->reset_state();
    row.ladder_acc = snn::evaluate_snn(*ladder_net, data.test, setup.batch_size);
    // The fair baseline: a conversion tuned for this T.
    core::ConversionConfig cc;
    cc.time_steps = t;
    auto tuned = core::convert(model, profile, cc, nullptr);
    row.reconverted_acc = snn::evaluate_snn(*tuned, data.test, setup.batch_size);
    table.add_row({std::to_string(t), Table::fmt(100.0 * row.ladder_acc),
                   Table::fmt(100.0 * row.reconverted_acc)});
    std::printf("[serve] T=%lld ladder %.2f%%  reconverted %.2f%%\n",
                static_cast<long long>(t), 100.0 * row.ladder_acc,
                100.0 * row.reconverted_acc);
    rows.push_back(row);
  }
  table.print("Accuracy vs T");
  bench::write_csv(table, "serve_accuracy.csv");
  return rows;
}

struct OverheadResult {
  double p50_off = 0.0, p50_on = 0.0;
  double p99_off = 0.0, p99_on = 0.0;
  double p99_ratio = 0.0;
  std::int64_t scrapes = 0;
  double seconds_per_leg = 0.0;
  bool passed = false;
};

/// The observability cost gate: identical clean load (no injected faults)
/// with the live endpoint off vs on — the "on" legs add a 20 Hz background
/// /metrics scraper, far beyond any real Prometheus interval (>= 1 s), so
/// they are a worst case. The stage-timing record and serve.* instruments
/// are always on in both modes (engine contract); what this gate prices is
/// the endpoint + scrape path itself.
///
/// Measurement discipline (what keeps the gate honest instead of flaky):
/// the driver submits one micro-batch-sized wave, drains it, then sleeps as
/// long as the wave took (50% duty cycle). That leaves deliberate idle
/// headroom on every machine — including single-core CI runners — so a p99
/// delta reflects the scrape path interrupting real work, not two saturated
/// threads trading a starved core. Legs run interleaved (off, on, on, off)
/// with the first waves discarded as warmup, and each mode scores its best
/// leg, cancelling machine-load drift across the run.
OverheadResult run_overhead(const Options& opt, const bench::BenchData& data,
                            const serve::NetworkFactory& factory) {
  const double leg_seconds = std::max(opt.seconds / 2.0, 2.0);
  std::printf("\n== Observability overhead: endpoint on vs off, "
              "4 legs x %.1fs ==\n",
              leg_seconds);
  const Tensor& images = data.test.images;
  const std::int64_t samples = data.test.size();
  const std::int64_t sample_numel = images.numel() / samples;
  const Shape input_shape(images.shape().begin() + 1, images.shape().end());

  struct Leg {
    double p50 = 0.0;
    double p99 = 0.0;
    std::int64_t scrapes = 0;
  };
  const auto measure = [&](bool endpoint) {
    serve::ServeConfig config;
    config.workers = opt.workers;
    config.queue_capacity = 128;
    config.batcher.max_batch = 8;
    config.default_deadline = std::chrono::milliseconds(5000);
    config.request_timeout = std::chrono::milliseconds(20000);
    config.max_attempts = 1;  // clean measurement load, no retries
    config.input_shape = input_shape;
    config.obs.endpoint = endpoint;
    serve::ServeEngine engine(config, factory);
    engine.start();

    std::atomic<bool> stop_scraper{false};
    std::atomic<std::int64_t> scrape_count{0};
    std::thread scraper;
    if (endpoint) {
      const int port = engine.http_port();
      scraper = std::thread([&stop_scraper, &scrape_count, port] {
        while (!stop_scraper.load(std::memory_order_acquire)) {
          if (http_get(port, "/metrics").ok) {
            scrape_count.fetch_add(1, std::memory_order_relaxed);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
    }

    std::vector<double> latencies;
    Timer wall;
    std::int64_t cursor = 0;
    std::int64_t wave_index = 0;
    constexpr std::int64_t kWave = 8;      // one micro-batch per wave
    constexpr std::int64_t kWarmupWaves = 2;
    while (wall.seconds() < leg_seconds) {
      Timer wave_timer;
      std::vector<serve::ResponseFuture> futures;
      futures.reserve(kWave);
      for (std::int64_t k = 0; k < kWave; ++k) {
        const std::int64_t sample = cursor++ % samples;
        Tensor image(input_shape);
        std::memcpy(image.data(), images.data() + sample * sample_numel,
                    static_cast<std::size_t>(sample_numel) * sizeof(float));
        serve::SubmitResult submitted = engine.submit(std::move(image));
        if (submitted.accepted) futures.push_back(std::move(submitted.future));
      }
      for (const serve::ResponseFuture& future : futures) {
        const serve::InferResponse response = future.get();
        if (serve::is_success(response.status) &&
            wave_index >= kWarmupWaves) {
          latencies.push_back(response.total_ms);
        }
      }
      ++wave_index;
      // 50% duty cycle: idle as long as the wave was busy.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(wave_timer.seconds(), 1.0)));
    }
    if (scraper.joinable()) {
      stop_scraper.store(true, std::memory_order_release);
      scraper.join();
    }
    engine.stop();
    Leg leg;
    leg.scrapes = scrape_count.load();
    std::sort(latencies.begin(), latencies.end());
    leg.p50 = percentile(latencies, 0.50);
    leg.p99 = percentile(latencies, 0.99);
    return leg;
  };

  OverheadResult result;
  result.seconds_per_leg = leg_seconds;
  Leg best_off, best_on;
  bool first_off = true, first_on = true;
  for (const bool endpoint : {false, true, true, false}) {
    const Leg leg = measure(endpoint);
    result.scrapes += leg.scrapes;
    Leg& best = endpoint ? best_on : best_off;
    bool& first = endpoint ? first_on : first_off;
    if (first || leg.p99 < best.p99) {
      best = leg;
      first = false;
    }
    std::printf("[serve] overhead leg: endpoint %s, p50 %.3f ms, "
                "p99 %.3f ms\n",
                endpoint ? "on" : "off", leg.p50, leg.p99);
  }
  result.p50_off = best_off.p50;
  result.p50_on = best_on.p50;
  result.p99_off = best_off.p99;
  result.p99_on = best_on.p99;
  result.p99_ratio =
      result.p99_off > 0.0 ? result.p99_on / result.p99_off : 0.0;
  // Gate: < 5% at the tail. The 0.5 ms absolute floor absorbs scheduler
  // noise when per-request latency is small enough that 5% is sub-jitter.
  result.passed = result.p99_on <= result.p99_off * 1.05 + 0.5;

  Table table({"Metric", "Endpoint off", "Endpoint on"});
  table.add_row({"latency p50 ms", Table::fmt(result.p50_off),
                 Table::fmt(result.p50_on)});
  table.add_row({"latency p99 ms", Table::fmt(result.p99_off),
                 Table::fmt(result.p99_on)});
  table.add_row({"/metrics scrapes", "0", std::to_string(result.scrapes)});
  table.print("Observability overhead");
  bench::write_csv(table, "serve_overhead.csv");
  if (result.passed) {
    std::printf("overhead PASS: p99 %.3f -> %.3f ms (x%.3f) with the live "
                "endpoint + 20 Hz scraper\n",
                result.p99_off, result.p99_on, result.p99_ratio);
  } else {
    std::printf("FAIL: observability overhead p99 %.3f -> %.3f ms (x%.3f) "
                "exceeds the 5%% gate\n",
                result.p99_off, result.p99_on, result.p99_ratio);
  }
  return result;
}

void write_json(const std::string& path, const Options& opt,
                const bench::Scale scale, const SoakResult* soak,
                const std::vector<AccuracyRow>& accuracy,
                const OverheadResult* overhead) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n  \"scale\": \"%s\"",
               bench::scale_name(scale));
  if (soak != nullptr) {
    const serve::ServeStats& s = soak->stats;
    std::fprintf(
        f,
        ",\n  \"soak\": {\n"
        "    \"loop\": \"closed\",\n"
        "    \"seconds\": %.3f,\n    \"fault_rate\": %.4f,\n"
        "    \"workers\": %lld,\n    \"submitted\": %lld,\n"
        "    \"accepted\": %lld,\n    \"rejected\": %lld,\n"
        "    \"ok\": %lld,\n    \"degraded\": %lld,\n    \"errors\": %lld,\n"
        "    \"timeouts\": %lld,\n    \"shed_deadline\": %lld,\n"
        "    \"unavailable\": %lld,\n    \"retries\": %lld,\n"
        "    \"faults_fired\": %lld,\n    \"batches\": %lld,\n"
        "    \"queue_peak_depth\": %lld,\n    \"breaker_trips\": %lld,\n"
        "    \"breaker_recoveries\": %lld,\n"
        "    \"completion_rate\": %.6f,\n"
        "    \"latency_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n"
        "    \"http_port\": %d,\n    \"healthz_status\": %d,\n"
        "    \"metrics_conserved\": %s,\n"
        "    \"passed\": %s\n  }",
        soak->elapsed_s, opt.fault_rate, static_cast<long long>(opt.workers),
        static_cast<long long>(s.submitted), static_cast<long long>(s.accepted),
        static_cast<long long>(s.rejected),
        static_cast<long long>(s.completed_ok),
        static_cast<long long>(s.completed_degraded),
        static_cast<long long>(s.errors), static_cast<long long>(s.timeouts),
        static_cast<long long>(s.shed_deadline),
        static_cast<long long>(s.unavailable),
        static_cast<long long>(s.retries),
        static_cast<long long>(soak->faults_fired),
        static_cast<long long>(s.batches),
        static_cast<long long>(soak->queue_peak),
        static_cast<long long>(soak->trips),
        static_cast<long long>(soak->recoveries), soak->completion_rate,
        soak->p50, soak->p95, soak->p99, soak->http_port,
        soak->healthz_status,
        soak->conservation_checked
            ? (soak->conservation_ok ? "true" : "false")
            : "null",
        soak->passed ? "true" : "false");
  }
  if (overhead != nullptr) {
    std::fprintf(
        f,
        ",\n  \"overhead\": {\n"
        "    \"seconds_per_leg\": %.3f,\n    \"scrapes\": %lld,\n"
        "    \"p50_ms\": {\"off\": %.3f, \"on\": %.3f},\n"
        "    \"p99_ms\": {\"off\": %.3f, \"on\": %.3f},\n"
        "    \"p99_ratio\": %.4f,\n    \"passed\": %s\n  }",
        overhead->seconds_per_leg, static_cast<long long>(overhead->scrapes),
        overhead->p50_off, overhead->p50_on, overhead->p99_off,
        overhead->p99_on, overhead->p99_ratio,
        overhead->passed ? "true" : "false");
  }
  if (!accuracy.empty()) {
    std::fprintf(f, ",\n  \"accuracy_vs_t\": [");
    for (std::size_t i = 0; i < accuracy.size(); ++i) {
      std::fprintf(f,
                   "%s\n    {\"T\": %lld, \"ladder_acc\": %.4f, "
                   "\"reconverted_acc\": %.4f}",
                   i == 0 ? "" : ",", static_cast<long long>(accuracy[i].t),
                   accuracy[i].ladder_acc, accuracy[i].reconverted_acc);
    }
    std::fprintf(f, "\n  ]");
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
    const bench::BenchSetup setup = bench::setup_for(scale);
    std::printf("== Serving bench (scale: %s) ==\n", bench::scale_name(scale));

    const core::Architecture arch = core::Architecture::kVgg11;
    const bench::BenchData data = bench::make_data(10, setup);
    double dnn_acc = 0.0;
    auto model = bench::trained_dnn(arch, 10, setup, data, &dnn_acc);
    const core::ActivationProfile profile =
        core::collect_activations(*model, data.train);
    std::printf("[serve] DNN accuracy: %.2f%%\n", 100.0 * dnn_acc);

    // Each worker replica is a fresh conversion from the shared trained
    // DNN: same weights, private runtime state.
    core::ConversionConfig cc;
    cc.time_steps = 3;
    const serve::NetworkFactory factory = [&model, &profile, cc] {
      return core::convert(*model, profile, cc, nullptr);
    };

    SoakResult soak;
    bool have_soak = false;
    std::vector<AccuracyRow> accuracy;
    OverheadResult overhead;
    bool have_overhead = false;
    if (opt.soak) {
      soak = run_soak(opt, data, factory);
      have_soak = true;
    }
    if (opt.accuracy) {
      accuracy = run_accuracy(data, setup, *model, profile);
    }
    if (opt.overhead) {
      overhead = run_overhead(opt, data, factory);
      have_overhead = true;
    }
    if (!opt.json_path.empty()) {
      write_json(opt.json_path, opt, scale, have_soak ? &soak : nullptr,
                 accuracy, have_overhead ? &overhead : nullptr);
    }
    const bool failed = (have_soak && !soak.passed) ||
                        (have_overhead && !overhead.passed);
    return failed ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }
}
