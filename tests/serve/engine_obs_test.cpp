// Live-operations integration tests: request-scoped stage timings on the
// response, the embedded /metrics//healthz//flight endpoint, conservation
// between the exported serve.* series and ServeStats (per engine: no test
// resets any process-wide state first), and the flight recorder's anomaly
// dumps — all driven through a real running engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/serve/engine.h"
#include "tests/testutil/http_get.h"

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;
using testutil::http_request;

snn::IfConfig if_config(float v_th = 1.0F) {
  snn::IfConfig c;
  c.v_threshold = v_th;
  return c;
}

NetworkFactory tiny_factory(std::int64_t time_steps = 3) {
  return [time_steps] {
    auto net = std::make_unique<snn::SnnNetwork>(time_steps);
    Tensor w1({4, 4});
    for (std::int64_t i = 0; i < 4; ++i) w1.at(i, i) = 1.0F;
    net->emplace<snn::SynapticLayer>(snn::Synapse(w1), if_config());
    Tensor w2({2, 4});
    w2.at(0, 0) = 1.0F;
    w2.at(0, 1) = 1.0F;
    w2.at(1, 2) = 1.0F;
    w2.at(1, 3) = 1.0F;
    net->emplace<snn::SynapticLayer>(snn::Synapse(w2), std::nullopt);
    return net;
  };
}

Tensor class_image(std::int64_t cls) {
  Tensor image({4});
  image[2 * cls] = 1.5F;
  image[2 * cls + 1] = 1.5F;
  return image;
}

ServeConfig base_config() {
  ServeConfig config;
  config.input_shape = {4};
  config.workers = 1;
  config.default_deadline = 10000ms;
  config.request_timeout = 20000ms;
  config.retry_backoff = std::chrono::microseconds(0);
  return config;
}

/// Parse `<name> <value>` from an exposition body; -1 if absent.
double scrape_value(const std::string& body, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = body.find(needle, pos)) != std::string::npos) {
    // Must be at line start so serve_submitted doesn't match a TYPE line.
    if (pos == 0 || body[pos - 1] == '\n') {
      return std::stod(body.substr(pos + needle.size()));
    }
    pos += needle.size();
  }
  return -1.0;
}

TEST(EngineObsTest, ResponseCarriesIdAndStageTimings) {
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  SubmitResult submitted = engine.submit(class_image(1));
  ASSERT_TRUE(submitted.accepted);
  const InferResponse response = submitted.future.get();
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.id, submitted.future.id());
  EXPECT_GE(response.queue_ms, 0.0);
  EXPECT_GE(response.batch_ms, 0.0);
  EXPECT_GT(response.infer_ms, 0.0);
  EXPECT_GT(response.total_ms, 0.0);
  // The stage record is internally consistent: stages cannot exceed the
  // end-to-end total (infer runs inside it).
  EXPECT_LE(response.infer_ms, response.total_ms + 1.0);
  // One per-step duration per ladder time step, each non-negative and
  // summing to (at most) the forward time.
  ASSERT_EQ(response.step_ms.size(), 3u);
  double step_sum = 0.0;
  for (const double s : response.step_ms) {
    EXPECT_GE(s, 0.0);
    step_sum += s;
  }
  EXPECT_LE(step_sum, response.infer_ms + 1.0);
  engine.stop();
}

TEST(EngineObsTest, RequestIdsAreUniqueAndMonotonic) {
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 16; ++i) {
    SubmitResult s = engine.submit(class_image(i % 2));
    ASSERT_TRUE(s.accepted);
    futures.push_back(std::move(s.future));
  }
  std::int64_t prev = -1;
  for (auto& f : futures) {
    const InferResponse r = f.get();
    EXPECT_EQ(r.id, f.id());
    EXPECT_GT(r.id, prev);
    prev = r.id;
  }
  engine.stop();
}

TEST(EngineObsTest, FlightRecorderCapturesFulfilledRequests) {
  obs::FlightRecorder::instance().clear();
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  SubmitResult submitted = engine.submit(class_image(0));
  ASSERT_TRUE(submitted.accepted);
  const InferResponse response = submitted.future.get();
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  engine.stop();
  const auto records = obs::FlightRecorder::instance().requests();
  ASSERT_FALSE(records.empty());
  bool found = false;
  for (const auto& record : records) {
    if (record.id != response.id) continue;
    found = true;
    EXPECT_STREQ(record.status, "ok");
    EXPECT_EQ(record.time_steps, 3);
    EXPECT_EQ(record.worker, 0);
    EXPECT_GE(record.batch_size, 1);
    EXPECT_EQ(record.steps, 3);
    EXPECT_GT(record.total_ms, 0.0);
  }
  EXPECT_TRUE(found);
}

TEST(EngineObsTest, MetricsEndpointConservesCountsAgainstServeStats) {
  ServeConfig config = base_config();
  config.obs.endpoint = true;  // ephemeral loopback port
  ServeEngine engine(config, tiny_factory());
  engine.start();
  ASSERT_GT(engine.http_port(), 0);
  constexpr int kRequests = 24;
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < kRequests; ++i) {
    SubmitResult s = engine.submit(class_image(i % 2));
    ASSERT_TRUE(s.accepted);
    futures.push_back(std::move(s.future));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(is_success(f.get().status));
  }
  const auto scrape = http_request(engine.http_port(), "/metrics");
  ASSERT_TRUE(scrape.ok);
  ASSERT_EQ(scrape.status, 200);
  const ServeStats stats = engine.stats();
  // Conservation: the exported serve.* series and the engine-owned stats
  // describe the same requests. (Scrape first, then read stats: counters
  // only grow, so scrape <= stats would catch drift in either direction.)
  EXPECT_EQ(scrape_value(scrape.body, "serve_submitted"), stats.submitted);
  EXPECT_EQ(scrape_value(scrape.body, "serve_accepted"), stats.accepted);
  EXPECT_EQ(scrape_value(scrape.body, "serve_completed_ok"),
            stats.completed_ok);
  EXPECT_EQ(scrape_value(scrape.body, "serve_completed_degraded"),
            stats.completed_degraded);
  // The latency histogram saw every fulfilled request.
  EXPECT_EQ(scrape_value(scrape.body, "serve_latency_total_ms_count"),
            kRequests);
  // The exposition carries the SLO gauges the tracker publishes on scrape.
  EXPECT_GE(scrape_value(scrape.body, "serve_slo_p50_ms"), 0.0);
  // The governor publishes both its families through engine-owned
  // instruments, so both are always in the scrape.
  EXPECT_EQ(scrape_value(scrape.body, "serve_breaker_state"), 0.0);
  EXPECT_EQ(scrape_value(scrape.body, "serve_breaker_time_steps"), 3.0);
  EXPECT_GE(scrape_value(scrape.body, "serve_breaker_trips"), 0.0);
  EXPECT_GE(scrape_value(scrape.body, "serve_breaker_probes"), 0.0);
  EXPECT_GE(scrape_value(scrape.body, "serve_breaker_recoveries"), 0.0);
  EXPECT_EQ(scrape_value(scrape.body, "serve_overload_brownout_level"), 0.0);
  EXPECT_EQ(scrape_value(scrape.body, "serve_overload_brownout_time_steps"), 3.0);
  EXPECT_GE(scrape_value(scrape.body, "serve_overload_brownout_escalations"), 0.0);
  EXPECT_GE(scrape_value(scrape.body, "serve_overload_brownout_recoveries"), 0.0);
  engine.stop();
}

TEST(EngineObsTest, MetricsConserveUnderInjectedFaults) {
  // The chaos schedule of ChaosSoakCompletesAtLeast99PercentDespiteFaults
  // (5% of ids fail their first attempt, so their batch retries), plus 1%
  // of ids that fail every attempt (their batch ends in kError) and one
  // malformed submission (rejected at admission): every counter the retry
  // and error paths touch moves, and the scrape must still equal ServeStats.
  std::atomic<std::int64_t> faults_fired{0};
  ServeConfig config = base_config();
  config.obs.endpoint = true;
  config.workers = 2;
  config.queue_capacity = 256;
  config.batcher.max_batch = 8;
  config.max_attempts = 3;
  config.before_forward_hook = [&faults_fired](const std::vector<std::int64_t>& ids,
                                               std::int64_t attempt,
                                               snn::SnnNetwork&) {
    for (const std::int64_t id : ids) {
      if ((attempt == 0 && id % 20 == 0) || id % 100 == 50) {
        faults_fired.fetch_add(1);
        throw std::runtime_error("injected fault");
      }
    }
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  ASSERT_GT(engine.http_port(), 0);
  EXPECT_FALSE(engine.submit(Tensor({3})).accepted);
  constexpr std::int64_t kRequests = 400;
  constexpr std::int64_t kWave = 100;  // under capacity: nothing is shed
  for (std::int64_t base = 0; base < kRequests; base += kWave) {
    std::vector<ResponseFuture> futures;
    for (std::int64_t i = base; i < base + kWave; ++i) {
      SubmitResult s = engine.submit(class_image(i % 2));
      ASSERT_TRUE(s.accepted);
      futures.push_back(std::move(s.future));
    }
    for (auto& f : futures) f.get();
  }
  const ServeStats stats = engine.stats();
  const auto scrape = http_request(engine.http_port(), "/metrics");
  ASSERT_TRUE(scrape.ok);
  ASSERT_EQ(scrape.status, 200);
  EXPECT_GT(faults_fired.load(), 0);
  EXPECT_GT(stats.retries, 0);
  EXPECT_GT(stats.errors, 0);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(scrape_value(scrape.body, "serve_submitted"), stats.submitted);
  EXPECT_EQ(scrape_value(scrape.body, "serve_accepted"), stats.accepted);
  EXPECT_EQ(scrape_value(scrape.body, "serve_rejected"), stats.rejected);
  EXPECT_EQ(scrape_value(scrape.body, "serve_retries"), stats.retries);
  EXPECT_EQ(scrape_value(scrape.body, "serve_errors"), stats.errors);
  EXPECT_EQ(scrape_value(scrape.body, "serve_timeouts"), stats.timeouts);
  EXPECT_EQ(scrape_value(scrape.body, "serve_latency_total_ms_count"),
            stats.accepted);
  engine.stop();
}

TEST(EngineObsTest, HealthzReportsBreakerAndQueue) {
  ServeConfig config = base_config();
  config.obs.endpoint = true;
  ServeEngine engine(config, tiny_factory());
  engine.start();
  const auto health = http_request(engine.http_port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"breaker\":\"closed\""), std::string::npos);
  // Total capacity spans both priority lanes (interactive + batch).
  EXPECT_NE(health.body.find("\"queue_capacity\":512"), std::string::npos);
  EXPECT_NE(health.body.find("\"queue_capacity_interactive\":256"),
            std::string::npos);
  EXPECT_NE(health.body.find("\"queue_capacity_batch\":256"), std::string::npos);
  engine.stop();
}

TEST(EngineObsTest, HealthzReportsLoadDrivenDegradation) {
  // One worker whose forwards sleep, a burst that fills the queue past the
  // high watermark, and a worker that parks after a dozen batches: by then
  // the governor has seen enough queue observations to lower the load rung,
  // and parking keeps it there while /healthz is read.
  ServeConfig config = base_config();
  config.obs.endpoint = true;
  config.queue_capacity = 16;
  config.batch_queue_capacity = 16;
  config.batcher.max_batch = 1;
  constexpr std::int64_t kParkAt = 12;
  std::atomic<std::int64_t> forwards{0};
  std::atomic<bool> parked{true};
  config.before_forward_hook = [&](const std::vector<std::int64_t>&, std::int64_t,
                                   snn::SnnNetwork&) {
    std::this_thread::sleep_for(5ms);
    if (forwards.fetch_add(1) + 1 < kParkAt) return;
    while (parked.load()) std::this_thread::sleep_for(1ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 32; ++i) {
    SubmitOptions options;
    options.priority = i % 2 == 0 ? Priority::kInteractive : Priority::kBatch;
    SubmitResult s = engine.submit(class_image(i % 2), options);
    EXPECT_TRUE(s.accepted);
    if (s.accepted) futures.push_back(std::move(s.future));
  }
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (engine.stats().brownout_level == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  const std::int64_t level = engine.stats().brownout_level;
  const auto health = http_request(engine.http_port(), "/healthz");
  // Unpark before any assertion can return, or stop() would wait forever.
  parked.store(false);
  ASSERT_GT(level, 0);
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 200);  // degraded still answers
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"breaker\":\"closed\""), std::string::npos);
  const std::size_t t_at = health.body.find("\"time_steps\":");
  ASSERT_NE(t_at, std::string::npos);
  EXPECT_LT(std::stoi(health.body.substr(t_at + 13)), 3) << health.body;
  for (auto& f : futures) f.get();
  engine.stop();
}

TEST(EngineObsTest, HealthzGoes503WhenTheCircuitOpens) {
  ServeConfig config = base_config();
  config.obs.endpoint = true;
  config.max_attempts = 1;
  config.governor.ladder = {3, 2, 1};
  config.governor.failure_threshold = 1;
  config.governor.open_cooldown = 1000;  // stay open for the whole test
  config.before_forward_hook = [](const std::vector<std::int64_t>&,
                                  std::int64_t, snn::SnnNetwork&) {
    throw std::runtime_error("injected persistent fault");
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  // Every batch fails; the ladder descends then the circuit opens.
  for (int i = 0; i < 10 && engine.governor().state() != BreakerState::kOpen;
       ++i) {
    SubmitResult s = engine.submit(class_image(0));
    ASSERT_TRUE(s.accepted);
    s.future.get();
  }
  ASSERT_EQ(engine.governor().state(), BreakerState::kOpen);
  const auto health = http_request(engine.http_port(), "/healthz");
  ASSERT_TRUE(health.ok);
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"unavailable\""), std::string::npos);
  EXPECT_NE(health.body.find("\"breaker\":\"open\""), std::string::npos);
  engine.stop();
}

TEST(EngineObsTest, FlightEndpointServesRecentRequests) {
  obs::FlightRecorder::instance().clear();
  ServeConfig config = base_config();
  config.obs.endpoint = true;
  ServeEngine engine(config, tiny_factory());
  engine.start();
  SubmitResult submitted = engine.submit(class_image(1));
  ASSERT_TRUE(submitted.accepted);
  const InferResponse response = submitted.future.get();
  const auto flight = http_request(engine.http_port(), "/flight");
  ASSERT_TRUE(flight.ok);
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.headers.find("application/x-ndjson"), std::string::npos);
  EXPECT_NE(flight.body.find("\"id\":" + std::to_string(response.id)),
            std::string::npos);
  engine.stop();
}

TEST(EngineObsTest, WatchdogTimeoutDumpsTheFlightRecorder) {
  obs::FlightRecorder::instance().clear();
  const std::string dump_path =
      testing::TempDir() + "engine_flight_dump.jsonl";
  std::remove(dump_path.c_str());
  ServeConfig config = base_config();
  config.request_timeout = 50ms;
  config.max_attempts = 1;
  config.obs.flight_dump_path = dump_path;
  config.before_forward_hook = [](const std::vector<std::int64_t>&,
                                  std::int64_t, snn::SnnNetwork&) {
    std::this_thread::sleep_for(200ms);  // wedge past the hard timeout
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  SubmitResult submitted = engine.submit(class_image(0));
  ASSERT_TRUE(submitted.accepted);
  const InferResponse response = submitted.future.get();
  EXPECT_EQ(response.status, ResponseStatus::kTimeout);
  EXPECT_EQ(response.id, submitted.future.id());
  engine.stop();
  EXPECT_GE(obs::FlightRecorder::instance().anomalies(), 1);
  std::ifstream dump(dump_path);
  ASSERT_TRUE(dump.good()) << "anomaly should have dumped " << dump_path;
  std::string contents((std::istreambuf_iterator<char>(dump)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"kind\":\"watchdog\""), std::string::npos);
  std::remove(dump_path.c_str());
  // Don't leave the global recorder pointed at this test's temp file.
  obs::FlightRecorder::instance().set_dump_path("");
}

TEST(EngineObsTest, StatsPollLeavesTheSloWindowToScrapes) {
  ServeConfig config = base_config();
  config.obs.endpoint = true;
  ServeEngine engine(config, tiny_factory());
  engine.start();
  ASSERT_GT(engine.http_port(), 0);
  constexpr int kRequests = 8;
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < kRequests; ++i) {
    SubmitResult s = engine.submit(class_image(0));
    ASSERT_TRUE(s.accepted);
    futures.push_back(std::move(s.future));
  }
  for (auto& f : futures) f.get();
  // A stats() poller between two scrapes (bench drivers poll it) must not
  // advance the rolling SLO window: the scrape still describes every
  // request since the engine started.
  EXPECT_EQ(engine.stats().completed_ok, kRequests);
  const auto scrape = http_request(engine.http_port(), "/metrics");
  ASSERT_TRUE(scrape.ok);
  ASSERT_EQ(scrape.status, 200);
  EXPECT_EQ(scrape_value(scrape.body, "serve_slo_window_requests"), kRequests);
  const double p50 = scrape_value(scrape.body, "serve_slo_p50_ms");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, scrape_value(scrape.body, "serve_slo_p95_ms"));
  // Tiny requests against a 250 ms objective: no violations, no burn.
  EXPECT_NEAR(scrape_value(scrape.body, "serve_slo_compliance"), 1.0, 1e-9);
  EXPECT_NEAR(scrape_value(scrape.body, "serve_slo_burn"), 0.0, 1e-9);
  engine.stop();
}

TEST(EngineObsTest, TwoEnginesExportOnlyTheirOwnSeries) {
  // Two engines in one process, no registry reset: each scrape must describe
  // its own engine alone. Engine A's logits are all NaN, so every batch is
  // unhealthy and its circuit opens; engine B serves healthy traffic and its
  // breaker must stay closed in its own scrape.
  ServeConfig config_a = base_config();
  config_a.obs.endpoint = true;
  config_a.max_attempts = 1;
  config_a.governor.ladder = {3, 2, 1};
  config_a.governor.failure_threshold = 1;
  config_a.governor.open_cooldown = 1000;  // stay open for the whole test
  config_a.after_forward_hook = [](const std::vector<std::int64_t>&,
                                   Tensor& logits) {
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      logits[i] = std::numeric_limits<float>::quiet_NaN();
    }
  };
  ServeConfig config_b = base_config();
  config_b.obs.endpoint = true;
  ServeEngine a(config_a, tiny_factory());
  ServeEngine b(config_b, tiny_factory());
  a.start();
  b.start();
  ASSERT_GT(a.http_port(), 0);
  ASSERT_GT(b.http_port(), 0);

  std::int64_t requests_a = 0;
  while (requests_a < 10 && a.governor().state() != BreakerState::kOpen) {
    SubmitResult s = a.submit(class_image(0));
    ASSERT_TRUE(s.accepted);
    ++requests_a;
    EXPECT_FALSE(is_success(s.future.get().status));
  }
  ASSERT_EQ(a.governor().state(), BreakerState::kOpen);
  constexpr std::int64_t kRequestsB = 5;
  for (std::int64_t i = 0; i < kRequestsB; ++i) {
    SubmitResult s = b.submit(class_image(i % 2));
    ASSERT_TRUE(s.accepted);
    EXPECT_EQ(s.future.get().status, ResponseStatus::kOk);
  }

  const auto expect_own_series = [](ServeEngine& engine, std::int64_t requests,
                                    double breaker_state) {
    const auto scrape = http_request(engine.http_port(), "/metrics");
    ASSERT_TRUE(scrape.ok);
    ASSERT_EQ(scrape.status, 200);
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.submitted, requests);
    EXPECT_EQ(scrape_value(scrape.body, "serve_submitted"), stats.submitted);
    EXPECT_EQ(scrape_value(scrape.body, "serve_latency_total_ms_count"), requests);
    EXPECT_EQ(scrape_value(scrape.body, "serve_slo_window_requests"), requests);
    EXPECT_EQ(scrape_value(scrape.body, "serve_breaker_state"), breaker_state);
  };
  expect_own_series(a, requests_a, 2.0);  // open
  expect_own_series(b, kRequestsB, 0.0);  // closed
  a.stop();
  b.stop();
}

TEST(EngineObsTest, EndpointDisabledByDefault) {
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  EXPECT_EQ(engine.http_port(), 0);
  engine.stop();
}

}  // namespace
}  // namespace ullsnn::serve
