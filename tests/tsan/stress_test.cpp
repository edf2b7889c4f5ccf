// Concurrency stress suite for the shared-state hot spots: ThreadPool /
// parallel_for, the obs metrics registry, the robust:: primitives that are
// safe to share across threads (FaultInjector; HealthMonitor, whose const
// scan the serving engine's workers share), and the engine's admission
// queue (serve::LaneQueue). Runs
// in every build, but its purpose is the -DULLSNN_SANITIZE=thread
// configuration (`ctest -L tsan`), where ThreadSanitizer turns any data race
// these hammers expose into a hard failure. Assertions here are deliberately
// coarse (totals, no crashes); TSan provides the actual race detection.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/http_endpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/robust/fault_injector.h"
#include "src/robust/health.h"
#include "src/serve/bounded_queue.h"
#include "src/util/parallel.h"
#include "tests/testutil/http_get.h"

namespace ullsnn {
namespace {

struct SerialGuard {
  ~SerialGuard() { set_num_threads(1); }
};

TEST(TsanStressTest, ThreadPoolRapidJobTurnover) {
  SerialGuard guard;
  ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  // Many small jobs back to back: stresses the generation handshake between
  // run() and worker_loop() (stale wakeups, job pointer publication).
  for (int round = 0; round < 200; ++round) {
    pool.run(16, [&](std::int64_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 200 * (15 * 16) / 2);
}

TEST(TsanStressTest, ThreadPoolExceptionUnderContention) {
  SerialGuard guard;
  ThreadPool pool(4);
  // Every round one iteration throws while the rest keep claiming work:
  // stresses the record_error path racing the index distribution.
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(pool.run(64,
                          [&](std::int64_t i) {
                            if (i == 32) throw std::runtime_error("stress");
                          }),
                 std::runtime_error);
    std::atomic<std::int64_t> ok{0};
    pool.run(64, [&](std::int64_t) { ++ok; });
    EXPECT_EQ(ok.load(), 64);
  }
}

TEST(TsanStressTest, RegistryConcurrentRegistrationAndUpdates) {
  auto& registry = obs::Registry::instance();
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIters; ++i) {
        // Shared names: every thread races to register and update the same
        // instruments; per-thread names: registration churn under the lock.
        registry.counter("tsan.shared.counter").add(1);
        registry.gauge("tsan.shared.gauge").set(static_cast<double>(i));
        registry.histogram("tsan.shared.hist").observe(static_cast<double>(i % 7));
        registry.counter("tsan.thread." + std::to_string(t)).add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(registry.counter("tsan.shared.counter").value(), kThreads * kIters);
  EXPECT_EQ(registry.histogram("tsan.shared.hist").count(), kThreads * kIters);
}

TEST(TsanStressTest, RegistrySnapshotWhileWriting) {
  auto& registry = obs::Registry::instance();
  std::atomic<bool> stop{false};
  // Writers hammer instruments while a reader snapshots and a third thread
  // periodically resets values — the exporter-vs-hot-path interleaving.
  std::thread writer([&] {
    std::int64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.counter("tsan.snap.counter").add(1);
      registry.histogram("tsan.snap.hist").observe(static_cast<double>(i++ % 11));
    }
  });
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      registry.reset_values();
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 200; ++i) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    for (const auto& h : snap.histograms) {
      std::int64_t bucket_total = 0;
      for (const std::int64_t c : h.counts) bucket_total += c;
      EXPECT_GE(bucket_total, 0);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  resetter.join();
}

TEST(TsanStressTest, ParallelForFeedsRegistry) {
  SerialGuard guard;
  set_num_threads(4);
  obs::Registry::instance().counter("tsan.pf.counter").reset();
  // The realistic composition: kernel-style parallel_for bodies emitting
  // telemetry through the macro path (function-local static registration).
  for (int round = 0; round < 20; ++round) {
    parallel_for(64, [&](std::int64_t i) {
      ULLSNN_COUNTER_ADD("tsan.pf.counter", 1);
      ULLSNN_HISTOGRAM_OBSERVE("tsan.pf.hist", static_cast<double>(i));
    });
  }
  EXPECT_EQ(obs::Registry::instance().counter("tsan.pf.counter").value(), 20 * 64);
}

TEST(TsanStressTest, FaultInjectorSharedAcrossThreads) {
  // One injector shared by many "workers", each corrupting its own private
  // tensor: the RNG stream and the fault counter are the contended state.
  robust::FaultSpec spec;
  spec.weight_bitflip_rate = 0.5;
  robust::FaultInjector injector(spec);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::int64_t> per_thread(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&injector, &per_thread, t] {
      Tensor mine({16}, 1.0F);
      std::int64_t flips = 0;
      for (int i = 0; i < kIters; ++i) {
        flips += injector.inject_tensor(mine, 0.5);
      }
      per_thread[static_cast<std::size_t>(t)] = flips;
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t reported = 0;
  for (const std::int64_t f : per_thread) reported += f;
  // Which thread received which draw depends on interleaving, but the
  // injector-wide total must match what the callers saw, exactly.
  EXPECT_EQ(injector.faults_injected(), reported);
  EXPECT_GT(reported, 0);
}

TEST(TsanStressTest, FaultInjectorParamInjectionRacesTensorInjection) {
  robust::FaultSpec spec;
  spec.weight_bitflip_rate = 0.1;
  spec.stuck_at_zero_rate = 0.05;
  robust::FaultInjector injector(spec);
  dnn::Param param{"tsan.weights", Tensor({8, 8}, 0.5F), Tensor({8, 8}), true};
  std::atomic<bool> stop{false};
  // inject() (multi-param path, internal lock held across the sweep) racing
  // inject_tensor() (single-tensor path) on a *different* tensor.
  std::thread param_thread([&] {
    std::vector<dnn::Param*> params{&param};
    while (!stop.load(std::memory_order_relaxed)) injector.inject(params);
  });
  Tensor scratch({32}, 1.0F);
  for (int i = 0; i < 500; ++i) injector.inject_tensor(scratch, 0.2);
  stop.store(true, std::memory_order_relaxed);
  param_thread.join();
  EXPECT_GT(injector.faults_injected(), 0);
}

TEST(TsanStressTest, HealthMonitorSharedScanSnapshotRestoreDecide) {
  // Many threads scan (the const path the serving workers share) while
  // others snapshot/restore and run decide() — every mutating entry point
  // racing the read-only ones, which is what the monitor promises to allow.
  robust::GuardConfig config;
  config.policy = robust::GuardPolicy::kRollback;
  config.retry_budget = 1000000;  // never aborts during the stress window
  robust::HealthMonitor monitor(config);
  dnn::Param param{"tsan.health", Tensor({64}, 0.1F), Tensor({64}), true};
  std::vector<dnn::Param*> params{&param};
  std::vector<Tensor> velocity{Tensor({64})};
  Rng rng(7);
  monitor.snapshot(params, velocity, rng);

  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> scans{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&] {
      Tensor bad({8}, std::numeric_limits<float>::quiet_NaN());
      Tensor good({8}, 0.5F);
      while (!stop.load(std::memory_order_relaxed)) {
        robust::HealthReport report;
        monitor.scan_tensor("good", good, report);
        EXPECT_TRUE(report.healthy());
        monitor.scan_tensor("bad", bad, report);
        EXPECT_FALSE(report.healthy());
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread snapshotter([&] {
    std::vector<Tensor> local_velocity{Tensor({64})};
    Rng local_rng(9);
    while (!stop.load(std::memory_order_relaxed)) {
      monitor.snapshot(params, local_velocity, local_rng);
      monitor.restore(params, local_velocity, local_rng);
    }
  });
  robust::HealthReport unhealthy;
  unhealthy.nan_count = 1;
  for (int i = 0; i < 500; ++i) {
    monitor.decide(unhealthy);
    (void)monitor.lr_scale();
    (void)monitor.rollbacks();
  }
  // Keep the mutators alive until every scanner has demonstrably overlapped
  // with them at least once (the decide loop alone can finish in < 1ms).
  while (scans.load(std::memory_order_relaxed) < 4) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : scanners) th.join();
  snapshotter.join();
  EXPECT_GT(scans.load(), 0);
  EXPECT_EQ(monitor.rollbacks(), 500);
}

TEST(TsanStressTest, SloTrackerSnapshotUnderLoad) {
  // Concurrent scrapes (update) against writers hammering the latency
  // histogram the tracker windows over. The interval deltas must telescope:
  // after quiescence, the window counts across every update sum to exactly
  // the number of observations — no sample double-counted or dropped by a
  // racing scrape.
  obs::Histogram hist(obs::default_histogram_bounds());
  obs::SloConfig cfg;
  cfg.objective_ms = 5.0;
  obs::SloTracker tracker(cfg, hist);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> windowed{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const obs::SloTracker::Report report = tracker.update();
        windowed.fetch_add(report.window_count, std::memory_order_relaxed);
        EXPECT_GE(report.compliance, 0.0);
        EXPECT_LE(report.compliance, 1.0);
        EXPECT_GE(report.burn, 0.0);
        std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&hist, t] {
      for (int i = 0; i < kPerWriter; ++i) {
        hist.observe(static_cast<double>((i + t) % 13));
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : scrapers) th.join();
  windowed += tracker.update().window_count;  // capture the quiescent tail
  EXPECT_EQ(windowed.load(), kWriters * kPerWriter);
}

TEST(TsanStressTest, HttpEndpointScrapeRacesShutdown) {
  // Scrapers in flight while stop() tears the listener down, repeatedly:
  // the running_/stopping_ handshake, the listen_fd_ publication, and the
  // handler map must hold up when a request lands mid-shutdown. A scrape
  // may fail at transport level (connection refused/reset) — that is the
  // expected outcome of losing the race — but every scrape that returns 200
  // must carry the full body, and requests_served() must cover at least
  // every such success (the server may also have counted a response whose
  // bytes the client never fully read).
  for (int round = 0; round < 8; ++round) {
    obs::HttpEndpoint::Config cfg;
    cfg.port = 0;  // ephemeral
    obs::HttpEndpoint endpoint(cfg);
    endpoint.route("/metrics",
                   [](const std::string&, const std::string&) {
                     obs::HttpResponse r;
                     r.body = "tsan_scrape_total 1\n";
                     return r;
                   });
    endpoint.start();
    const int port = endpoint.port();
    ASSERT_GT(port, 0);

    std::atomic<std::int64_t> ok_scrapes{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> scrapers;
    for (int t = 0; t < 3; ++t) {
      scrapers.emplace_back([&, port] {
        while (!stop.load(std::memory_order_relaxed)) {
          const testutil::HttpResult result =
              testutil::http_request(port, "/metrics");
          if (result.ok && result.status == 200) {
            EXPECT_EQ(result.body, "tsan_scrape_total 1\n");
            ok_scrapes.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    // Let at least one scrape land, then yank the endpoint out from under
    // the scrapers while they are mid-loop.
    while (ok_scrapes.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    endpoint.stop();
    EXPECT_FALSE(endpoint.running());
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : scrapers) th.join();
    EXPECT_GE(endpoint.requests_served(), ok_scrapes.load());
    endpoint.stop();  // idempotent; destructor will run it again too
  }
}

TEST(TsanStressTest, LaneQueueCloseRacesAdmission) {
  // Producers on both lanes and two consumers hammer the admission queue
  // while a closer shuts it mid-stream, repeatedly. Items are heap-owned so
  // TSan sees every hand-off between threads. Every admitted item must be
  // popped exactly once; a refused item must stay in its producer's hands.
  constexpr int kProducers = 4;  // two per lane
  constexpr int kPerProducer = 2000;
  constexpr int kItems = kProducers * kPerProducer;
  for (int round = 0; round < 4; ++round) {
    serve::LaneQueue<std::unique_ptr<int>> q({32, 32});
    std::vector<std::atomic<int>> admitted(kItems);
    std::vector<std::atomic<int>> popped(kItems);
    std::atomic<std::int64_t> admissions{0};
    std::atomic<bool> lost_refused_item{false};
    std::vector<std::thread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        const std::size_t lane = static_cast<std::size_t>(p % 2);
        for (int i = 0; i < kPerProducer; ++i) {
          const int value = p * kPerProducer + i;
          auto item = std::make_unique<int>(value);
          for (;;) {
            const serve::AdmitError err = q.try_push(std::move(item), lane);
            if (err == serve::AdmitError::kNone) break;
            if (item == nullptr) lost_refused_item.store(true);
            if (err == serve::AdmitError::kClosed) return;
            std::this_thread::yield();  // kFull: retry until a slot frees
          }
          admitted[static_cast<std::size_t>(value)].fetch_add(1);
          admissions.fetch_add(1);
        }
      });
    }
    const auto consume = [&] {
      std::unique_ptr<int> out;
      for (;;) {
        if (q.pop(&out, std::chrono::milliseconds(2))) {
          popped[static_cast<std::size_t>(*out)].fetch_add(1);
          continue;
        }
        if (q.closed()) return;  // closed and drained (or a lull: swept below)
      }
    };
    threads.emplace_back(consume);
    threads.emplace_back(consume);
    threads.emplace_back([&] {  // closer: shut the queue mid-admission
      while (admissions.load() < kItems / 4) std::this_thread::yield();
      q.close();
    });
    for (auto& th : threads) th.join();
    std::unique_ptr<int> leftover;
    while (q.try_pop(&leftover)) {
      popped[static_cast<std::size_t>(*leftover)].fetch_add(1);
    }
    EXPECT_FALSE(lost_refused_item.load());
    std::int64_t admitted_total = 0;
    for (int v = 0; v < kItems; ++v) {
      const auto i = static_cast<std::size_t>(v);
      ASSERT_EQ(popped[i].load(), admitted[i].load()) << "item " << v;
      admitted_total += admitted[i].load();
    }
    EXPECT_EQ(admitted_total, admissions.load());
    EXPECT_GE(admitted_total, kItems / 4);
    EXPECT_LE(q.lane_peak_depth(0), q.capacity(0));
    EXPECT_LE(q.lane_peak_depth(1), q.capacity(1));
  }
}

}  // namespace
}  // namespace ullsnn
