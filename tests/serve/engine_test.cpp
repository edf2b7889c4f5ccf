#include "src/serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;

snn::IfConfig if_config(float v_th = 1.0F) {
  snn::IfConfig c;
  c.v_threshold = v_th;
  return c;
}

/// 4 -> 4 identity spiking layer + 2-class readout: row 0 reads hidden units
/// {0, 1}, row 1 reads {2, 3}. Driving either pair above threshold makes the
/// corresponding class win, so predictions are known in closed form.
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

/// Input [4] that drives class `cls` (0 or 1) above threshold.
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

TEST(ServeEngineTest, ValidatesConfig) {
  ServeConfig no_shape = base_config();
  no_shape.input_shape = {};
  EXPECT_THROW(ServeEngine(no_shape, tiny_factory()), std::invalid_argument);
  ServeConfig no_workers = base_config();
  no_workers.workers = 0;
  EXPECT_THROW(ServeEngine(no_workers, tiny_factory()), std::invalid_argument);
  EXPECT_THROW(ServeEngine(base_config(), NetworkFactory{}), std::invalid_argument);
}

TEST(ServeEngineTest, ServesSingleRequest) {
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  SubmitResult submitted = engine.submit(class_image(1));
  ASSERT_TRUE(submitted.accepted);
  const InferResponse response = submitted.future.get();
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.predicted, 1);
  EXPECT_EQ(response.time_steps, 3);
  EXPECT_EQ(response.retries, 0);
  ASSERT_EQ(response.logits.shape(), Shape({2}));
  EXPECT_GT(response.logits[1], response.logits[0]);
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_EQ(stats.completed_ok, 1);
  EXPECT_EQ(stats.errors, 0);
}

TEST(ServeEngineTest, IdenticalInputsYieldBitwiseIdenticalLogits) {
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  const InferResponse first = engine.submit(class_image(0)).future.get();
  // An unrelated request in between must not perturb the repeat: the engine
  // calls reset_state() before every batch (isolation contract).
  engine.submit(class_image(1)).future.get();
  const InferResponse repeat = engine.submit(class_image(0)).future.get();
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  ASSERT_EQ(repeat.status, ResponseStatus::kOk);
  ASSERT_EQ(first.logits.numel(), repeat.logits.numel());
  for (std::int64_t i = 0; i < first.logits.numel(); ++i) {
    EXPECT_EQ(first.logits[i], repeat.logits[i]) << "logit " << i;
  }
}

TEST(ServeEngineTest, RejectsWhenNotRunningOrShapeMismatch) {
  ServeEngine engine(base_config(), tiny_factory());
  const SubmitResult before_start = engine.submit(class_image(0));
  EXPECT_FALSE(before_start.accepted);
  EXPECT_EQ(before_start.response.status, ResponseStatus::kRejected);
  EXPECT_EQ(before_start.response.reason, "engine not running");

  engine.start();
  const SubmitResult bad_shape = engine.submit(Tensor({3}, 1.0F));
  EXPECT_FALSE(bad_shape.accepted);
  EXPECT_EQ(bad_shape.response.status, ResponseStatus::kRejected);
  EXPECT_NE(bad_shape.response.reason.find("input shape"), std::string::npos);
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.accepted, 0);
}

TEST(ServeEngineTest, OverloadBurstIsFullyAccounted) {
  constexpr std::int64_t kBurst = 120;
  ServeConfig config = base_config();
  config.queue_capacity = 8;
  config.batcher.max_batch = 4;
  // Slow the worker down so the burst actually collides with a full queue.
  config.before_forward_hook = [](const std::vector<std::int64_t>&, std::int64_t,
                                  snn::SnnNetwork&) {
    std::this_thread::sleep_for(2ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  std::vector<ResponseFuture> futures;
  futures.reserve(kBurst);
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < kBurst; ++i) {
    SubmitResult result = engine.submit(class_image(i % 2));
    if (result.accepted) {
      futures.push_back(std::move(result.future));
    } else {
      ++rejected;
      EXPECT_EQ(result.response.status, ResponseStatus::kRejected);
      EXPECT_EQ(result.response.reason, "queue full");
    }
  }
  // Every accepted request reaches a terminal state.
  for (const ResponseFuture& future : futures) {
    const InferResponse response = future.get();
    EXPECT_TRUE(is_success(response.status)) << response.reason;
  }
  engine.stop();
  const ServeStats stats = engine.stats();
  // The overload invariant: nothing vanishes, nothing is double-counted.
  EXPECT_EQ(stats.submitted, kBurst);
  EXPECT_EQ(stats.accepted + stats.rejected, stats.submitted);
  EXPECT_EQ(stats.accepted, static_cast<std::int64_t>(futures.size()));
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_GT(stats.rejected, 0) << "burst never filled the queue; not an overload test";
  // Backpressure held: the queue never grew past its bound.
  EXPECT_LE(engine.queue_peak_depth(), config.queue_capacity);
  EXPECT_EQ(stats.completed_ok + stats.completed_degraded, stats.accepted);
}

TEST(ServeEngineTest, ChaosSoakCompletesAtLeast99PercentDespiteFaults) {
  // 5% of requests (id % 20 == 0 — a deterministic schedule, independent of
  // thread interleaving) hit a transient fault on their first forward
  // attempt. Retries must absorb every one of them: the ISSUE acceptance
  // bar is >= 99% of in-deadline requests completing non-error.
  constexpr std::int64_t kRequests = 400;
  std::atomic<std::int64_t> faults_fired{0};
  ServeConfig config = base_config();
  config.workers = 2;
  config.queue_capacity = 256;
  config.batcher.max_batch = 8;
  config.max_attempts = 3;
  config.before_forward_hook = [&faults_fired](const std::vector<std::int64_t>& ids,
                                               std::int64_t attempt,
                                               snn::SnnNetwork&) {
    if (attempt > 0) return;  // transient: the retry goes through clean
    for (const std::int64_t id : ids) {
      if (id % 20 == 0) {
        faults_fired.fetch_add(1);
        throw std::runtime_error("injected transient fault");
      }
    }
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  // Submit in waves sized under the queue capacity so admission control
  // never kicks in: the soak measures completion under faults, not
  // overload shedding (OverloadBurstIsFullyAccounted covers that).
  constexpr std::int64_t kWave = 100;
  std::int64_t successes = 0;
  std::int64_t correct = 0;
  for (std::int64_t base = 0; base < kRequests; base += kWave) {
    std::vector<ResponseFuture> futures;
    futures.reserve(kWave);
    for (std::int64_t i = base; i < base + kWave; ++i) {
      SubmitResult result = engine.submit(class_image(i % 2));
      ASSERT_TRUE(result.accepted) << "wave sized under capacity; must admit";
      futures.push_back(std::move(result.future));
    }
    for (std::int64_t i = 0; i < kWave; ++i) {
      const InferResponse response = futures[static_cast<std::size_t>(i)].get();
      if (is_success(response.status)) {
        ++successes;
        if (response.predicted == (base + i) % 2) ++correct;
      }
    }
  }
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.accepted + stats.rejected, stats.submitted);
  EXPECT_GE(successes, (kRequests * 99) / 100)
      << "chaos soak dropped more than 1% of in-deadline requests";
  EXPECT_EQ(correct, successes) << "served logits must stay correct under chaos";
  EXPECT_EQ(stats.errors, 0);
  EXPECT_EQ(stats.timeouts, 0);
  EXPECT_GT(faults_fired.load(), 0) << "fault schedule never fired; not a chaos test";
  EXPECT_GT(stats.retries, 0);
}

TEST(ServeEngineTest, BreakerTripsDegradesOpensProbesAndRecovers) {
  // Deterministic single-worker, batch-of-one setup so the breaker sees one
  // verdict per request in submission order.
  ServeConfig config = base_config();
  config.batcher.max_batch = 1;
  config.max_attempts = 2;
  config.governor.ladder = {3, 2, 1};
  config.governor.failure_threshold = 2;
  config.governor.recovery_threshold = 2;
  config.governor.open_cooldown = 2;
  std::atomic<bool> corrupt{true};
  config.after_forward_hook = [&corrupt](const std::vector<std::int64_t>&,
                                         Tensor& logits) {
    if (corrupt.load()) logits[0] = std::numeric_limits<float>::quiet_NaN();
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  const auto serve_one = [&engine]() {
    return engine.submit(class_image(0)).future.get();
  };

  // Corrupt phase: every attempt yields NaN logits, so each request burns
  // all attempts and records an unhealthy batch.
  // Requests 1-2: T=3, error  -> degraded T=2
  // Requests 3-4: T=2, error  -> degraded T=1
  // Requests 5-6: T=1, error  -> OPEN
  for (int i = 0; i < 6; ++i) {
    const InferResponse r = serve_one();
    EXPECT_EQ(r.status, ResponseStatus::kError) << "request " << i;
    EXPECT_EQ(r.retries, 1);
  }
  EXPECT_EQ(engine.governor().state(), BreakerState::kOpen);
  EXPECT_EQ(engine.governor().trips(), 1);
  // Open: first batch refused outright (cooldown 2), the second is the
  // probe — still corrupt, so it fails and the circuit re-opens.
  EXPECT_EQ(serve_one().status, ResponseStatus::kUnavailable);
  EXPECT_EQ(serve_one().status, ResponseStatus::kError);  // failed probe ran
  EXPECT_EQ(engine.governor().state(), BreakerState::kOpen);

  // Heal the fault; the next probe succeeds and the ladder climbs home.
  corrupt.store(false);
  EXPECT_EQ(serve_one().status, ResponseStatus::kUnavailable);  // cooldown
  const InferResponse probe = serve_one();
  EXPECT_EQ(probe.status, ResponseStatus::kDegraded);  // successful probe at T=1
  EXPECT_EQ(probe.time_steps, 1);
  // recovery_threshold = 2 healthy batches per rung: T=1 -> T=2 -> T=3.
  for (int i = 0; i < 2; ++i) EXPECT_EQ(serve_one().time_steps, 1);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(serve_one().time_steps, 2);
  const InferResponse healthy = serve_one();
  EXPECT_EQ(healthy.status, ResponseStatus::kOk);
  EXPECT_EQ(healthy.time_steps, 3);
  EXPECT_EQ(engine.governor().state(), BreakerState::kClosed);
  EXPECT_EQ(engine.governor().recoveries(), 1);
  engine.stop();

  // The transition history shows the full arc, in order.
  std::vector<BreakerState> states;
  for (const auto& t : engine.governor().history()) states.push_back(t.state);
  const std::vector<BreakerState> arc = {
      BreakerState::kDegraded, BreakerState::kOpen, BreakerState::kHalfOpen,
      BreakerState::kClosed};
  std::size_t cursor = 0;
  for (const BreakerState s : states) {
    if (cursor < arc.size() && s == arc[cursor]) ++cursor;
  }
  EXPECT_EQ(cursor, arc.size())
      << "history missing part of the degraded -> open -> half-open -> closed arc";
  const ServeStats stats = engine.stats();
  EXPECT_GT(stats.unavailable, 0);
  EXPECT_GT(stats.errors, 0);
  EXPECT_GT(stats.completed_degraded, 0);
  EXPECT_GT(stats.completed_ok, 0);
}

TEST(ServeEngineTest, WatchdogBoundsClientWaitWhenWorkerWedges) {
  ServeConfig config = base_config();
  config.request_timeout = 60ms;
  config.max_attempts = 1;
  std::atomic<bool> wedge{true};
  config.before_forward_hook = [&wedge](const std::vector<std::int64_t>&,
                                        std::int64_t, snn::SnnNetwork&) {
    if (wedge.exchange(false)) std::this_thread::sleep_for(300ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  SubmitResult result = engine.submit(class_image(0));
  ASSERT_TRUE(result.accepted);
  const auto waited_from = Clock::now();
  const InferResponse response = result.future.get();
  const auto waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            waited_from)
          .count();
  EXPECT_EQ(response.status, ResponseStatus::kTimeout);
  EXPECT_EQ(response.reason, "request exceeded hard timeout");
  // The client was released by the watchdog (within one kWatchdogPeriod of
  // the 60ms timeout) long before the worker's 300ms wedge resolved — the
  // whole point of the first-wins response slot.
  static_assert(kWatchdogPeriod < 100ms);
  EXPECT_LT(waited_ms, 250);
  engine.stop();
  EXPECT_EQ(engine.stats().timeouts, 1);
}

TEST(ServeEngineTest, ExpiredRequestIsShedBeforeExecution) {
  ServeConfig config = base_config();
  config.batcher.max_batch = 1;
  std::atomic<bool> block_first{true};
  config.before_forward_hook = [&block_first](const std::vector<std::int64_t>&,
                                              std::int64_t, snn::SnnNetwork&) {
    if (block_first.exchange(false)) std::this_thread::sleep_for(80ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  // The blocker occupies the single worker for 80ms...
  SubmitResult blocker = engine.submit(class_image(0));
  ASSERT_TRUE(blocker.accepted);
  std::this_thread::sleep_for(5ms);  // let the worker pick the blocker up
  // ...so this 10ms-deadline request expires while still queued.
  SubmitResult doomed = engine.submit(class_image(1), 10ms);
  ASSERT_TRUE(doomed.accepted);
  const InferResponse response = doomed.future.get();
  EXPECT_EQ(response.status, ResponseStatus::kExpired);
  EXPECT_EQ(response.reason, "deadline passed before execution");
  EXPECT_EQ(blocker.future.get().status, ResponseStatus::kOk);
  engine.stop();
  EXPECT_GE(engine.stats().shed_deadline, 1);
}

TEST(ServeEngineTest, StopFailsQueuedRequestsInsteadOfDroppingThem) {
  ServeConfig config = base_config();
  config.batcher.max_batch = 1;
  std::atomic<bool> block_first{true};
  config.before_forward_hook = [&block_first](const std::vector<std::int64_t>&,
                                              std::int64_t, snn::SnnNetwork&) {
    if (block_first.exchange(false)) std::this_thread::sleep_for(60ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  SubmitResult blocker = engine.submit(class_image(0));
  ASSERT_TRUE(blocker.accepted);
  std::this_thread::sleep_for(5ms);
  std::vector<ResponseFuture> queued;
  for (int i = 0; i < 4; ++i) {
    SubmitResult r = engine.submit(class_image(1));
    ASSERT_TRUE(r.accepted);
    queued.push_back(std::move(r.future));
  }
  engine.stop();  // drains the queue; every future must still resolve
  for (const ResponseFuture& future : queued) {
    const InferResponse response = future.get();
    EXPECT_EQ(response.status, ResponseStatus::kUnavailable);
    EXPECT_EQ(response.reason, "engine stopped before execution");
  }
}

}  // namespace
}  // namespace ullsnn::serve
