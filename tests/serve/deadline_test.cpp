// Deadline propagation edge cases: shed at admission when already expired,
// shed in the dequeue -> dispatch window, "zero deadline = no deadline" is
// never shed, CoDel load shedding is typed kShed, and the conservation
// ledger balances under every mix of outcomes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/serve/engine.h"

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;

snn::IfConfig if_config() {
  snn::IfConfig c;
  c.v_threshold = 1.0F;
  return c;
}

/// 4 -> 2 spiking net with known predictions (same shape as engine_test's).
NetworkFactory tiny_factory() {
  return [] {
    auto net = std::make_unique<snn::SnnNetwork>(3);
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

Tensor image() {
  Tensor t({4});
  t[0] = 1.5F;
  t[1] = 1.5F;
  return t;
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

/// The two ledger equations every test below re-asserts.
void expect_conserved(const ServeStats& s) {
  EXPECT_EQ(s.submitted, s.accepted + s.rejected + s.shed_admission);
  EXPECT_EQ(s.accepted, s.completed_ok + s.completed_degraded +
                            s.shed_deadline + s.shed_load + s.unavailable +
                            s.timeouts + s.errors);
}

TEST(DeadlineTest, AlreadyExpiredAbsoluteDeadlineShedsAtAdmission) {
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  SubmitOptions options;
  options.absolute_deadline = Clock::now() - 1s;
  const SubmitResult result = engine.submit(image(), options);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.response.status, ResponseStatus::kExpired);
  EXPECT_EQ(result.response.reason, "deadline already expired at admission");
  EXPECT_TRUE(is_shed(result.response.status));
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.shed_admission, 1);
  EXPECT_EQ(stats.accepted, 0);
  EXPECT_EQ(stats.rejected, 0);  // typed shed, not a silent rejection
  expect_conserved(stats);
}

TEST(DeadlineTest, AbsoluteDeadlineWinsOverRelative) {
  ServeEngine engine(base_config(), tiny_factory());
  engine.start();
  SubmitOptions options;
  options.deadline = 10000ms;                         // generous relative...
  options.absolute_deadline = Clock::now() - 10ms;    // ...but absolute is past
  const SubmitResult result = engine.submit(image(), options);
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(result.response.status, ResponseStatus::kExpired);
  engine.stop();
  EXPECT_EQ(engine.stats().shed_admission, 1);
}

TEST(DeadlineTest, ExpiryBetweenDequeueAndDispatchIsShedTyped) {
  ServeConfig config = base_config();
  // The request leaves the queue immediately (idle worker), then the
  // dispatch hook stalls the batch past its deadline: only the pre-dispatch
  // re-check can catch it.
  std::atomic<std::int64_t> hook_calls{0};
  config.before_dispatch_hook = [&hook_calls](const std::vector<std::int64_t>&) {
    if (hook_calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(300ms);
    }
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  const SubmitResult result = engine.submit(image(), 150ms);
  ASSERT_TRUE(result.accepted);
  const InferResponse response = result.future.get();
  EXPECT_EQ(response.status, ResponseStatus::kExpired);
  EXPECT_EQ(response.reason, "deadline passed before dispatch");
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.shed_deadline, 1);
  EXPECT_EQ(stats.completed_ok, 0);
  expect_conserved(stats);
}

TEST(DeadlineTest, ZeroDeadlineMeansNoDeadlineAndIsNeverShed) {
  ServeConfig config = base_config();
  // Stall dispatch far beyond any plausible deadline: a no-deadline request
  // must still be served, never shed.
  std::atomic<std::int64_t> hook_calls{0};
  config.before_dispatch_hook = [&hook_calls](const std::vector<std::int64_t>&) {
    if (hook_calls.fetch_add(1) == 0) {
      std::this_thread::sleep_for(200ms);
    }
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  const SubmitResult result = engine.submit(image(), 0ms);
  ASSERT_TRUE(result.accepted);
  const InferResponse response = result.future.get();
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.shed_deadline, 0);
  EXPECT_EQ(stats.shed_admission, 0);
  EXPECT_EQ(stats.completed_ok, 1);
  expect_conserved(stats);
}

TEST(DeadlineTest, CoDelShedIsTypedKShed) {
  ServeConfig config = base_config();
  config.queue_capacity = 64;
  config.batch_queue_capacity = 64;
  config.batcher.max_batch = 1;
  // Aggressive CoDel (1ms standing sojourn tolerated for 5ms) + a 10ms
  // forward stall per batch: a burst of 40 requests forms a standing backlog
  // within a few batches, so load shedding must engage.
  config.codel.target = 1ms;
  config.codel.interval = 5ms;
  config.codel.interactive_target_factor = 1.0;
  config.before_forward_hook = [](const std::vector<std::int64_t>&,
                                  std::int64_t, snn::SnnNetwork&) {
    std::this_thread::sleep_for(10ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 40; ++i) {
    const SubmitResult result = engine.submit(image(), 10000ms);
    ASSERT_TRUE(result.accepted);
    futures.push_back(std::move(result.future));
  }
  std::int64_t shed = 0;
  for (const ResponseFuture& f : futures) {
    const InferResponse response = f.get();
    if (response.status == ResponseStatus::kShed) {
      ++shed;
      EXPECT_TRUE(is_shed(response.status));
      EXPECT_NE(response.reason.find("load shed"), std::string::npos);
    }
  }
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_GT(shed, 0) << "standing backlog never triggered CoDel shedding";
  EXPECT_EQ(stats.shed_load, shed);
  EXPECT_GT(stats.completed_ok, 0) << "CoDel must shed some, not all";
  expect_conserved(stats);
  EXPECT_GT(engine.codel().shed_count(Priority::kInteractive), 0);
}

TEST(DeadlineTest, MixedDeadlineTrafficConservesExactly) {
  ServeConfig config = base_config();
  config.queue_capacity = 8;
  config.batch_queue_capacity = 4;
  config.batcher.max_batch = 4;
  config.before_forward_hook = [](const std::vector<std::int64_t>&,
                                  std::int64_t, snn::SnnNetwork&) {
    std::this_thread::sleep_for(2ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();
  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 200; ++i) {
    SubmitOptions options;
    options.priority = i % 4 == 0 ? Priority::kBatch : Priority::kInteractive;
    switch (i % 5) {
      case 0: options.deadline = 0ms; break;                      // no deadline
      case 1: options.deadline = 1ms; break;                      // hopeless
      case 2: options.absolute_deadline = Clock::now() - 1ms; break;  // expired
      case 3: options.deadline = 50ms; break;
      default: options.deadline = -1ms; break;                    // default
    }
    SubmitResult result = engine.submit(image(), options);
    if (result.accepted) {
      futures.push_back(std::move(result.future));
    } else {
      // Refusals must be typed: an admission shed is kExpired, a full lane
      // is kRejected — nothing disappears.
      EXPECT_TRUE(result.response.status == ResponseStatus::kExpired ||
                  result.response.status == ResponseStatus::kRejected);
    }
  }
  for (const ResponseFuture& f : futures) f.get();
  engine.stop();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 200);
  EXPECT_GE(stats.shed_admission, 40);  // every i % 5 == 2 at minimum
  expect_conserved(stats);
}

}  // namespace
}  // namespace ullsnn::serve
