// Open-loop load generator: log-bucketed histogram math, schedule
// determinism per seed, and the per-class conservation ledger cross-checked
// against the engine's own counters under deliberate overload.
#include "src/serve/loadgen.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/serve/engine.h"

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;

TEST(LogHistogramTest, ValidatesConfig) {
  EXPECT_THROW(LogHistogram(0.0, 1.25, 1e5), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1e-3, 1.0, 1e5), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 1.25, 10.0), std::invalid_argument);
}

TEST(LogHistogramTest, MomentsAreExactPercentilesBucketBounded) {
  LogHistogram h;
  double sum = 0.0;
  for (int v = 1; v <= 100; ++v) {
    h.record(static_cast<double>(v));
    sum += v;
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.mean(), sum / 100.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Percentiles are bucket-interpolated: with growth 1.25 the answer is
  // within one bucket (±25%) of the true value.
  EXPECT_GT(h.percentile(0.5), 50.0 * 0.75);
  EXPECT_LT(h.percentile(0.5), 50.0 * 1.25);
  EXPECT_GT(h.percentile(0.99), 99.0 * 0.75);
  EXPECT_LT(h.percentile(0.99), 99.0 * 1.25);
  EXPECT_LE(h.percentile(0.0), h.percentile(0.5));
  EXPECT_LE(h.percentile(0.5), h.percentile(1.0));
}

TEST(LogHistogramTest, EmptyHistogramReportsZeros) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(LogHistogramTest, MergeAddsAndRejectsMismatchedLayouts) {
  LogHistogram a;
  LogHistogram b;
  a.record(1.0);
  a.record(10.0);
  b.record(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.sum(), 111.0);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  LogHistogram coarse(1e-3, 2.0, 1e5);  // different bucket layout
  EXPECT_THROW(a.merge(coarse), std::invalid_argument);
}

snn::IfConfig if_config() {
  snn::IfConfig c;
  c.v_threshold = 1.0F;
  return c;
}

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

ServeConfig engine_config() {
  ServeConfig config;
  config.input_shape = {4};
  config.workers = 1;
  config.default_deadline = 250ms;
  config.request_timeout = 20000ms;
  config.retry_backoff = std::chrono::microseconds(0);
  return config;
}

LoadGenConfig load_config() {
  LoadGenConfig config;
  config.qps = 400.0;
  config.duration = 250ms;
  config.interactive_fraction = 0.75;
  config.no_deadline_fraction = 0.1;
  config.collectors = 2;
  config.seed = 0xFEED;
  config.images = {image()};
  return config;
}

TEST(LoadGenTest, ValidatesConfig) {
  LoadGenConfig bad_qps = load_config();
  bad_qps.qps = 0.0;
  EXPECT_THROW(LoadGen{bad_qps}, std::invalid_argument);
  LoadGenConfig bad_duration = load_config();
  bad_duration.duration = 0ms;
  EXPECT_THROW(LoadGen{bad_duration}, std::invalid_argument);
  LoadGenConfig bad_fraction = load_config();
  bad_fraction.interactive_fraction = 1.5;
  EXPECT_THROW(LoadGen{bad_fraction}, std::invalid_argument);
  LoadGenConfig bad_collectors = load_config();
  bad_collectors.collectors = 0;
  EXPECT_THROW(LoadGen{bad_collectors}, std::invalid_argument);
  LoadGenConfig no_images = load_config();
  no_images.images.clear();
  EXPECT_THROW(LoadGen{no_images}, std::invalid_argument);
}

TEST(LoadGenTest, ScheduleIsDeterministicPerSeed) {
  // The offered workload (arrival count + per-class split) is a pure
  // function of the config: two runs at the same seed submit identical
  // schedules, regardless of how the engine behaved underneath.
  LoadReport first;
  LoadReport second;
  {
    ServeEngine engine(engine_config(), tiny_factory());
    engine.start();
    first = LoadGen(load_config()).run(engine);
    engine.stop();
  }
  {
    ServeEngine engine(engine_config(), tiny_factory());
    engine.start();
    second = LoadGen(load_config()).run(engine);
    engine.stop();
  }
  EXPECT_GT(first.submitted(), 0);
  EXPECT_EQ(first.submitted(), second.submitted());
  EXPECT_EQ(first.cls(Priority::kInteractive).submitted,
            second.cls(Priority::kInteractive).submitted);
  EXPECT_EQ(first.cls(Priority::kBatch).submitted,
            second.cls(Priority::kBatch).submitted);
  EXPECT_TRUE(first.conserved());
  EXPECT_TRUE(second.conserved());
}

TEST(LoadGenTest, ConservationMatchesEngineLedgerUnderOverload) {
  // Deliberate overload: tiny lanes, a slow forward, and short deadlines so
  // every outcome class (fulfilled / rejected / shed / failed) is plausible.
  // The generator's per-class ledger and the engine's ServeStats must agree
  // exactly — no request may be double-counted or lost between the two.
  ServeConfig config = engine_config();
  config.queue_capacity = 16;
  config.batch_queue_capacity = 8;
  config.before_forward_hook = [](const std::vector<std::int64_t>&,
                                  std::int64_t, snn::SnnNetwork&) {
    std::this_thread::sleep_for(3ms);
  };
  ServeEngine engine(config, tiny_factory());
  engine.start();

  LoadGenConfig load = load_config();
  load.qps = 1200.0;
  load.duration = 300ms;
  load.interactive_deadline = {10ms, 30ms};
  load.batch_deadline = {40ms, 80ms};
  const LoadReport report = LoadGen(load).run(engine);
  engine.stop();

  EXPECT_GT(report.submitted(), 0);
  EXPECT_TRUE(report.conserved());
  EXPECT_GE(report.wall_seconds, 0.25);
  EXPECT_GE(report.max_submit_lag_ms, 0.0);

  const ClassLoadStats& ia = report.cls(Priority::kInteractive);
  const ClassLoadStats& ba = report.cls(Priority::kBatch);
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, report.submitted());
  EXPECT_EQ(stats.accepted, ia.accepted + ba.accepted);
  EXPECT_EQ(stats.rejected, ia.rejected + ba.rejected);
  EXPECT_EQ(stats.shed_admission, ia.shed_admission + ba.shed_admission);
  EXPECT_EQ(stats.completed_ok + stats.completed_degraded, report.fulfilled());
  EXPECT_EQ(stats.shed_deadline + stats.shed_load, ia.shed + ba.shed);
  EXPECT_EQ(stats.unavailable + stats.timeouts + stats.errors, report.failed());
  // Engine-side ledger holds too.
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected + stats.shed_admission);
  EXPECT_EQ(stats.accepted, stats.completed_ok + stats.completed_degraded +
                                stats.shed_deadline + stats.shed_load +
                                stats.unavailable + stats.timeouts + stats.errors);
}

}  // namespace
}  // namespace ullsnn::serve
