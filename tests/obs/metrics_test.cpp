#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace ullsnn::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Gauge, SetAddAndReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsSamplesByUpperBound) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive upper bound)
  h.observe(5.0);    // <= 10
  h.observe(1000.0); // overflow
  const std::vector<std::int64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4U);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[2], 0);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 1000.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, SameNameSameInstrument) {
  Registry& reg = Registry::instance();
  Counter& a = reg.counter("test.registry.same");
  Counter& b = reg.counter("test.registry.same");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.add(7);
  EXPECT_EQ(b.value(), 7);
}

TEST(Registry, SnapshotContainsRegisteredInstruments) {
  Registry& reg = Registry::instance();
  reg.counter("test.snapshot.counter").add(3);
  reg.gauge("test.snapshot.gauge").set(1.25);
  reg.histogram("test.snapshot.hist").observe(0.5);
  const MetricsSnapshot snap = reg.snapshot();
  bool found_counter = false, found_gauge = false, found_hist = false;
  for (const auto& c : snap.counters) {
    if (c.name == "test.snapshot.counter") {
      found_counter = true;
      EXPECT_GE(c.value, 3);
    }
  }
  for (const auto& g : snap.gauges) {
    if (g.name == "test.snapshot.gauge") {
      found_gauge = true;
      EXPECT_DOUBLE_EQ(g.value, 1.25);
    }
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "test.snapshot.hist") {
      found_hist = true;
      EXPECT_EQ(h.counts.size(), h.bounds.size() + 1);
    }
  }
  EXPECT_TRUE(found_counter);
  EXPECT_TRUE(found_gauge);
  EXPECT_TRUE(found_hist);
}

TEST(Registry, ConcurrentAddsAreLossless) {
  Counter& c = Registry::instance().counter("test.registry.concurrent");
  c.reset();
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kAdds);
}

TEST(Registry, ConcurrentRegistrationAndUpdatesAreExact) {
  // Hammer the registry the way the serving engine does: every thread
  // resolves instruments BY NAME on every iteration (registration mutex and
  // instrument update racing together), spread across several counters, a
  // shared gauge, and a histogram. Totals must come out exact — lock-free
  // updates may not lose a single increment.
  Registry& reg = Registry::instance();
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  constexpr int kCounters = 4;
  for (int k = 0; k < kCounters; ++k) {
    reg.counter("test.hammer.c" + std::to_string(k)).reset();
  }
  Histogram& hist = reg.histogram("test.hammer.hist");
  hist.reset();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        const int k = (t + i) % kCounters;
        reg.counter("test.hammer.c" + std::to_string(k)).add(1);
        reg.histogram("test.hammer.hist").observe(static_cast<double>(i % 7));
        reg.gauge("test.hammer.gauge").set(static_cast<double>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  std::int64_t counter_total = 0;
  for (int k = 0; k < kCounters; ++k) {
    counter_total += reg.counter("test.hammer.c" + std::to_string(k)).value();
  }
  EXPECT_EQ(counter_total, static_cast<std::int64_t>(kThreads) * kIters);
  EXPECT_EQ(hist.count(), static_cast<std::int64_t>(kThreads) * kIters);
  std::int64_t bucket_total = 0;
  for (const std::int64_t b : hist.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, hist.count());
  // The gauge holds some thread's last write, not garbage.
  const double g = reg.gauge("test.hammer.gauge").value();
  EXPECT_GE(g, 0.0);
  EXPECT_LT(g, static_cast<double>(kThreads));
}

TEST(MetricsMacros, CompileAndUpdateWhenEnabled) {
  Counter& c = Registry::instance().counter("test.macro.counter");
  c.reset();
  ULLSNN_COUNTER_ADD("test.macro.counter", 5);
  ULLSNN_GAUGE_SET("test.macro.gauge", 9.0);
  ULLSNN_HISTOGRAM_OBSERVE("test.macro.hist", 0.01);
  EXPECT_EQ(c.value(), 5);
  EXPECT_DOUBLE_EQ(Registry::instance().gauge("test.macro.gauge").value(), 9.0);
}

TEST(MetricsExport, CsvRoundTripsNamesAndValues) {
  Registry& reg = Registry::instance();
  reg.counter("test.csv.counter").reset();
  reg.counter("test.csv.counter").add(11);
  reg.gauge("test.csv.gauge").set(0.5);
  const std::string path = "metrics_test_out.csv";
  write_metrics_csv(reg.snapshot(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("kind,name,value,count,sum,buckets"), std::string::npos);
  EXPECT_NE(text.find("counter,test.csv.counter,11"), std::string::npos);
  EXPECT_NE(text.find("gauge,test.csv.gauge,0.5"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(MetricsExport, JsonlOneObjectPerLine) {
  Registry& reg = Registry::instance();
  reg.counter("test.jsonl.counter").add(1);
  const std::string path = "metrics_test_out.jsonl";
  write_metrics_jsonl(reg.snapshot(), path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  bool found = false;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("test.jsonl.counter") != std::string::npos) found = true;
  }
  EXPECT_GE(lines, 1U);
  EXPECT_TRUE(found);
  std::filesystem::remove(path);
}

TEST(MetricsExport, ResetValuesKeepsRegistrations) {
  Registry& reg = Registry::instance();
  Counter& c = reg.counter("test.reset.counter");
  c.add(9);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0);
  // Same reference still registered and usable.
  c.add(2);
  EXPECT_EQ(reg.counter("test.reset.counter").value(), 2);
}

}  // namespace
}  // namespace ullsnn::obs
