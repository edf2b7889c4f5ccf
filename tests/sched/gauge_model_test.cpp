// Model-checking Gauge::add (the atomic_add_double CAS loop) through the
// "gauge.cas" test point between the expected-value read and the
// compare_exchange — the window where a concurrent add forces a retry. The
// sum must come out exact under every interleaving (no lost update), CAS
// retries must terminate, and a concurrent reader must observe a monotone
// sequence of partial sums.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "src/obs/metrics.h"
#include "tests/sched/sched.h"

namespace ullsnn::obs {
namespace {

struct GaugeModel {
  Gauge gauge;
  std::vector<double> reads;
};

sched::ModelRun make_gauge_run() {
  auto m = std::make_shared<GaugeModel>();
  sched::ModelRun run;
  // Distinct powers of two per adder: every partial sum is a distinct
  // integer, and double arithmetic on them is exact.
  for (const double delta : {1.0, 2.0, 4.0}) {
    run.bodies.push_back([m, delta] {
      m->gauge.add(delta);
      m->gauge.add(delta);
    });
  }
  run.bodies.push_back([m] {  // concurrent reader
    for (int i = 0; i < 2; ++i) {
      sched::yield_point("read");
      m->reads.push_back(m->gauge.value());
    }
  });
  run.verify = [m] {
    // No lost update, ever: 2*(1+2+4) exactly.
    if (m->gauge.value() != 14.0) {
      throw std::runtime_error("lost update: gauge == " +
                               std::to_string(m->gauge.value()));
    }
    double prev = -1.0;
    for (const double r : m->reads) {
      if (r < 0.0 || r > 14.0 || r != std::floor(r)) {
        throw std::runtime_error("reader saw impossible partial sum " +
                                 std::to_string(r));
      }
      if (r < prev) {
        throw std::runtime_error("adds are all positive but reads regressed");
      }
      prev = r;
    }
  };
  return run;
}

TEST(GaugeModelTest, NoLostUpdatesAcrossInterleavings) {
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 1500;
  opts.hook_test_points = true;  // park inside the CAS window itself
  const sched::ExploreStats stats = sched::explore(make_gauge_run, opts);
  EXPECT_GE(stats.distinct, 1000) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct);
}

}  // namespace
}  // namespace ullsnn::obs
