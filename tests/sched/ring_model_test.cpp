// Model-checking the flight-recorder Ring through the ULLSNN_TEST_POINT
// markers compiled into push() and snapshot() themselves (hook_test_points):
// the scheduler preempts producers in the window between ticket reservation
// and slot acquisition — the exact window where wrap overwrites and
// snapshot-under-write races live. Invariants: snapshots never return a torn
// or invented record, never duplicate one, and (absent wrap) lose nothing
// and preserve ticket order.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/obs/ring.h"
#include "tests/sched/sched.h"

namespace ullsnn::obs {
namespace {

// Producer p pushes {p*10+1, p*10+2}: globally unique, never zero (slots are
// zero-initialized, so a torn/unwritten read is distinguishable).
constexpr int kValid[] = {1, 2, 11, 12};

bool valid_value(int v) {
  return std::find(std::begin(kValid), std::end(kValid), v) != std::end(kValid);
}

void check_well_formed(const std::vector<int>& snap, const char* which) {
  std::set<int> uniq;
  for (int v : snap) {
    if (!valid_value(v)) {
      throw std::runtime_error(std::string(which) +
                               " snapshot returned torn/unwritten value " +
                               std::to_string(v));
    }
    if (!uniq.insert(v).second) {
      throw std::runtime_error(std::string(which) +
                               " snapshot duplicated value " +
                               std::to_string(v));
    }
  }
  // Per-producer ticket order: p's first push has the smaller ticket, and
  // snapshot walks tickets in ascending order.
  for (int p = 0; p < 2; ++p) {
    const auto first = std::find(snap.begin(), snap.end(), p * 10 + 1);
    const auto second = std::find(snap.begin(), snap.end(), p * 10 + 2);
    if (first != snap.end() && second != snap.end() && second < first) {
      throw std::runtime_error(std::string(which) +
                               " snapshot reordered a producer's records");
    }
  }
}

struct RingModel {
  explicit RingModel(std::size_t cap) : ring(cap) {}
  Ring<int> ring;
  std::vector<int> live;  // snapshot taken concurrently with the pushes
};

/// Two producers x two pushes plus a concurrent snapshotter. No explicit
/// yields in the producers: the "ring.push" test point inside Ring::push is
/// the decision point, sitting between fetch_add and test_and_set.
sched::ModelRun make_ring_run(std::size_t capacity, bool expect_no_loss) {
  auto m = std::make_shared<RingModel>(capacity);
  sched::ModelRun run;
  for (int p = 0; p < 2; ++p) {
    run.bodies.push_back([m, p] {
      m->ring.push(p * 10 + 1);
      m->ring.push(p * 10 + 2);
    });
  }
  run.bodies.push_back([m] {  // concurrent best-effort reader
    sched::yield_point("pre-snapshot");
    m->live = m->ring.snapshot();
  });
  run.verify = [m, expect_no_loss] {
    if (m->ring.total_pushed() != 4) {
      throw std::runtime_error("total_pushed != 4");
    }
    check_well_formed(m->live, "concurrent");
    // Post-quiescence snapshot (hook uninstalled by now; the test points are
    // inert again).
    const std::vector<int> final_snap = m->ring.snapshot();
    check_well_formed(final_snap, "final");
    if (final_snap.size() > m->ring.capacity()) {
      throw std::runtime_error("snapshot larger than capacity");
    }
    if (expect_no_loss && final_snap.size() != 4) {
      throw std::runtime_error("no-wrap final snapshot lost a record");
    }
  };
  return run;
}

TEST(RingModelTest, NoWrapLosesNothingAcrossInterleavings) {
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 1500;
  opts.hook_test_points = true;
  const sched::ExploreStats stats = sched::explore(
      [] { return make_ring_run(/*capacity=*/4, /*expect_no_loss=*/true); },
      opts);
  EXPECT_GE(stats.distinct, 1000) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct);
}

TEST(RingModelTest, WrapOverwritesSkipNeverTear) {
  // Capacity 2 with 4 pushes: producers collide on the same slot one lap
  // apart — the race the per-slot busy flag exists for. A record overwritten
  // by a newer ticket (or clobbered by a stale straggler that parked between
  // ticket reservation and slot write) is skipped by the ticket check; it
  // must never surface torn or duplicated. Loss is allowed by design here.
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 1500;
  opts.hook_test_points = true;
  const sched::ExploreStats stats = sched::explore(
      [] { return make_ring_run(/*capacity=*/2, /*expect_no_loss=*/false); },
      opts);
  EXPECT_GE(stats.distinct, 1000) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct);
}

}  // namespace
}  // namespace ullsnn::obs
