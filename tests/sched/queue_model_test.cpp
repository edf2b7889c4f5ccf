// Model-checking LaneQueue, the engine's admission queue: an interactive
// producer (lane 0), a batch producer (lane 1), a consumer, and a closer race
// through exhaustively enumerated interleavings; every schedule must preserve
// conservation (each accepted item is popped exactly once, rejected items
// never appear), per-producer FIFO order, per-lane capacity (a lane refuses
// only when it is itself full) and strict priority (lane 0 always pops first).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "tests/sched/sched.h"
#include "src/serve/bounded_queue.h"

namespace ullsnn::serve {
namespace {

struct QueueModel {
  // One slot per lane, so every schedule where both producers run ahead of
  // the consumer exercises a kFull refusal.
  LaneQueue<int> queue{{1, 1}};
  // Per-producer outcome logs; bodies are serialized by the scheduler, so
  // plain containers are safe as long as they are only touched between
  // decision points (always true for straight-line segment code).
  std::array<std::vector<int>, 2> accepted;
  std::array<std::vector<AdmitError>, 2> refusals;
  std::vector<int> popped;
  // Invariant breaches seen inside the bodies. No yield point separates the
  // state read from the operation it checks, so these checks are exact.
  std::vector<std::string> violations;
};

// Producer p pushes p*10+1 then p*10+2 into lane p.
std::size_t lane_of(int value) { return static_cast<std::size_t>(value / 10); }

sched::ModelRun make_queue_run() {
  auto m = std::make_shared<QueueModel>();
  sched::ModelRun run;

  for (int p = 0; p < 2; ++p) {
    run.bodies.push_back([m, p] {
      for (int v : {p * 10 + 1, p * 10 + 2}) {
        sched::yield_point("producer");
        int item = v;
        const auto lane = static_cast<std::size_t>(p);
        const AdmitError err = m->queue.try_push(std::move(item), lane);
        if (err == AdmitError::kNone) {
          m->accepted[lane].push_back(v);
          continue;
        }
        m->refusals[lane].push_back(err);
        if (err == AdmitError::kFull &&
            m->queue.lane_depth(lane) < m->queue.capacity(lane)) {
          m->violations.push_back("lane " + std::to_string(p) +
                                  " refused kFull with room left");
        }
        if (err == AdmitError::kClosed && !m->queue.closed()) {
          m->violations.push_back("kClosed before close()");
        }
      }
    });
  }
  run.bodies.push_back([m] {  // consumer
    for (int i = 0; i < 4; ++i) {
      sched::yield_point("consumer");
      const bool interactive_waiting = m->queue.lane_depth(0) > 0;
      int out = 0;
      if (!m->queue.try_pop(&out)) continue;
      m->popped.push_back(out);
      if (interactive_waiting && lane_of(out) != 0) {
        m->violations.push_back("popped batch item " + std::to_string(out) +
                                " while lane 0 held work");
      }
    }
  });
  run.bodies.push_back([m] {  // closer: races shutdown against admission
    sched::yield_point("closer");
    m->queue.close();
  });

  run.verify = [m] {
    const auto fail = [](const std::string& why) {
      throw std::runtime_error("queue invariant: " + why);
    };
    if (!m->violations.empty()) fail(m->violations.front());
    for (std::size_t lane = 0; lane < 2; ++lane) {
      if (m->queue.lane_peak_depth(lane) > m->queue.capacity(lane)) {
        fail("lane " + std::to_string(lane) + " peak depth exceeded capacity");
      }
    }
    if (!m->queue.closed()) fail("closer ran but queue is not closed");

    // Drain the remainder: close() keeps queued items poppable.
    std::vector<int> seen = m->popped;
    int out = 0;
    while (m->queue.try_pop(&out)) seen.push_back(out);
    if (m->queue.depth() != 0) fail("depth non-zero after full drain");

    // Conservation: accepted items, each exactly once, nothing else.
    std::vector<int> want;
    for (const auto& acc : m->accepted) {
      want.insert(want.end(), acc.begin(), acc.end());
    }
    std::vector<int> got = seen;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (got != want) fail("popped+drained multiset != accepted multiset");

    // Per-producer FIFO: a producer's second item never overtakes its first.
    for (int p = 0; p < 2; ++p) {
      const auto first = std::find(seen.begin(), seen.end(), p * 10 + 1);
      const auto second = std::find(seen.begin(), seen.end(), p * 10 + 2);
      if (second != seen.end() && first != seen.end() && second < first) {
        fail("producer " + std::to_string(p) + " items reordered");
      }
    }

    // Refusals are only ever kFull (lane at capacity) or kClosed (after
    // close()); the bodies checked which one was justified.
    for (const auto& refs : m->refusals) {
      for (AdmitError e : refs) {
        if (e == AdmitError::kNone) fail("kNone recorded as a refusal");
      }
    }
  };
  return run;
}

TEST(QueueModelTest, ConservationAcrossInterleavings) {
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 1500;
  const sched::ExploreStats stats = sched::explore(make_queue_run, opts);
  // 2 producers x 3 segments, consumer x 5, closer x 2: thousands of
  // interleavings; the DFS prefix alone must cover >= 1000 distinct ones.
  EXPECT_GE(stats.distinct, 1000) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct) << "DFS schedules must be distinct";
}

}  // namespace
}  // namespace ullsnn::serve
