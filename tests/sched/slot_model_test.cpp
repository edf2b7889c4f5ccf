// Model-checking ResponseSlot first-wins fulfillment: worker, watchdog, and
// batcher race to complete the same request under every interleaving —
// exactly one may win, on_first runs exactly once, and every observer
// (polling or blocking) sees the winner's response and nothing else.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "tests/sched/sched.h"
#include "src/serve/request.h"

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;

struct SlotModel {
  ResponseSlot slot{42, Clock::now(), Clock::now() + 1h};
  int on_first_calls = 0;
  std::vector<ResponseStatus> wins;      // statuses whose fulfill() won
  std::vector<ResponseStatus> observed;  // what the poller saw while racing
};

sched::ModelRun make_slot_run() {
  auto m = std::make_shared<SlotModel>();
  sched::ModelRun run;

  // The three parties that race in the real engine: the worker that ran the
  // batch, the watchdog that timed it out, the batcher that shed it.
  const ResponseStatus contenders[] = {
      ResponseStatus::kOk, ResponseStatus::kTimeout, ResponseStatus::kExpired};
  for (const ResponseStatus status : contenders) {
    run.bodies.push_back([m, status] {
      sched::yield_point("fulfill");
      InferResponse r;
      r.status = status;
      r.id = 42;
      const bool won =
          m->slot.fulfill(std::move(r), [m] { ++m->on_first_calls; });
      sched::yield_point("after-fulfill");
      if (won) m->wins.push_back(status);
    });
  }
  run.bodies.push_back([m] {  // client polling mid-race
    for (int i = 0; i < 2; ++i) {
      sched::yield_point("poll");
      InferResponse out;
      if (m->slot.wait_for(0ms, &out)) m->observed.push_back(out.status);
    }
  });

  run.verify = [m] {
    const auto fail = [](const std::string& why) {
      throw std::runtime_error("slot invariant: " + why);
    };
    if (m->wins.size() != 1) {
      fail(std::to_string(m->wins.size()) + " fulfillments won");
    }
    if (m->on_first_calls != 1) {
      fail("on_first ran " + std::to_string(m->on_first_calls) + " times");
    }
    if (!m->slot.done()) fail("slot not done after all fulfillers finished");
    // wait() after completion is non-blocking and must return the winner.
    if (m->slot.wait().status != m->wins[0]) {
      fail("stored response is not the winning fulfillment");
    }
    // A poll that observed completion must have seen the winner — a loser's
    // response is discarded, never visible, not even transiently.
    for (const ResponseStatus s : m->observed) {
      if (s != m->wins[0]) fail("poller observed a losing response");
    }
  };
  return run;
}

TEST(SlotModelTest, FirstWinsAcrossInterleavings) {
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 1500;
  const sched::ExploreStats stats = sched::explore(make_slot_run, opts);
  // 3 fulfillers x 3 segments + poller x 3 = 12 steps: 369600 interleavings.
  EXPECT_GE(stats.distinct, 1000) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct);
}

/// Shed-vs-fulfill conservation: the engine's count_terminal() runs inside
/// the winning fulfillment's critical section (the on_first callback), so
/// across any race between a worker's kOk, the batcher's CoDel kShed, and
/// the watchdog's kTimeout, exactly one terminal counter moves — and it is
/// the one matching the response the client actually receives.
struct LedgerModel {
  ResponseSlot slot{7, Clock::now(), Clock::now() + 1h};
  int counted[3] = {0, 0, 0};  // per-contender terminal tallies
  std::vector<ResponseStatus> wins;
};

sched::ModelRun make_ledger_run() {
  auto m = std::make_shared<LedgerModel>();
  sched::ModelRun run;

  const ResponseStatus contenders[] = {
      ResponseStatus::kOk, ResponseStatus::kShed, ResponseStatus::kTimeout};
  for (int c = 0; c < 3; ++c) {
    const ResponseStatus status = contenders[c];
    run.bodies.push_back([m, c, status] {
      sched::yield_point("fulfill");
      InferResponse r;
      r.status = status;
      r.id = 7;
      const bool won = m->slot.fulfill(std::move(r), [m, c] { ++m->counted[c]; });
      sched::yield_point("after-fulfill");
      if (won) m->wins.push_back(status);
    });
  }

  run.verify = [m] {
    const auto fail = [](const std::string& why) {
      throw std::runtime_error("ledger invariant: " + why);
    };
    if (m->wins.size() != 1) {
      fail(std::to_string(m->wins.size()) + " fulfillments won");
    }
    const int total = m->counted[0] + m->counted[1] + m->counted[2];
    if (total != 1) {
      fail("terminal counters moved " + std::to_string(total) + " times");
    }
    // The counter that moved must belong to the winning status — a loser
    // counting (then losing the race) is exactly the conservation hole
    // count_terminal-inside-on_first closes.
    const ResponseStatus contenders[] = {
        ResponseStatus::kOk, ResponseStatus::kShed, ResponseStatus::kTimeout};
    for (int c = 0; c < 3; ++c) {
      if (m->counted[c] == 1 && contenders[c] != m->wins[0]) {
        fail("a losing fulfillment was counted");
      }
    }
    if (m->slot.wait().status != m->wins[0]) {
      fail("client response is not the counted outcome");
    }
  };
  return run;
}

TEST(SlotModelTest, ShedVsFulfillRaceCountsExactlyOneTerminal) {
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 500;
  const sched::ExploreStats stats = sched::explore(make_ledger_run, opts);
  // 3 fulfillers x 3 segments = 9 steps: 1680 interleavings; sampling floor.
  EXPECT_GE(stats.distinct, 300) << "runs=" << stats.runs;
  EXPECT_EQ(stats.runs, stats.distinct);
}

}  // namespace
}  // namespace ullsnn::serve
