// Self-checks of the deterministic interleaving explorer: schedule string
// round-trips, determinism (same forced prefix => same interleaving), DFS
// distinctness, the wedged-body watchdog, and the core workflow the suite
// exists for — a seeded bug whose failing schedule replays from its string.
#include "tests/sched/sched.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

namespace ullsnn::sched {
namespace {

TEST(ScheduleStringTest, FormatParseRoundTrip) {
  const std::vector<int> choices = {0, 2, 1, 0, 3};
  const std::string s = format_schedule(choices);
  EXPECT_EQ(s, "0.2.1.0.3");
  EXPECT_EQ(parse_schedule(s), choices);
  EXPECT_TRUE(format_schedule({}).empty());
  EXPECT_TRUE(parse_schedule("").empty());
  EXPECT_THROW(parse_schedule("0..1"), std::invalid_argument);
}

TEST(SplitMixTest, DeterministicStream) {
  std::uint64_t a = 42;
  std::uint64_t b = 42;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(splitmix64(a), splitmix64(b));
  }
  std::uint64_t c = 43;
  EXPECT_NE(splitmix64(c), [] {
    std::uint64_t d = 42;
    return splitmix64(d);
  }());
}

/// Two threads each append their id twice, yielding before every append.
/// The appended sequence is a pure function of the schedule.
struct AppendModel {
  std::shared_ptr<std::vector<int>> log = std::make_shared<std::vector<int>>();
  std::shared_ptr<std::mutex> mu = std::make_shared<std::mutex>();

  std::vector<std::function<void()>> bodies() {
    std::vector<std::function<void()>> out;
    for (int id = 0; id < 2; ++id) {
      out.push_back([log = log, mu = mu, id] {
        for (int i = 0; i < 2; ++i) {
          yield_point("append");
          std::lock_guard<std::mutex> lock(*mu);
          log->push_back(id);
        }
      });
    }
    return out;
  }
};

TEST(SchedulerTest, SameScheduleSameInterleaving) {
  AppendModel first;
  RunOptions opts;
  opts.random_fallback = true;
  opts.seed = 7;
  const RunResult r1 = Scheduler::run(first.bodies(), opts);
  ASSERT_TRUE(r1.completed);

  AppendModel second;
  RunOptions replay_opts;
  replay_opts.forced = r1.choices;
  const RunResult r2 = Scheduler::run(second.bodies(), replay_opts);
  ASSERT_TRUE(r2.completed);

  EXPECT_EQ(r1.schedule, r2.schedule);
  EXPECT_EQ(*first.log, *second.log) << "schedule " << r1.schedule
                                     << " must determine the interleaving";
}

TEST(SchedulerTest, LeftmostScheduleRunsThreadsInOrder) {
  AppendModel model;
  const RunResult r = Scheduler::run(model.bodies(), {});
  ASSERT_TRUE(r.completed);
  // Leftmost always picks runnable thread 0 first: thread 0 finishes both
  // appends before thread 1 runs at all.
  EXPECT_EQ(*model.log, (std::vector<int>{0, 0, 1, 1}));
  for (int c : r.choices) EXPECT_EQ(c, 0);
}

TEST(ExploreTest, ExhaustsSmallTreeWithDistinctSchedules) {
  // 2 threads x 3 segments each: C(6,3)^... = 6!/(3!*3!) = 20 interleavings.
  std::int64_t total_appends = 0;
  const auto make = [&] {
    auto model = std::make_shared<AppendModel>();
    ModelRun run;
    run.bodies = model->bodies();
    run.verify = [model, &total_appends] {
      if (model->log->size() != 4) throw std::runtime_error("lost append");
      total_appends += static_cast<std::int64_t>(model->log->size());
    };
    return run;
  };
  const ExploreStats stats = explore(make, {});
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.runs, stats.distinct) << "DFS must never repeat a schedule";
  // Interleavings of two 2-segment threads... each body has 2 yield points,
  // so segments per thread = 2 (yield starts a segment) + the start grant.
  EXPECT_GE(stats.distinct, 6);
  EXPECT_EQ(total_appends, stats.runs * 4);
}

TEST(ExploreTest, RandomTailAddsRunsWithoutFailures) {
  const auto make = [] {
    auto model = std::make_shared<AppendModel>();
    ModelRun run;
    run.bodies = model->bodies();
    run.verify = [model] {
      if (model->log->size() != 4) throw std::runtime_error("lost append");
    };
    return run;
  };
  ExploreOptions opts;
  opts.max_exhaustive_runs = 5;  // deliberately smaller than the tree
  opts.random_runs = 10;
  const ExploreStats stats = explore(make, opts);
  EXPECT_FALSE(stats.exhausted);
  EXPECT_EQ(stats.runs, 15);
  EXPECT_GE(stats.distinct, 5);
}

/// The reason this harness exists: a deliberately racy counter (read, yield,
/// write back — the classic lost update). Exploration must find a failing
/// interleaving, report its schedule, and the schedule alone must reproduce
/// the exact failure on a fresh instance.
struct RacyCounterModel {
  std::shared_ptr<int> value = std::make_shared<int>(0);

  ModelRun run() {
    ModelRun r;
    for (int t = 0; t < 2; ++t) {
      r.bodies.push_back([value = value] {
        yield_point("load");
        const int seen = *value;  // racy read
        yield_point("store");
        *value = seen + 1;  // racy read-modify-write
      });
    }
    r.verify = [value = value] {
      if (*value != 2) {
        throw std::runtime_error("lost update: counter == " +
                                 std::to_string(*value));
      }
    };
    return r;
  }
};

TEST(ExploreTest, FindsSeededRaceAndReportsSchedule) {
  std::string failing_schedule;
  try {
    explore([] { return RacyCounterModel{}.run(); }, {});
    FAIL() << "exploration must find the lost update";
  } catch (const ScheduleFailure& e) {
    failing_schedule = e.schedule();
    EXPECT_NE(std::string(e.what()).find("lost update"), std::string::npos);
  }
  ASSERT_FALSE(failing_schedule.empty());

  // The printed schedule is a deterministic reproduction...
  try {
    replay(RacyCounterModel{}.run(), failing_schedule);
    FAIL() << "replaying the failing schedule must reproduce the failure";
  } catch (const ScheduleFailure& e) {
    EXPECT_EQ(e.schedule(), failing_schedule);
    EXPECT_NE(std::string(e.what()).find("lost update"), std::string::npos);
  }

  // ...while a serial schedule (leftmost: thread 0 runs to completion first)
  // passes on the same model.
  EXPECT_NO_THROW(replay(RacyCounterModel{}.run(), "0.0.0.0.0.0"));
}

TEST(SchedulerTest, WedgedBodyIsDiagnosedNotHung) {
  // A body that blocks on a condition variable nobody signals violates the
  // non-blocking model rule; the watchdog must abort the run with a
  // diagnostic instead of hanging the suite.
  auto mu = std::make_shared<std::mutex>();
  auto cv = std::make_shared<std::condition_variable>();
  auto release = std::make_shared<bool>(false);
  std::vector<std::function<void()>> bodies;
  bodies.push_back([=] {
    std::unique_lock<std::mutex> lock(*mu);
    cv->wait(lock, [&] { return *release; });
  });
  // Thread 1 is the rescuer: it only runs during free-run teardown (the
  // leftmost scheduler wedges on thread 0 first), and unblocks thread 0 so
  // Scheduler::run can join both threads and return.
  bodies.push_back([=] {
    yield_point("rescue");
    {
      std::lock_guard<std::mutex> lock(*mu);
      *release = true;
    }
    cv->notify_all();
  });

  RunOptions opts;
  opts.grant_timeout = std::chrono::milliseconds(200);
  const RunResult r = Scheduler::run(std::move(bodies), opts);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("decision point"), std::string::npos);
}

TEST(SchedulerTest, TestPointHookRoutesOnlyWhenEnabled) {
  // With hooks off, ULLSNN_TEST_POINT must not create decision points.
  auto count_steps = [](bool hook) {
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < 2; ++t) {
      bodies.push_back([] { ULLSNN_TEST_POINT("probe"); });
    }
    RunOptions opts;
    opts.hook_test_points = hook;
    const RunResult r = Scheduler::run(std::move(bodies), opts);
    EXPECT_TRUE(r.completed);
    return r.choices.size();
  };
  const std::size_t with_hook = count_steps(true);
  const std::size_t without_hook = count_steps(false);
  EXPECT_GT(with_hook, without_hook);
  EXPECT_EQ(g_test_point.load(), nullptr) << "hook must be uninstalled";
}

}  // namespace
}  // namespace ullsnn::sched
