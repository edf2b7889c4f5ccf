#include "tests/sched/sched.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

namespace ullsnn::sched {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string format_schedule(const std::vector<int>& choices) {
  std::string out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string(choices[i]);
  }
  return out;
}

std::vector<int> parse_schedule(const std::string& schedule) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < schedule.size()) {
    std::size_t end = schedule.find('.', pos);
    if (end == std::string::npos) end = schedule.size();
    if (end == pos) {
      throw std::invalid_argument("parse_schedule: empty component in \"" +
                                  schedule + "\"");
    }
    out.push_back(std::stoi(schedule.substr(pos, end - pos)));
    pos = end + 1;
  }
  return out;
}

ScheduleFailure::ScheduleFailure(std::string schedule, const std::string& what)
    : std::runtime_error("[schedule " + schedule + "] " + what),
      schedule_(std::move(schedule)) {}

namespace {

constexpr int kSchedulerTurn = -1;

/// Shared handoff state for one run. Raw std::mutex on purpose: this is the
/// checker's own machinery, beneath the level the annotations describe, and
/// it must not recurse into any instrumented primitive.
struct RunState {
  std::mutex m;
  std::condition_variable cv;
  int current = kSchedulerTurn;  // whose turn it is (thread id or scheduler)
  std::vector<char> ready;       // thread reached its start barrier
  std::vector<char> done;        // thread finished its body
  // free_run: scheduling is over (abort or teardown); decision points stop
  // parking so every thread can run to completion and be joined.
  bool free_run = false;

  explicit RunState(std::size_t n) : ready(n, 0), done(n, 0) {}

  /// Park the calling thread until the scheduler grants it the next step.
  void yield(int id) {
    std::unique_lock<std::mutex> lock(m);
    if (free_run) return;
    current = kSchedulerTurn;
    cv.notify_all();
    cv.wait(lock, [&] { return current == id || free_run; });
  }
};

thread_local RunState* tls_state = nullptr;
thread_local int tls_id = -1;

void test_point_trampoline(const char* /*name*/) {
  if (tls_state != nullptr) tls_state->yield(tls_id);
}

}  // namespace

void yield_point(const char* /*name*/) {
  if (tls_state != nullptr) tls_state->yield(tls_id);
}

RunResult Scheduler::run(std::vector<std::function<void()>> bodies,
                         const RunOptions& opts) {
  RunResult result;
  const int n = static_cast<int>(bodies.size());
  if (n == 0) {
    result.schedule = format_schedule(result.choices);
    return result;
  }

  RunState state(static_cast<std::size_t>(n));
  if (opts.hook_test_points) {
    g_test_point.store(&test_point_trampoline, std::memory_order_relaxed);
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&state, i, body = std::move(bodies[static_cast<std::size_t>(i)])] {
      tls_state = &state;
      tls_id = i;
      {
        // Start barrier: every thread registers ready, then waits for its
        // first grant — thread 0 starting before thread 2 has spawned would
        // make the runnable set (and thus the schedule meaning) racy.
        std::unique_lock<std::mutex> lock(state.m);
        state.ready[static_cast<std::size_t>(i)] = 1;
        state.cv.notify_all();
        state.cv.wait(lock, [&] { return state.current == i || state.free_run; });
      }
      body();
      {
        std::unique_lock<std::mutex> lock(state.m);
        state.done[static_cast<std::size_t>(i)] = 1;
        if (state.current == i) state.current = kSchedulerTurn;
        state.cv.notify_all();
      }
      tls_state = nullptr;
      tls_id = -1;
    });
  }

  std::uint64_t rng = opts.seed;
  {
    std::unique_lock<std::mutex> lock(state.m);
    state.cv.wait(lock, [&] {
      return std::all_of(state.ready.begin(), state.ready.end(),
                         [](char r) { return r != 0; });
    });
    std::int64_t step = 0;
    std::vector<int> runnable;
    while (true) {
      runnable.clear();
      for (int i = 0; i < n; ++i) {
        if (state.done[static_cast<std::size_t>(i)] == 0) runnable.push_back(i);
      }
      if (runnable.empty()) break;
      if (step >= opts.max_steps) {
        result.completed = false;
        result.error = "max_steps (" + std::to_string(opts.max_steps) +
                       ") exceeded — bodies yield without terminating?";
        break;
      }
      const int options = static_cast<int>(runnable.size());
      int choice;
      if (step < static_cast<std::int64_t>(opts.forced.size())) {
        choice = std::clamp(opts.forced[static_cast<std::size_t>(step)], 0,
                            options - 1);
      } else if (opts.random_fallback) {
        choice = static_cast<int>(splitmix64(rng) %
                                  static_cast<std::uint64_t>(options));
      } else {
        choice = 0;  // leftmost: canonical base schedule for DFS enumeration
      }
      result.choices.push_back(choice);
      result.options.push_back(options);
      state.current = runnable[static_cast<std::size_t>(choice)];
      state.cv.notify_all();
      if (!state.cv.wait_for(lock, opts.grant_timeout,
                             [&] { return state.current == kSchedulerTurn; })) {
        result.completed = false;
        result.error =
            "thread " + std::to_string(state.current) +
            " did not reach a decision point within grant_timeout — model "
            "body blocked outside scheduler control (see model rules in "
            "sched.h)";
        break;
      }
      ++step;
    }
    // Teardown: release every thread from parking so join() terminates even
    // after an aborted run.
    state.free_run = true;
    state.cv.notify_all();
  }

  for (std::thread& t : threads) t.join();
  if (opts.hook_test_points) {
    g_test_point.store(nullptr, std::memory_order_relaxed);
  }
  result.schedule = format_schedule(result.choices);
  return result;
}

ExploreStats explore(const std::function<ModelRun()>& make_run,
                     const ExploreOptions& opts) {
  ExploreStats stats;
  std::set<std::string> seen;

  const auto execute = [&](const RunOptions& ro) {
    ModelRun model = make_run();
    RunResult r = Scheduler::run(std::move(model.bodies), ro);
    ++stats.runs;
    seen.insert(r.schedule);
    if (!r.completed) throw ScheduleFailure(r.schedule, r.error);
    if (model.verify) {
      try {
        model.verify();
      } catch (const ScheduleFailure&) {
        throw;
      } catch (const std::exception& e) {
        throw ScheduleFailure(r.schedule, e.what());
      }
    }
    return r;
  };

  // Phase 1 — exhaustive DFS over choice prefixes. The next schedule is the
  // current one with its rightmost incrementable choice bumped and the tail
  // dropped (the tail re-derives as leftmost-0s), so schedules enumerate in
  // lexicographic order and never repeat.
  RunOptions ro;
  ro.hook_test_points = opts.hook_test_points;
  ro.max_steps = opts.max_steps;
  bool more = true;
  while (more && stats.runs < opts.max_exhaustive_runs) {
    const RunResult r = execute(ro);
    more = false;
    for (std::size_t i = r.choices.size(); i-- > 0;) {
      if (r.choices[i] + 1 < r.options[i]) {
        ro.forced.assign(r.choices.begin(),
                         r.choices.begin() + static_cast<std::ptrdiff_t>(i));
        ro.forced.push_back(r.choices[i] + 1);
        more = true;
        break;
      }
    }
  }
  stats.exhausted = !more;

  // Phase 2 — seeded random tails for trees bigger than the budget.
  RunOptions rr;
  rr.hook_test_points = opts.hook_test_points;
  rr.max_steps = opts.max_steps;
  rr.random_fallback = true;
  std::uint64_t seed_stream = opts.seed;
  for (std::int64_t i = 0; i < opts.random_runs; ++i) {
    rr.seed = splitmix64(seed_stream);
    execute(rr);
  }

  stats.distinct = static_cast<std::int64_t>(seen.size());
  return stats;
}

RunResult replay(ModelRun run, const std::string& schedule,
                 bool hook_test_points) {
  RunOptions ro;
  ro.forced = parse_schedule(schedule);
  ro.hook_test_points = hook_test_points;
  RunResult r = Scheduler::run(std::move(run.bodies), ro);
  if (!r.completed) throw ScheduleFailure(r.schedule, r.error);
  if (run.verify) {
    try {
      run.verify();
    } catch (const ScheduleFailure&) {
      throw;
    } catch (const std::exception& e) {
      throw ScheduleFailure(r.schedule, e.what());
    }
  }
  return r;
}

}  // namespace ullsnn::sched
