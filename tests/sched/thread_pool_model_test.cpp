// Model-checking ThreadPool's run()/worker handshake (JobBoard): a caller
// runs two jobs back to back while a worker wakes, joins, claims and leaves
// at every possible point in between. The worker may wake late — after the
// first run() has already returned — which is exactly the window where the
// pool used to hand a stale (or null) job pointer the next job's indices.
//
// Every JobBoard call sits in its own scheduler segment, as each one runs
// under the pool mutex in the real pool; the condition-variable waits around
// them become bounded polling loops, so the schedule tree stays finite.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "tests/sched/sched.h"
#include "src/util/parallel.h"

namespace ullsnn {
namespace {

/// The handshake ThreadPool used before JobBoard: a worker copied whatever
/// job pointer was published when it woke (even a retired one, or null) and
/// counted itself active, and claimed indices without checking which
/// generation it had joined. Kept only so the model below can show that it
/// finds the race.
class LegacyBoard {
 public:
  using Job = JobBoard::Job;
  void publish(const Job* job, std::int64_t count) {
    job_ = job;
    job_count_ = count;
    next_index_ = 0;
    ++generation_;
  }
  std::uint64_t generation() const { return generation_; }
  const Job* join(std::uint64_t) {
    ++active_;
    // The old worker went on to call whatever it read, null included; an
    // empty Job stands in for null so the model can count the call instead
    // of crashing.
    static const Job kNull;
    return job_ != nullptr ? job_ : &kNull;
  }
  std::int64_t claim(std::uint64_t) {
    return next_index_ >= job_count_ ? -1 : next_index_++;
  }
  bool leave() { return --active_ == 0; }
  bool idle() const { return active_ == 0; }
  void retire() { job_ = nullptr; }

 private:
  const Job* job_ = nullptr;
  std::int64_t job_count_ = 0;
  std::int64_t next_index_ = 0;
  std::int64_t active_ = 0;
  std::uint64_t generation_ = 0;
};

constexpr int kRuns = 2;
constexpr std::int64_t kCount = 2;   // indices per run
constexpr int kWaitPolls = 3;        // caller's idle() polls before it gives up
constexpr int kWakeAttempts = 3;     // worker wake-ups per model run

template <typename Board>
struct PoolModel {
  Board board;
  std::array<JobBoard::Job, kRuns> jobs;
  std::array<bool, kRuns> live{};                       // run() in progress
  std::array<std::array<int, kCount>, kRuns> executed{};  // calls per index
  int stale_calls = 0;  // a job called after its run() returned
  int null_calls = 0;   // a worker about to call a null job
  // The caller ran out of idle() polls while a worker held a job: a real
  // run() would wait longer, so the rest of this schedule is not modelled.
  bool pruned = false;
  bool shutdown = false;
};

template <typename Board>
sched::ModelRun make_pool_run() {
  auto m = std::make_shared<PoolModel<Board>>();
  for (int r = 0; r < kRuns; ++r) {
    m->jobs[static_cast<std::size_t>(r)] = [raw = m.get(), r](std::int64_t i) {
      if (!raw->live[static_cast<std::size_t>(r)]) ++raw->stale_calls;
      ++raw->executed[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
    };
  }
  sched::ModelRun run;

  run.bodies.push_back([m] {  // the thread calling run() twice
    for (int r = 0; r < kRuns && !m->pruned; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      sched::yield_point("publish");
      m->board.publish(&m->jobs[ri], kCount);
      m->live[ri] = true;
      const std::uint64_t gen = m->board.generation();
      while (true) {
        sched::yield_point("caller-claim");
        const std::int64_t index = m->board.claim(gen);
        if (index < 0) break;
        m->jobs[ri](index);
      }
      int polls = 0;
      while (true) {
        sched::yield_point("wait-idle");
        if (m->board.idle()) break;
        if (++polls == kWaitPolls) break;
      }
      if (!m->board.idle()) {
        m->pruned = true;  // a real run() would still be waiting
        break;
      }
      m->board.retire();
      m->live[ri] = false;
    }
    sched::yield_point("shutdown");
    m->shutdown = true;
  });

  run.bodies.push_back([m] {  // one pool worker
    std::uint64_t seen = 0;
    for (int attempt = 0; attempt < kWakeAttempts; ++attempt) {
      sched::yield_point("wake");
      if (m->shutdown) return;
      if (m->board.generation() == seen) continue;
      seen = m->board.generation();
      const JobBoard::Job* job = m->board.join(seen);
      if (job == nullptr) continue;
      while (true) {
        sched::yield_point("worker-claim");
        const std::int64_t index = m->board.claim(seen);
        if (index < 0) break;
        if (*job) {
          (*job)(index);
        } else {
          ++m->null_calls;  // LegacyBoard's stand-in for a null job
        }
      }
      sched::yield_point("leave");
      m->board.leave();
    }
  });

  run.verify = [m] {
    const auto fail = [](const std::string& why) {
      throw std::runtime_error("pool invariant: " + why);
    };
    if (m->null_calls != 0) fail("a worker claimed an index for a null job");
    if (m->stale_calls != 0) fail("a job ran after its run() had returned");
    // A worker that has stopped must hold nothing, or run() would wait on it
    // forever.
    if (!m->board.idle()) fail("a stopped worker still counts as holding a job");
    if (m->pruned) return;
    for (int r = 0; r < kRuns; ++r) {
      for (std::int64_t i = 0; i < kCount; ++i) {
        const int calls =
            m->executed[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)];
        if (calls != 1) {
          fail("run " + std::to_string(r) + " index " + std::to_string(i) + " ran " +
               std::to_string(calls) + " times");
        }
      }
    }
  };
  return run;
}

TEST(ThreadPoolModelTest, HandshakeNeverRunsAStaleJob) {
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 3000;
  opts.random_runs = 1000;
  const sched::ExploreStats stats = sched::explore(make_pool_run<JobBoard>, opts);
  EXPECT_GE(stats.distinct, 3000) << "runs=" << stats.runs;
}

TEST(ThreadPoolModelTest, LegacyHandshakeRaceIsFoundAndReplays) {
  // The same model finds the stale-job race in the pre-JobBoard protocol,
  // and the schedule it reports reproduces it on every replay.
  sched::ExploreOptions opts;
  opts.max_exhaustive_runs = 3000;
  opts.random_runs = 1000;
  std::string failing;
  try {
    sched::explore(make_pool_run<LegacyBoard>, opts);
  } catch (const sched::ScheduleFailure& f) {
    failing = f.schedule();
  }
  ASSERT_FALSE(failing.empty()) << "explorer missed the legacy stale-job race";
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(sched::replay(make_pool_run<LegacyBoard>(), failing), std::exception)
        << "schedule " << failing;
  }
  // The fixed protocol survives the very schedule that breaks the old one.
  EXPECT_NO_THROW(sched::replay(make_pool_run<JobBoard>(), failing));
}

}  // namespace
}  // namespace ullsnn
