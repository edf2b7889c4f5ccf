// Minimal thread pool and parallel_for for data-parallel batch work.
//
// The reference benches run single-core (DESIGN.md), so everything defaults
// to serial execution; callers opt in via set_num_threads(n). Parallelism is
// exposed at the batch-sample level (conv2d_forward's per-sample GEMM
// loop), which is embarrassingly parallel and keeps all kernels bitwise
// deterministic regardless of thread count.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"

namespace ullsnn {

/// ThreadPool's run()/worker handshake as a plain state machine. It does no
/// locking of its own: ThreadPool calls every member under its mutex. It is
/// split out so the interleaving model checker (tests/sched) can drive this
/// exact protocol without the condition-variable waits around it.
///
/// Two rules keep a job pointer from outliving its run(). A worker holds the
/// job only between a successful join() and its leave(), and run() retires
/// the job only once idle(), so a worker that wakes after run() returned
/// gets nothing to call. claim() hands out an index only for the generation
/// the caller joined, so a worker can never take an index of a later job.
class JobBoard {
 public:
  using Job = std::function<void(std::int64_t)>;

  /// run(): publish `job` over indices [0, count) as a new generation.
  void publish(const Job* job, std::int64_t count);
  std::uint64_t generation() const { return generation_; }
  /// Worker: hold the job of generation `gen`; null once that job is retired
  /// or superseded. A non-null result must be released with leave().
  const Job* join(std::uint64_t gen);
  /// Next index of generation `gen`'s job; -1 when none is left or the board
  /// has moved on to another generation.
  std::int64_t claim(std::uint64_t gen);
  /// Worker: release the job; true when no worker holds it any more.
  bool leave();
  /// Hand out no further indices of the current job (first failure).
  void stop() { next_index_ = job_count_; }
  /// run(): true when no worker holds the job.
  bool idle() const { return active_ == 0; }
  /// run(): forget the job. Call only when idle().
  void retire() { job_ = nullptr; }

 private:
  const Job* job_ = nullptr;
  std::int64_t job_count_ = 0;
  std::int64_t next_index_ = 0;
  std::int64_t active_ = 0;
  std::uint64_t generation_ = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 or 1 => no workers; run() executes inline).
  explicit ThreadPool(std::int64_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::int64_t thread_count() const {
    return static_cast<std::int64_t>(workers_.size());
  }

  /// Run fn(i) for i in [0, count), blocking until all iterations finish.
  /// Iterations are distributed dynamically (atomic counter), so uneven
  /// per-iteration cost balances automatically.
  ///
  /// Exceptions: if any iteration throws, the FIRST exception is captured,
  /// no further indices are handed out (in-flight iterations still finish),
  /// and the exception is rethrown on the calling thread once every worker
  /// has drained. The pool stays usable afterwards. Iterations past the
  /// throwing index may or may not have run.
  void run(std::int64_t count, const std::function<void(std::int64_t)>& fn);

 private:
  void worker_loop();
  /// Record the first failure and stop handing out indices (takes mutex_
  /// internally).
  void record_error(std::exception_ptr error);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_;
  CondVar done_;
  JobBoard board_ GUARDED_BY(mutex_);
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::exception_ptr job_error_ GUARDED_BY(mutex_);
};

/// Process-wide worker count for library kernels (default 1 = serial).
void set_num_threads(std::int64_t threads);
std::int64_t num_threads();

/// Run fn(i) for i in [0, count) on the process-wide pool (inline when the
/// pool is serial or count == 1).
void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& fn);

}  // namespace ullsnn
