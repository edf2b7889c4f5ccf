#include "src/util/parallel.h"

#include <memory>
#include <stdexcept>
#include <utility>

namespace ullsnn {

ThreadPool::ThreadPool(std::int64_t threads) {
  if (threads < 0) throw std::invalid_argument("ThreadPool: negative thread count");
  if (threads <= 1) return;  // inline execution, no workers
  workers_.reserve(static_cast<std::size_t>(threads));
  for (std::int64_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void JobBoard::publish(const Job* job, std::int64_t count) {
  job_ = job;
  job_count_ = count;
  next_index_ = 0;
  ++generation_;
}

const JobBoard::Job* JobBoard::join(std::uint64_t gen) {
  if (gen != generation_ || job_ == nullptr) return nullptr;
  ++active_;
  return job_;
}

std::int64_t JobBoard::claim(std::uint64_t gen) {
  if (gen != generation_ || next_index_ >= job_count_) return -1;
  return next_index_++;
}

bool JobBoard::leave() {
  --active_;
  return active_ == 0;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    const JobBoard::Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && board_.generation() == seen_generation) wake_.wait(mutex_);
      if (shutdown_) return;
      seen_generation = board_.generation();
      job = board_.join(seen_generation);
    }
    if (job == nullptr) continue;  // woke after that run() had already returned
    while (true) {
      std::int64_t index;
      {
        MutexLock lock(mutex_);
        index = board_.claim(seen_generation);
      }
      if (index < 0) break;
      try {
        (*job)(index);
      } catch (...) {
        record_error(std::current_exception());
      }
    }
    {
      MutexLock lock(mutex_);
      if (board_.leave()) done_.notify_all();
    }
  }
}

void ThreadPool::record_error(std::exception_ptr error) {
  MutexLock lock(mutex_);
  if (!job_error_) job_error_ = std::move(error);
  board_.stop();  // stop handing out further iterations
}

void ThreadPool::run(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
  if (count <= 0) return;
  if (workers_.empty() || count == 1) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::uint64_t generation;
  {
    MutexLock lock(mutex_);
    board_.publish(&fn, count);
    generation = board_.generation();
    job_error_ = nullptr;
  }
  wake_.notify_all();
  // The calling thread also works, then waits for the stragglers.
  while (true) {
    std::int64_t index;
    {
      MutexLock lock(mutex_);
      index = board_.claim(generation);
    }
    if (index < 0) break;
    try {
      fn(index);
    } catch (...) {
      record_error(std::current_exception());
    }
  }
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (!board_.idle()) done_.wait(mutex_);
    board_.retire();
    error = std::exchange(job_error_, nullptr);
  }
  // Rethrow outside the lock so the pool stays usable from a catch block.
  if (error) std::rethrow_exception(error);
}

namespace {
std::unique_ptr<ThreadPool>& global_pool() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
std::int64_t& global_threads() {
  static std::int64_t threads = 1;
  return threads;
}
}  // namespace

void set_num_threads(std::int64_t threads) {
  if (threads <= 0) throw std::invalid_argument("set_num_threads: must be positive");
  global_threads() = threads;
  global_pool() = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
}

std::int64_t num_threads() { return global_threads(); }

void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
  ThreadPool* pool = global_pool().get();
  if (pool == nullptr) {
    for (std::int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->run(count, fn);
}

}  // namespace ullsnn
