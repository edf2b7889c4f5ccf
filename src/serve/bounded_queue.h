// Bounded MPMC admission queue with strict-priority lanes.
//
// The serving engine's first line of defense against overload: try_push never
// blocks and never grows a lane past its capacity — a full lane yields an
// immediate, reasoned rejection instead of unbounded memory or a client stuck
// in a blocking push. Consumers block with a timeout so worker threads can
// periodically re-check for shutdown without spinning.
//
// Peak-depth tracking (total and per lane) is exact: it is updated under the
// same mutex as the lanes, giving tests and load runs a precise bound to
// assert against.
//
// Concurrency contract (statically checked, see docs/concurrency.md): every
// piece of mutable state is GUARDED_BY(mu_); a Clang -Werror=thread-safety
// build rejects any unlocked access. The sched model tests drive this class
// through exhaustive interleavings asserting conservation (no lost or
// duplicated items), per-lane capacity and strict lane priority.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>

#include "src/util/mutex.h"

namespace ullsnn::serve {

/// Why try_push refused an item.
enum class AdmitError { kNone, kFull, kClosed };

inline const char* to_string(AdmitError e) {
  switch (e) {
    case AdmitError::kNone: return "admitted";
    case AdmitError::kFull: return "queue full";
    case AdmitError::kClosed: return "queue closed";
  }
  return "unknown";
}

/// Bounded MPMC queue with `kLanes` strict-priority lanes (lane 0 first).
///
/// Each lane has its own capacity, so a flood of low-priority work can fill
/// its own lane without consuming a single admission slot of a higher lane —
/// overload in the batch class never translates into admission rejections
/// for interactive traffic. Dequeue is strict priority: pop() drains lane 0
/// completely before looking at lane 1, which is what keeps interactive
/// sojourn times (and therefore p99) bounded while batch work queues up and
/// absorbs the deadline/CoDel shedding.
///
/// `LaneQueue<T, 1>` is a plain bounded FIFO.
template <typename T, std::size_t kLanes = 2>
class LaneQueue {
  static_assert(kLanes >= 1, "LaneQueue needs at least one lane");

 public:
  /// One capacity per lane (all must be positive).
  explicit LaneQueue(std::array<std::int64_t, kLanes> capacities)
      : capacities_(capacities) {}

  /// Non-blocking admission into `lane` (0 = highest priority). Returns
  /// kNone and takes ownership on success; on kFull/kClosed the item is left
  /// untouched in the caller's hands. Fullness is per-lane.
  AdmitError try_push(T&& item, std::size_t lane) {
    return try_push(std::move(item), lane, [] {});
  }

  /// As above; on success `on_admit` runs under the queue lock, so whatever
  /// it records happens-before any consumer can pop the item.
  template <typename OnAdmit>
  AdmitError try_push(T&& item, std::size_t lane, OnAdmit&& on_admit) {
    {
      MutexLock lock(mu_);
      if (closed_) return AdmitError::kClosed;
      if (static_cast<std::int64_t>(lanes_[lane].size()) >= capacities_[lane]) {
        return AdmitError::kFull;
      }
      lanes_[lane].push_back(std::move(item));
      on_admit();
      std::int64_t depth = 0;
      for (const auto& q : lanes_) depth += static_cast<std::int64_t>(q.size());
      if (depth > peak_depth_) peak_depth_ = depth;
      const auto lane_depth = static_cast<std::int64_t>(lanes_[lane].size());
      if (lane_depth > lane_peak_[lane]) lane_peak_[lane] = lane_depth;
    }
    ready_.notify_one();
    return AdmitError::kNone;
  }

  /// Blocking strict-priority pop with timeout: always returns the front of
  /// the lowest-numbered non-empty lane. False on timeout or closed+drained.
  bool pop(T* out, std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (!closed_ && empty_locked()) {
      if (ready_.wait_until(mu_, deadline) == std::cv_status::timeout) {
        if (closed_ || !empty_locked()) break;  // raced an arrival at expiry
        return false;
      }
    }
    return pop_locked(out);
  }

  /// Non-blocking strict-priority pop.
  bool try_pop(T* out) {
    MutexLock lock(mu_);
    return pop_locked(out);
  }

  /// Reject all future pushes and wake every blocked consumer. Items already
  /// queued remain poppable (the engine drains and fails them on stop).
  void close() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  std::int64_t depth() const {
    MutexLock lock(mu_);
    std::int64_t depth = 0;
    for (const auto& q : lanes_) depth += static_cast<std::int64_t>(q.size());
    return depth;
  }

  std::int64_t lane_depth(std::size_t lane) const {
    MutexLock lock(mu_);
    return static_cast<std::int64_t>(lanes_[lane].size());
  }

  /// Highest total depth ever observed (exact; tracked under the mutex).
  std::int64_t peak_depth() const {
    MutexLock lock(mu_);
    return peak_depth_;
  }

  std::int64_t lane_peak_depth(std::size_t lane) const {
    MutexLock lock(mu_);
    return lane_peak_[lane];
  }

  std::int64_t capacity(std::size_t lane) const { return capacities_[lane]; }
  std::int64_t total_capacity() const {
    std::int64_t total = 0;
    for (const std::int64_t c : capacities_) total += c;
    return total;
  }

 private:
  bool empty_locked() const REQUIRES(mu_) {
    for (const auto& q : lanes_) {
      if (!q.empty()) return false;
    }
    return true;
  }

  bool pop_locked(T* out) REQUIRES(mu_) {
    for (auto& q : lanes_) {
      if (q.empty()) continue;
      *out = std::move(q.front());
      q.pop_front();
      return true;
    }
    return false;
  }

  const std::array<std::int64_t, kLanes> capacities_;
  mutable Mutex mu_;
  CondVar ready_;
  std::array<std::deque<T>, kLanes> lanes_ GUARDED_BY(mu_);
  std::array<std::int64_t, kLanes> lane_peak_ GUARDED_BY(mu_) = {};
  std::int64_t peak_depth_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace ullsnn::serve
