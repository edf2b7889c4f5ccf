// Request/response types for the resilient SNN inference engine.
//
// A submitted request is represented by a shared ResponseSlot that exactly
// one party fulfills: the worker that ran it, the batcher that shed it, or
// the watchdog that timed it out. fulfill() is first-wins, so a watchdog
// firing while a stuck worker eventually finishes never double-completes or
// deadlocks a client — the late result is simply discarded.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"
#include "src/util/mutex.h"

namespace ullsnn::serve {

using Clock = std::chrono::steady_clock;

/// Terminal outcome of a request. Degraded responses carry valid logits
/// computed at a reduced T; everything from kRejected down carries none.
enum class ResponseStatus {
  kOk,           // served at the full (healthy-rung) time-step budget
  kDegraded,     // served at a reduced T — the degradation ladder in action
  kRejected,     // refused at admission (queue full / engine stopped / bad input)
  kExpired,      // deadline passed before or during execution; result dropped
  kShed,         // load-shed (CoDel sojourn overrun) while still in-deadline
  kTimeout,      // watchdog fired: the request exceeded its hard timeout
  kUnavailable,  // circuit open: static fallback response, network not run
  kError,        // all forward attempts failed (non-transient fault)
};

const char* to_string(ResponseStatus status);

/// True for outcomes that returned usable logits.
inline bool is_success(ResponseStatus s) {
  return s == ResponseStatus::kOk || s == ResponseStatus::kDegraded;
}

/// True for outcomes where the engine deliberately dropped in-queue work
/// (deadline expiry or load shedding) — "shed" in the conservation ledger.
inline bool is_shed(ResponseStatus s) {
  return s == ResponseStatus::kExpired || s == ResponseStatus::kShed;
}

/// Request priority class. Strict-priority dequeue: interactive requests are
/// always served before batch requests, so under overload batch work absorbs
/// the queueing delay (and therefore the shedding) while interactive p99
/// stays bounded.
enum class Priority : std::uint8_t {
  kInteractive = 0,  // latency-sensitive; protected under overload
  kBatch = 1,        // throughput work; first to be shed
};

inline constexpr std::size_t kPriorityClasses = 2;

inline const char* to_string(Priority p) {
  return p == Priority::kInteractive ? "interactive" : "batch";
}

/// Per-request admission options. Deadlines propagate end-to-end as absolute
/// time points so an upstream service's remaining budget survives hops:
/// either give `deadline` (relative, stamped at submit) or `absolute_deadline`
/// (wins when set). A zero/absent deadline means "no deadline" — such a
/// request is never deadline-shed (the watchdog's hard timeout still bounds
/// its wait).
struct SubmitOptions {
  /// Relative deadline. Negative = engine default; zero = no deadline.
  std::chrono::milliseconds deadline{-1};
  /// Absolute deadline (deadline propagation). time_point{} = unset; when
  /// set it overrides `deadline` and may already be in the past, in which
  /// case the request is shed at admission with a typed kExpired outcome.
  Clock::time_point absolute_deadline{};
  Priority priority = Priority::kInteractive;
};

/// Sentinel for "no deadline": orders after every reachable time point.
inline constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

struct InferResponse {
  ResponseStatus status = ResponseStatus::kError;
  std::string reason;          // human-readable cause for non-kOk outcomes
  Tensor logits;               // populated iff is_success(status)
  std::int64_t predicted = -1; // argmax of logits, -1 otherwise
  std::int64_t time_steps = 0; // T the network actually ran (0 if it didn't)
  std::int64_t retries = 0;    // transient-failure retries consumed

  // Request-scoped trace: the monotonically unique id assigned at admission
  // plus the per-stage timing record, propagated through queue wait ->
  // micro-batch formation -> per-time-step forward -> fulfillment. The same
  // record lands in the flight recorder; the id joins it against
  // [rid=N]-tagged log lines.
  std::int64_t id = -1;        // request id (echoes ResponseFuture::id())
  double queue_ms = 0.0;       // admission -> popped from the bounded queue
  double batch_ms = 0.0;       // popped -> micro-batch dispatched to forward
  double infer_ms = 0.0;       // forward time (final attempt)
  double total_ms = 0.0;       // admission -> fulfillment
  std::vector<double> step_ms; // per-time-step forward durations at ladder T
};

/// Shared completion state between the client-held ResponseFuture and the
/// engine. done_/response_ are GUARDED_BY(mu_); the first-wins race between
/// worker, batcher, and watchdog is decided entirely inside that lock, which
/// the sched model tests verify across exhaustive interleavings.
class ResponseSlot {
 public:
  ResponseSlot(std::int64_t id, Clock::time_point enqueue,
               Clock::time_point deadline,
               Priority priority = Priority::kInteractive)
      : id_(id), enqueue_(enqueue), deadline_(deadline), priority_(priority) {}

  std::int64_t id() const { return id_; }
  Clock::time_point enqueue_time() const { return enqueue_; }
  Clock::time_point deadline() const { return deadline_; }
  Priority priority() const { return priority_; }
  /// False when the request carries no deadline (kNoDeadline): it is never
  /// deadline-shed, only watchdog-bounded.
  bool has_deadline() const { return deadline_ != kNoDeadline; }

  bool done() const {
    MutexLock lock(mu_);
    return done_;
  }

  /// First fulfillment wins and wakes waiters; later calls return false and
  /// leave the stored response untouched. `on_first` (optional, must not
  /// throw) runs on the winning path while the slot lock is still held —
  /// i.e. strictly before any waiter can observe the result. The engine uses
  /// it to publish this request's metrics and flight record, so a client
  /// that scrapes /metrics right after get() returns always sees itself
  /// counted (counter conservation).
  bool fulfill(InferResponse response,
               const std::function<void()>& on_first = nullptr) {
    {
      MutexLock lock(mu_);
      if (done_) return false;
      response_ = std::move(response);
      done_ = true;
      if (on_first) on_first();
    }
    cv_.notify_all();
    return true;
  }

  /// Block until fulfilled, then copy the response out.
  InferResponse wait() const {
    MutexLock lock(mu_);
    while (!done_) cv_.wait(mu_);
    return response_;
  }

  /// Block up to `timeout`; returns false (and no response) on timeout.
  bool wait_for(std::chrono::milliseconds timeout, InferResponse* out) const {
    const auto deadline = Clock::now() + timeout;
    MutexLock lock(mu_);
    while (!done_) {
      if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) {
        if (done_) break;  // fulfilled exactly at expiry
        return false;
      }
    }
    if (out != nullptr) *out = response_;
    return true;
  }

 private:
  const std::int64_t id_;
  const Clock::time_point enqueue_;
  const Clock::time_point deadline_;
  const Priority priority_;
  mutable Mutex mu_;
  mutable CondVar cv_;
  bool done_ GUARDED_BY(mu_) = false;
  InferResponse response_ GUARDED_BY(mu_);
};

using SlotPtr = std::shared_ptr<ResponseSlot>;

/// Client-side handle to an accepted request.
class ResponseFuture {
 public:
  ResponseFuture() = default;
  explicit ResponseFuture(SlotPtr slot) : slot_(std::move(slot)) {}

  bool valid() const { return slot_ != nullptr; }
  bool ready() const { return slot_ != nullptr && slot_->done(); }
  std::int64_t id() const { return slot_ ? slot_->id() : -1; }

  /// Blocks until the engine (worker, batcher, or watchdog) fulfills the
  /// request. Every accepted request is guaranteed to be fulfilled: the
  /// watchdog bounds the wait even if a worker wedges.
  InferResponse get() const { return slot_->wait(); }

 private:
  SlotPtr slot_;
};

/// What travels through the queue: the input plus the completion slot.
struct PendingRequest {
  SlotPtr slot;
  Tensor image;  // [C, H, W]
  /// Stamped by the micro-batcher when the request leaves the queue; the
  /// boundary between queue-wait and batch-formation in the stage record.
  Clock::time_point popped{};
};

}  // namespace ullsnn::serve
