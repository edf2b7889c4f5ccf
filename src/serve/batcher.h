// Deadline-aware micro-batcher.
//
// Coalesces queued requests into one forward pass: a batch closes when it
// reaches max_batch, when the oldest member has waited max_batch_delay, or
// when the queue runs dry. Two kinds of work are separated out at dequeue
// instead of wasting a batch slot:
//
//  - `expired`: the deadline already passed — under overload, work that can
//    no longer meet its deadline is the cheapest work to drop (kExpired);
//  - `shed`: still in-deadline, but the lane's CoDel controller decided the
//    standing queueing delay makes it load-shed material (kShed).
//
// Requests without a deadline are never routed to either bucket: "no
// deadline" means the client opted out of shedding entirely (the watchdog's
// hard timeout still bounds the wait).
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/serve/bounded_queue.h"
#include "src/serve/overload.h"
#include "src/serve/request.h"

namespace ullsnn::serve {

/// How long collect() blocks waiting for the first request before giving up
/// and returning an empty batch (lets workers poll for shutdown).
inline constexpr std::chrono::milliseconds kBatcherPollTimeout{20};

struct BatcherConfig {
  std::int64_t max_batch = 8;
  /// Oldest-request age at which a partial batch is flushed.
  std::chrono::milliseconds max_batch_delay{2};
};

struct MicroBatch {
  std::vector<PendingRequest> requests;  // in-deadline, ready to run
  std::vector<PendingRequest> expired;   // deadline already passed; kExpired
  std::vector<PendingRequest> shed;      // CoDel load-shed in-deadline; kShed
  bool empty() const {
    return requests.empty() && expired.empty() && shed.empty();
  }
};

class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherConfig config) : config_(config) {}

  const BatcherConfig& config() const { return config_; }

  /// Pull the next micro-batch from the strict-priority `queue`. Blocks up
  /// to kBatcherPollTimeout for the first request; then drains greedily
  /// until the batch is full, the age limit trips, or the queue is
  /// momentarily empty. Expired/shed requests are separated out and do not
  /// count toward max_batch. `codel` (optional) classifies in-deadline
  /// requests by sojourn time.
  MicroBatch collect(LaneQueue<PendingRequest>& queue, CoDelController* codel) {
    MicroBatch batch;
    PendingRequest first;
    if (!queue.pop(&first, kBatcherPollTimeout)) return batch;
    admit(std::move(first), batch, codel);
    while (static_cast<std::int64_t>(batch.requests.size()) < config_.max_batch) {
      if (!batch.requests.empty() &&
          Clock::now() - batch.requests.front().slot->enqueue_time() >=
              config_.max_batch_delay) {
        break;  // oldest member has waited long enough; flush what we have
      }
      PendingRequest next;
      if (!queue.try_pop(&next)) break;
      admit(std::move(next), batch, codel);
    }
    return batch;
  }

 private:
  static void admit(PendingRequest&& request, MicroBatch& batch,
                    CoDelController* codel) {
    const auto now = Clock::now();
    request.popped = now;  // queue-wait ends here; formation wait begins
    if (!request.slot->has_deadline()) {
      // No deadline: never expired, never load-shed.
      batch.requests.push_back(std::move(request));
      return;
    }
    if (now >= request.slot->deadline()) {
      batch.expired.push_back(std::move(request));
      return;
    }
    if (codel != nullptr &&
        codel->should_shed(request.slot->priority(),
                           now - request.slot->enqueue_time(), now)) {
      batch.shed.push_back(std::move(request));
      return;
    }
    batch.requests.push_back(std::move(request));
  }

  BatcherConfig config_;
};

}  // namespace ullsnn::serve
