#include "src/serve/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kInteractive = 0;
constexpr std::size_t kBatch = 1;

TEST(LaneQueueTest, AdmitsUpToCapacityThenRejectsFull) {
  LaneQueue<int> q({3, 3});
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.try_push(int(i), kInteractive), AdmitError::kNone);
  }
  int overflow = 99;
  EXPECT_EQ(q.try_push(std::move(overflow), kInteractive), AdmitError::kFull);
  EXPECT_EQ(q.depth(), 3);
  // The rejected item never entered the queue.
  int out = -1;
  ASSERT_TRUE(q.try_pop(&out));
  EXPECT_EQ(out, 0);
  EXPECT_EQ(q.depth(), 2);
}

TEST(LaneQueueTest, FifoOrder) {
  LaneQueue<int> q({8, 8});
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(q.try_push(int(i), kBatch), AdmitError::kNone);
  }
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_TRUE(q.try_pop(&out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(q.try_pop(&out));
}

TEST(LaneQueueTest, PopTimesOutOnEmptyQueue) {
  LaneQueue<int> q({4, 4});
  int out = -1;
  EXPECT_FALSE(q.pop(&out, 5ms));
}

TEST(LaneQueueTest, CloseRejectsPushesButDrainsQueuedItems) {
  LaneQueue<int> q({4, 4});
  ASSERT_EQ(q.try_push(1, kInteractive), AdmitError::kNone);
  ASSERT_EQ(q.try_push(2, kBatch), AdmitError::kNone);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.try_push(3, kInteractive), AdmitError::kClosed);
  EXPECT_EQ(q.try_push(4, kBatch), AdmitError::kClosed);
  // Items enqueued before close stay poppable (the engine drains them on
  // stop and fails them explicitly rather than dropping them silently).
  int out = -1;
  ASSERT_TRUE(q.pop(&out, 5ms));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(q.try_pop(&out));
  EXPECT_EQ(out, 2);
  // Closed and drained: pop returns immediately instead of waiting out the
  // timeout (workers must not hang on shutdown).
  EXPECT_FALSE(q.pop(&out, 1000ms));
}

TEST(LaneQueueTest, CloseWakesBlockedConsumer) {
  LaneQueue<int> q({4, 4});
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    int out = -1;
    q.pop(&out, 10000ms);  // must not wait anywhere near this long
    woke.store(true);
  });
  std::this_thread::sleep_for(20ms);
  q.close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

TEST(LaneQueueTest, PeakDepthIsExact) {
  LaneQueue<int> q({10, 10});
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(q.try_push(int(i), kInteractive), AdmitError::kNone);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(q.try_push(int(i), kBatch), AdmitError::kNone);
  }
  int out = -1;
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(q.try_pop(&out));
  ASSERT_EQ(q.try_push(42, kBatch), AdmitError::kNone);
  // Total peak counts both lanes at their common high-water mark; each lane
  // keeps its own.
  EXPECT_EQ(q.peak_depth(), 7);
  EXPECT_EQ(q.lane_peak_depth(kInteractive), 4);
  EXPECT_EQ(q.lane_peak_depth(kBatch), 3);
  EXPECT_EQ(q.depth(), 1);
  EXPECT_EQ(q.lane_depth(kInteractive), 0);
  EXPECT_EQ(q.lane_depth(kBatch), 1);
}

TEST(LaneQueueTest, FullBatchLaneNeverRefusesInteractive) {
  LaneQueue<int> q({2, 3});
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(q.try_push(100 + i, kBatch), AdmitError::kNone);
  }
  EXPECT_EQ(q.try_push(199, kBatch), AdmitError::kFull);
  // The batch lane is full, but fullness is per lane: interactive admission
  // still has its own two slots.
  EXPECT_EQ(q.try_push(1, kInteractive), AdmitError::kNone);
  EXPECT_EQ(q.try_push(2, kInteractive), AdmitError::kNone);
  EXPECT_EQ(q.try_push(3, kInteractive), AdmitError::kFull);
  EXPECT_EQ(q.lane_depth(kInteractive), 2);
  EXPECT_EQ(q.lane_depth(kBatch), 3);
  EXPECT_EQ(q.total_capacity(), 5);
}

TEST(LaneQueueTest, PopDrainsInteractiveLaneBeforeBatchLane) {
  LaneQueue<int> q({4, 4});
  // Batch work arrives first; interactive work still leaves first.
  ASSERT_EQ(q.try_push(10, kBatch), AdmitError::kNone);
  ASSERT_EQ(q.try_push(11, kBatch), AdmitError::kNone);
  ASSERT_EQ(q.try_push(1, kInteractive), AdmitError::kNone);
  ASSERT_EQ(q.try_push(2, kInteractive), AdmitError::kNone);
  int out = -1;
  ASSERT_TRUE(q.pop(&out, 5ms));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(q.try_pop(&out));
  EXPECT_EQ(out, 2);
  // An interactive arrival overtakes batch work already waiting.
  ASSERT_EQ(q.try_push(3, kInteractive), AdmitError::kNone);
  ASSERT_TRUE(q.try_pop(&out));
  EXPECT_EQ(out, 3);
  ASSERT_TRUE(q.pop(&out, 5ms));
  EXPECT_EQ(out, 10);
  ASSERT_TRUE(q.try_pop(&out));
  EXPECT_EQ(out, 11);
  EXPECT_FALSE(q.try_pop(&out));
}

TEST(LaneQueueTest, ConcurrentProducersConsumersConserveItems) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  LaneQueue<int> q({16, 16});
  std::atomic<std::int64_t> pushed{0};
  std::atomic<std::int64_t> rejected{0};
  std::atomic<std::int64_t> popped{0};
  std::atomic<std::int64_t> sum{0};
  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const std::size_t lane = static_cast<std::size_t>(p % 2);
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        int item = value;
        if (q.try_push(std::move(item), lane) == AdmitError::kNone) {
          pushed.fetch_add(1);
          sum.fetch_add(value);
        } else {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int out = -1;
      while (q.pop(&out, 20ms)) {
        popped.fetch_add(1);
        sum.fetch_sub(out);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (int c = 0; c < kConsumers; ++c) {
    threads[static_cast<std::size_t>(kProducers + c)].join();
  }
  // A consumer that timed out during a lull exits early; sweep any leftovers
  // so the conservation check is deterministic under scheduler noise.
  int leftover = -1;
  while (q.try_pop(&leftover)) {
    popped.fetch_add(1);
    sum.fetch_sub(leftover);
  }
  // Every admitted item was consumed exactly once, none invented or lost.
  EXPECT_EQ(pushed.load() + rejected.load(),
            static_cast<std::int64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(popped.load(), pushed.load());
  EXPECT_EQ(sum.load(), 0);
  EXPECT_LE(q.lane_peak_depth(kInteractive), q.capacity(kInteractive));
  EXPECT_LE(q.lane_peak_depth(kBatch), q.capacity(kBatch));
  EXPECT_LE(q.peak_depth(), q.total_capacity());
}

}  // namespace
}  // namespace ullsnn::serve
