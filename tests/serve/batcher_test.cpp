#include "src/serve/batcher.h"

#include <gtest/gtest.h>

#include <thread>

namespace ullsnn::serve {
namespace {

using namespace std::chrono_literals;

PendingRequest make_request(std::int64_t id, Clock::duration deadline_from_now) {
  const auto now = Clock::now();
  return PendingRequest{
      std::make_shared<ResponseSlot>(id, now, now + deadline_from_now),
      Tensor({4}, 1.0F)};
}

TEST(MicroBatcherTest, EmptyQueueYieldsEmptyBatch) {
  MicroBatcher batcher(BatcherConfig{});
  LaneQueue<PendingRequest> queue({16, 16});
  const auto started = Clock::now();
  const MicroBatch batch = batcher.collect(queue, nullptr);
  EXPECT_TRUE(batch.empty());
  // collect() waited out the poll timeout before giving up.
  EXPECT_GE(Clock::now() - started, kBatcherPollTimeout);
}

TEST(MicroBatcherTest, CoalescesUpToMaxBatch) {
  BatcherConfig config;
  config.max_batch = 3;
  config.max_batch_delay = 1000ms;  // age trip can't fire in this test
  MicroBatcher batcher(config);
  LaneQueue<PendingRequest> queue({16, 16});
  for (std::int64_t i = 0; i < 5; ++i) {
    ASSERT_EQ(queue.try_push(make_request(i, 1000ms), 0), AdmitError::kNone);
  }
  const MicroBatch first = batcher.collect(queue, nullptr);
  ASSERT_EQ(first.requests.size(), 3U);
  EXPECT_TRUE(first.expired.empty());
  EXPECT_EQ(first.requests[0].slot->id(), 0);
  EXPECT_EQ(first.requests[2].slot->id(), 2);
  // The two stragglers form the next batch when the queue runs dry.
  const MicroBatch second = batcher.collect(queue, nullptr);
  ASSERT_EQ(second.requests.size(), 2U);
  EXPECT_EQ(second.requests[0].slot->id(), 3);
  EXPECT_EQ(queue.depth(), 0);
}

TEST(MicroBatcherTest, ShedsExpiredRequestsWithoutCountingThemTowardBatch) {
  BatcherConfig config;
  config.max_batch = 2;
  config.max_batch_delay = 1000ms;
  MicroBatcher batcher(config);
  LaneQueue<PendingRequest> queue({16, 16});
  // Interleave already-expired requests (deadline in the past) with live
  // ones; the expired ones must not occupy batch slots.
  ASSERT_EQ(queue.try_push(make_request(0, -1ms), 0), AdmitError::kNone);
  ASSERT_EQ(queue.try_push(make_request(1, 1000ms), 0), AdmitError::kNone);
  ASSERT_EQ(queue.try_push(make_request(2, -1ms), 0), AdmitError::kNone);
  ASSERT_EQ(queue.try_push(make_request(3, 1000ms), 0), AdmitError::kNone);
  const MicroBatch batch = batcher.collect(queue, nullptr);
  ASSERT_EQ(batch.requests.size(), 2U);
  ASSERT_EQ(batch.expired.size(), 2U);
  EXPECT_EQ(batch.requests[0].slot->id(), 1);
  EXPECT_EQ(batch.requests[1].slot->id(), 3);
  EXPECT_EQ(batch.expired[0].slot->id(), 0);
  EXPECT_EQ(batch.expired[1].slot->id(), 2);
}

TEST(MicroBatcherTest, AgeLimitFlushesPartialBatch) {
  BatcherConfig config;
  config.max_batch = 64;
  config.max_batch_delay = 0ms;  // the first admitted request trips the age check
  MicroBatcher batcher(config);
  LaneQueue<PendingRequest> queue({16, 16});
  ASSERT_EQ(queue.try_push(make_request(0, 1000ms), 0), AdmitError::kNone);
  std::this_thread::sleep_for(1ms);
  ASSERT_EQ(queue.try_push(make_request(1, 1000ms), 0), AdmitError::kNone);
  const MicroBatch batch = batcher.collect(queue, nullptr);
  // With a zero delay budget the batch flushes as soon as it holds one
  // request, leaving the second for the next collect().
  ASSERT_EQ(batch.requests.size(), 1U);
  EXPECT_EQ(batch.requests[0].slot->id(), 0);
  EXPECT_EQ(queue.depth(), 1);
}

}  // namespace
}  // namespace ullsnn::serve
