#include "src/obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace ullsnn::obs {
namespace {

RequestRecord sample_record(std::int64_t id) {
  RequestRecord r;
  r.id = id;
  std::snprintf(r.status, sizeof r.status, "ok");
  r.time_steps = 3;
  r.batch_size = 2;
  r.worker = 0;
  r.queue_ms = 0.5;
  r.batch_ms = 0.25;
  r.infer_ms = 1.5;
  r.total_ms = 2.25;
  r.steps = 3;
  r.step_ms[0] = 0.5;
  r.step_ms[1] = 0.5;
  r.step_ms[2] = 0.5;
  r.ts_us = 1000 + static_cast<std::uint64_t>(id);
  return r;
}

TEST(FlightRecorderTest, RetainsRequestsAndEvents) {
  FlightRecorder recorder(/*request_capacity=*/16, /*event_capacity=*/8);
  for (std::int64_t i = 0; i < 5; ++i) recorder.record_request(sample_record(i));
  recorder.record_event("breaker", "-> %s (T=%d)", "degraded", 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  recorder.record_event("breaker", "-> closed");
  const auto requests = recorder.requests();
  ASSERT_EQ(requests.size(), 5u);
  EXPECT_EQ(requests.front().id, 0);
  EXPECT_EQ(requests.back().id, 4);
  EXPECT_STREQ(requests.back().status, "ok");
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].kind, "breaker");
  EXPECT_STREQ(events[0].detail, "-> degraded (T=2)");
  // Timestamps count from the recorder epoch, which is pinned at the FIRST
  // FlightRecorder::now_us() call in the process — so the first event may read
  // 0; what must hold is that later events advance.
  EXPECT_GT(events[1].ts_us, events[0].ts_us);
}

TEST(FlightRecorderTest, RingOverwriteKeepsTheRecentPast) {
  FlightRecorder recorder(/*request_capacity=*/4, /*event_capacity=*/4);
  for (std::int64_t i = 0; i < 20; ++i) recorder.record_request(sample_record(i));
  const auto requests = recorder.requests();
  ASSERT_EQ(requests.size(), 4u);
  EXPECT_EQ(requests.front().id, 16);
  EXPECT_EQ(requests.back().id, 19);
  EXPECT_EQ(recorder.requests_recorded(), 20u);
}

TEST(FlightRecorderTest, EventDetailIsTruncatedNotOverrun) {
  FlightRecorder recorder(4, 4);
  const std::string longline(500, 'x');
  recorder.record_event("spam", "%s", longline.c_str());
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].detail), sizeof(FlightEvent{}.detail) - 1);
}

TEST(FlightRecorderTest, RenderJsonlEmitsOneObjectPerLine) {
  FlightRecorder recorder(8, 8);
  recorder.record_event("watchdog", "request 7 timed out");
  recorder.record_request(sample_record(7));
  const std::string jsonl = recorder.render_jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int events = 0, requests = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"event\"") != std::string::npos) ++events;
    if (line.find("\"type\":\"request\"") != std::string::npos) ++requests;
  }
  EXPECT_EQ(events, 1);
  EXPECT_EQ(requests, 1);
  EXPECT_NE(jsonl.find("\"id\":7"), std::string::npos);
  EXPECT_NE(jsonl.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"step_ms\":[0.5000,0.5000,0.5000]"), std::string::npos);
}

TEST(FlightRecorderTest, JsonEscapesHostileDetailText) {
  FlightRecorder recorder(4, 4);
  recorder.record_event("error", "path \"a\\b\"\nnext");
  const std::string jsonl = recorder.render_jsonl();
  EXPECT_NE(jsonl.find(R"(path \"a\\b\"\nnext)"), std::string::npos);
}

TEST(FlightRecorderTest, AnomalyDumpsJsonlToConfiguredPath) {
  FlightRecorder recorder(8, 8);
  const std::string path = testing::TempDir() + "flight_dump_test.jsonl";
  recorder.set_dump_path(path);
  recorder.record_request(sample_record(3));
  recorder.note_anomaly("watchdog", "request %d exceeded hard timeout", 3);
  EXPECT_EQ(recorder.anomalies(), 1);
  ASSERT_EQ(recorder.dumps_written(), 1);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"kind\":\"watchdog\""), std::string::npos);
  EXPECT_NE(contents.str().find("\"id\":3"), std::string::npos);
}

TEST(FlightRecorderTest, DumpsAreRateLimited) {
  FlightRecorder recorder(8, 8);
  const std::string path = testing::TempDir() + "flight_rate_test.jsonl";
  recorder.set_dump_path(path);
  // An anomaly storm: every anomaly is counted, but only the first lands on
  // disk inside the 1 s rate-limit window.
  for (int i = 0; i < 50; ++i) recorder.note_anomaly("storm", "anomaly %d", i);
  EXPECT_EQ(recorder.anomalies(), 50);
  EXPECT_EQ(recorder.dumps_written(), 1);
}

TEST(FlightRecorderTest, NoDumpPathMeansNoDump) {
  FlightRecorder recorder(8, 8);
  recorder.note_anomaly("watchdog", "timeout");
  EXPECT_EQ(recorder.anomalies(), 1);
  EXPECT_EQ(recorder.dumps_written(), 0);
}

TEST(FlightRecorderTest, DumpToUnwritablePathReportsFailure) {
  FlightRecorder recorder(8, 8);
  EXPECT_FALSE(recorder.dump_jsonl("/nonexistent-dir/deep/flight.jsonl"));
}

TEST(FlightRecorderTest, ClearDropsEverything) {
  FlightRecorder recorder(8, 8);
  recorder.record_request(sample_record(1));
  recorder.note_anomaly("x", "y");
  recorder.clear();
  EXPECT_TRUE(recorder.requests().empty());
  EXPECT_TRUE(recorder.events().empty());
  EXPECT_EQ(recorder.anomalies(), 0);
  EXPECT_EQ(recorder.dumps_written(), 0);
}

}  // namespace
}  // namespace ullsnn::obs
