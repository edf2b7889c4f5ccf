#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace ullsnn::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  {
    TraceScope scope("should.not.appear");
  }
  Tracer::instance().record_instant("also.not");
  EXPECT_EQ(Tracer::instance().event_count(), 0U);
}

TEST_F(TraceTest, ScopeRecordsCompleteEvent) {
  Tracer::instance().set_enabled(true);
  {
    TraceScope scope("unit.span");
  }
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_STREQ(events[0].name, "unit.span");
  EXPECT_EQ(events[0].phase, 'X');
}

TEST_F(TraceTest, InstantEventCarriesArgs) {
  Tracer::instance().set_enabled(true);
  Tracer::instance().record_instant("unit.instant", "\"nan\":3");
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_STREQ(events[0].args, "\"nan\":3");
}

TEST_F(TraceTest, NestedScopesNestDurations) {
  Tracer::instance().set_enabled(true);
  {
    TraceScope outer("outer");
    {
      TraceScope inner("inner");
    }
  }
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 2U);
  // Destruction order records inner first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us, events[0].ts_us + events[0].dur_us);
}

TEST_F(TraceTest, EventsFromMultipleThreadsAllSurvive) {
  Tracer::instance().set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        TraceScope scope("thread.span");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(Tracer::instance().event_count(),
            static_cast<std::size_t>(kThreads) * kSpans);
}

TEST_F(TraceTest, ChromeTraceExportIsWellFormed) {
  Tracer::instance().set_enabled(true);
  {
    TraceScope scope("export.span");
  }
  Tracer::instance().record_instant("export.instant", "\"k\":1");
  const std::string path = "trace_test_out.json";
  Tracer::instance().write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_EQ(text.find("{\"traceEvents\":["), 0U);
  EXPECT_NE(text.find("\"name\":\"export.span\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"args\":{\"k\":1}"), std::string::npos);
  // Trivial balance check: equal numbers of braces/brackets.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  std::filesystem::remove(path);
}

TEST_F(TraceTest, JsonlExportOneEventPerLine) {
  Tracer::instance().set_enabled(true);
  {
    TraceScope a("jsonl.a");
    TraceScope b("jsonl.b");
  }
  const std::string path = "trace_test_out.jsonl";
  Tracer::instance().write_jsonl(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2U);
  std::filesystem::remove(path);
}

TEST_F(TraceTest, LongNamesAreTruncatedNotOverflowed) {
  Tracer::instance().set_enabled(true);
  const std::string long_name(200, 'x');
  Tracer::instance().record_complete(long_name.c_str(), 0, 1);
  const std::vector<TraceEvent> events = Tracer::instance().events();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_LT(std::string(events[0].name).size(), sizeof(TraceEvent{}.name));
}

TEST_F(TraceTest, MacroRecordsSpanAndInstant) {
  Tracer::instance().set_enabled(true);
  {
    ULLSNN_TRACE_SCOPE("macro.span");
    ULLSNN_TRACE_INSTANT("macro.instant");
  }
  EXPECT_EQ(Tracer::instance().event_count(), 2U);
}

}  // namespace
}  // namespace ullsnn::obs
