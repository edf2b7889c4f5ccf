#include "src/obs/flight_recorder.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>

#include "src/obs/log.h"

namespace ullsnn::obs {

namespace {

constexpr std::uint64_t kDumpMinIntervalUs = 1'000'000;  // 1 dump/second

void copy_truncated(char* dst, std::size_t cap, const char* src) {
  std::snprintf(dst, cap, "%s", src == nullptr ? "" : src);
}

/// JSON string escape for the fixed char fields: quotes, backslashes, and
/// control characters (the detail strings carry human-written causes only,
/// but a path or exception message can contain anything).
void append_json_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  out += buf;
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t request_capacity,
                               std::size_t event_capacity)
    : requests_(request_capacity), events_(event_capacity) {}

std::uint64_t FlightRecorder::now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

void FlightRecorder::record_request(const RequestRecord& record) {
  requests_.push(record);
}

void FlightRecorder::record_event_v(const char* kind, const char* fmt,
                                    va_list args) {
  FlightEvent event;
  copy_truncated(event.kind, sizeof event.kind, kind);
  std::vsnprintf(event.detail, sizeof event.detail, fmt, args);
  event.ts_us = now_us();
  events_.push(event);
}

void FlightRecorder::record_event(const char* kind, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  record_event_v(kind, fmt, args);
  va_end(args);
}

void FlightRecorder::set_dump_path(std::string path) {
  MutexLock lock(dump_mu_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  MutexLock lock(dump_mu_);
  return dump_path_;
}

void FlightRecorder::note_anomaly(const char* kind, const char* fmt, ...) {
  {
    va_list args;
    va_start(args, fmt);
    record_event_v(kind, fmt, args);
    va_end(args);
  }
  anomalies_.fetch_add(1, std::memory_order_relaxed);
  std::string path;
  {
    MutexLock lock(dump_mu_);
    if (dump_path_.empty()) return;
    const std::uint64_t now = now_us();
    if (ever_dumped_ && now - last_dump_us_ < kDumpMinIntervalUs) return;
    ever_dumped_ = true;
    last_dump_us_ = now;
    path = dump_path_;
  }
  if (dump_jsonl(path)) {
    dumps_written_.fetch_add(1, std::memory_order_relaxed);
    logf(LogLevel::kWarn, "[flight] anomaly '%s': dumped recorder to %s", kind,
         path.c_str());
  } else {
    logf(LogLevel::kError, "[flight] anomaly '%s': dump to %s FAILED", kind,
         path.c_str());
  }
}

std::int64_t FlightRecorder::anomalies() const {
  return anomalies_.load(std::memory_order_relaxed);
}

std::int64_t FlightRecorder::dumps_written() const {
  return dumps_written_.load(std::memory_order_relaxed);
}

std::string FlightRecorder::render_jsonl() const {
  std::string out;
  const std::vector<FlightEvent> events = events_.snapshot();
  const std::vector<RequestRecord> requests = requests_.snapshot();
  out.reserve(events.size() * 96 + requests.size() * 224);
  for (const FlightEvent& e : events) {
    out += R"({"type":"event","ts_us":)";
    out += std::to_string(e.ts_us);
    out += R"(,"kind":")";
    append_json_escaped(out, e.kind);
    out += R"(","detail":")";
    append_json_escaped(out, e.detail);
    out += "\"}\n";
  }
  for (const RequestRecord& r : requests) {
    out += R"({"type":"request","ts_us":)";
    out += std::to_string(r.ts_us);
    out += R"(,"id":)";
    out += std::to_string(r.id);
    out += R"(,"status":")";
    append_json_escaped(out, r.status);
    out += R"(","time_steps":)";
    out += std::to_string(r.time_steps);
    out += R"(,"retries":)";
    out += std::to_string(r.retries);
    out += R"(,"batch_size":)";
    out += std::to_string(r.batch_size);
    out += R"(,"worker":)";
    out += std::to_string(r.worker);
    out += R"(,"queue_ms":)";
    append_double(out, r.queue_ms);
    out += R"(,"batch_ms":)";
    append_double(out, r.batch_ms);
    out += R"(,"infer_ms":)";
    append_double(out, r.infer_ms);
    out += R"(,"total_ms":)";
    append_double(out, r.total_ms);
    out += R"(,"step_ms":[)";
    for (std::int32_t s = 0; s < r.steps && s < RequestRecord::kMaxSteps; ++s) {
      if (s != 0) out += ',';
      append_double(out, r.step_ms[s]);
    }
    out += "]}\n";
  }
  return out;
}

bool FlightRecorder::dump_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << render_jsonl();
  out.flush();
  return static_cast<bool>(out);
}

void FlightRecorder::clear() {
  requests_.clear();
  events_.clear();
  anomalies_.store(0, std::memory_order_relaxed);
  dumps_written_.store(0, std::memory_order_relaxed);
  MutexLock lock(dump_mu_);
  last_dump_us_ = 0;
  ever_dumped_ = false;
}

namespace {
std::terminate_handler g_previous_terminate = nullptr;

[[noreturn]] void flight_terminate_handler() {
  // Best-effort final dump: never allocate more than the render needs, never
  // throw, always chain (or abort) afterwards.
  FlightRecorder& recorder = FlightRecorder::instance();
  recorder.record_event("terminate", "std::terminate called");
  const std::string path = recorder.dump_path();
  if (!path.empty()) recorder.dump_jsonl(path);
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}
}  // namespace

void FlightRecorder::install_terminate_handler() {
  static bool installed = [] {
    g_previous_terminate = std::set_terminate(flight_terminate_handler);
    return true;
  }();
  (void)installed;
}

}  // namespace ullsnn::obs
