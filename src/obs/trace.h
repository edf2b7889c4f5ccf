// Scoped tracing spans with Chrome-trace and JSONL exporters.
//
// TraceScope is an RAII span: construction stamps the start time, destruction
// records a complete event into a per-thread buffer (per-thread mutex, only
// contended during export). When the tracer is disabled — the default — a
// span is one relaxed atomic load and a branch.
//
// Export formats:
//   write_chrome_trace: the chrome://tracing / Perfetto JSON array format
//     ({"traceEvents":[...]}); open the file in chrome://tracing directly.
//   write_jsonl: one event object per line, for ad-hoc grep/jq pipelines.
//
// Span names must outlive the scope; string literals are the intended use.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/mutex.h"

namespace ullsnn::obs {

struct TraceEvent {
  char name[48] = {0};
  char args[80] = {0};  // optional JSON object body, e.g. {"nan":3}
  std::uint64_t ts_us = 0;   // microseconds since process trace epoch
  std::uint64_t dur_us = 0;  // complete events only
  std::uint32_t tid = 0;
  char phase = 'X';  // 'X' complete span, 'i' instant event
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the process trace epoch (first use of the tracer).
  static std::uint64_t now_us();

  /// Record a completed span. No-op while disabled.
  void record_complete(const char* name, std::uint64_t ts_us, std::uint64_t dur_us);
  /// Record an instant event, optionally with a JSON args object body
  /// (the braces' content, e.g. `"nan":3,"inf":0`). No-op while disabled.
  void record_instant(const char* name, const char* args_body = nullptr);

  /// Copy of all buffered events (every thread), in per-thread order.
  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;
  void clear();

  void write_chrome_trace(const std::string& path) const;
  void write_jsonl(const std::string& path) const;

 private:
  struct ThreadBuffer {
    mutable Mutex mu;
    std::vector<TraceEvent> events GUARDED_BY(mu);
    std::uint32_t tid = 0;  // set once at registration, then read-only
  };

  Tracer() = default;
  ThreadBuffer& local_buffer();

  // relaxed: enabled_ is an independent on/off flag; a span racing the flip
  // harmlessly records or skips — no data is published through the flag.
  std::atomic<bool> enabled_{false};
  // relaxed: tids only need uniqueness.
  std::atomic<std::uint32_t> next_tid_{1};
  // Lock order: mu_ before any ThreadBuffer::mu (export iterates under both;
  // recording threads take only their own buffer's mu).
  mutable Mutex mu_;
  // shared_ptr keeps a buffer alive after its thread exits so late exports
  // still see the events.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_ GUARDED_BY(mu_);
};

/// RAII span around the enclosing scope. Cheap no-op while the tracer is
/// disabled; `name` must be a string literal (or outlive the scope).
class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (Tracer::instance().enabled()) {
      name_ = name;
      start_us_ = Tracer::now_us();
    }
  }
  ~TraceScope() {
    if (name_ != nullptr) {
      Tracer::instance().record_complete(name_, start_us_,
                                         Tracer::now_us() - start_us_);
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_us_ = 0;
};

}  // namespace ullsnn::obs

// Token pasting helper for macro-generated local variable names.
#define ULLSNN_OBS_CONCAT_IMPL(a, b) a##b
#define ULLSNN_OBS_CONCAT(a, b) ULLSNN_OBS_CONCAT_IMPL(a, b)

#define ULLSNN_TRACE_SCOPE(name) \
  ::ullsnn::obs::TraceScope ULLSNN_OBS_CONCAT(ullsnn_obs_span_, __LINE__)(name)
#define ULLSNN_TRACE_INSTANT(name) ::ullsnn::obs::Tracer::instance().record_instant(name)
#define ULLSNN_TRACE_INSTANT_ARGS(name, args_body) \
  ::ullsnn::obs::Tracer::instance().record_instant(name, args_body)
