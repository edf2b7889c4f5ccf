// Minimal leveled logger replacing the scattered std::cout / std::printf
// diagnostics in the trainers and pipeline.
//
// Threshold comes from the ULLSNN_LOG_LEVEL environment variable on first
// use: "off", "error", "warn", "info" (default), "debug" — or the numeric
// values -1..3. Messages at or below the threshold are printed: info/debug
// to stdout (matching the previous printf behavior the benches parse),
// warn/error to stderr. A message is emitted with a single stdio call, so
// concurrent lines do not interleave mid-line.
// Request-id tagging: the serving engine marks the request (batch) a worker
// thread is handling via set_log_request_id / LogRequestScope; every log
// line emitted by that thread is then prefixed with "[rid=N]", making logs
// joinable against flight-recorder records and responses during incident
// forensics. The id is thread-local; -1 (the default) disables the prefix.
#pragma once

#include <cstdarg>
#include <cstdint>

namespace ullsnn::obs {

enum class LogLevel : int { kOff = -1, kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Current threshold (initialized from ULLSNN_LOG_LEVEL on first call).
LogLevel log_level();
/// Override the threshold (tests, embedding applications).
void set_log_level(LogLevel level);
/// Re-read ULLSNN_LOG_LEVEL; returns the resulting threshold.
LogLevel init_log_level_from_env();
/// Parse "off"/"error"/"warn"/"info"/"debug" or "-1".."3"; falls back to
/// kInfo on anything unrecognized (including null).
LogLevel parse_log_level(const char* text);

bool log_enabled(LogLevel level);

/// printf-style log line; a trailing newline is appended if missing.
void logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void vlogf(LogLevel level, const char* fmt, std::va_list args);

/// Active request id for this thread (tags subsequent log lines); -1 clears.
void set_log_request_id(std::int64_t id);
std::int64_t log_request_id();

/// RAII request-id tag: restores the previous id on scope exit, so nested
/// scopes (worker batch -> per-request fulfillment) unwind correctly.
class LogRequestScope {
 public:
  explicit LogRequestScope(std::int64_t id) : previous_(log_request_id()) {
    set_log_request_id(id);
  }
  ~LogRequestScope() { set_log_request_id(previous_); }
  LogRequestScope(const LogRequestScope&) = delete;
  LogRequestScope& operator=(const LogRequestScope&) = delete;

 private:
  std::int64_t previous_;
};

}  // namespace ullsnn::obs
