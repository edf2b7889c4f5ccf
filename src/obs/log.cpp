#include "src/obs/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ullsnn::obs {

namespace {

std::atomic<int>& level_storage() {
  static std::atomic<int> level{static_cast<int>(init_log_level_from_env())};
  return level;
}

thread_local std::int64_t t_request_id = -1;

}  // namespace

void set_log_request_id(std::int64_t id) { t_request_id = id; }

std::int64_t log_request_id() { return t_request_id; }

LogLevel parse_log_level(const char* text) {
  if (text == nullptr || text[0] == '\0') return LogLevel::kInfo;
  if (std::strcmp(text, "off") == 0 || std::strcmp(text, "none") == 0) {
    return LogLevel::kOff;
  }
  if (std::strcmp(text, "error") == 0) return LogLevel::kError;
  if (std::strcmp(text, "warn") == 0 || std::strcmp(text, "warning") == 0) {
    return LogLevel::kWarn;
  }
  if (std::strcmp(text, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(text, "debug") == 0) return LogLevel::kDebug;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end != text && *end == '\0' && v >= -1 && v <= 3) {
    return static_cast<LogLevel>(v);
  }
  return LogLevel::kInfo;
}

LogLevel init_log_level_from_env() {
  // getenv is read-once at startup before any thread writes the environment.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const LogLevel level = parse_log_level(std::getenv("ULLSNN_LOG_LEVEL"));
  // level_storage() itself calls this initializer exactly once; an explicit
  // re-init (tests) must also write the parsed value back.
  static bool initializing = true;
  if (!initializing) set_log_level(level);
  initializing = false;
  return level;
}

LogLevel log_level() { return static_cast<LogLevel>(level_storage().load(std::memory_order_relaxed)); }

void set_log_level(LogLevel level) {
  level_storage().store(static_cast<int>(level), std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) <= static_cast<int>(log_level()) &&
         level != LogLevel::kOff;
}

void vlogf(LogLevel level, const char* fmt, std::va_list args) {
  if (!log_enabled(level)) return;
  char buf[1024];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  const std::size_t len = std::strlen(buf);
  const bool needs_newline = len == 0 || buf[len - 1] != '\n';
  std::FILE* stream = static_cast<int>(level) <= static_cast<int>(LogLevel::kWarn)
                          ? stderr
                          : stdout;
  // One stdio call per line so concurrent writers never interleave mid-line;
  // the rid tag joins this line to flight-recorder records.
  if (t_request_id >= 0) {
    std::fprintf(stream, needs_newline ? "[rid=%lld] %s\n" : "[rid=%lld] %s",
                 static_cast<long long>(t_request_id), buf);
  } else {
    std::fprintf(stream, needs_newline ? "%s\n" : "%s", buf);
  }
  std::fflush(stream);
}

void logf(LogLevel level, const char* fmt, ...) {
  if (!log_enabled(level)) return;
  std::va_list args;
  va_start(args, fmt);
  vlogf(level, fmt, args);
  va_end(args);
}

}  // namespace ullsnn::obs
