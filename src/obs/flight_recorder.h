// FlightRecorder: the serving stack's black box.
//
// Two fixed-capacity rings (src/obs/ring.h) retain the recent past of a
// running engine — the last ~4096 fulfilled requests with their full
// per-stage timing records, and the last ~1024 state-transition events
// (circuit-breaker moves, registry swaps/rollbacks, watchdog timeouts).
// Recording is always on and engine-owned-cheap (one ring push per request);
// nothing is written to disk until something goes wrong.
//
// On an anomaly (note_anomaly: watchdog timeout, breaker open, registry
// auto-rollback, std::terminate via install_terminate_handler) the recorder
// dumps both rings as JSONL to the configured path, rate-limited so an
// anomaly storm produces one dump per second rather than thousands. The
// dump answers the post-incident question "what were the last 4096 requests
// doing, and which state transitions surrounded them?" — each line carries
// the request id, so it joins against rid-tagged log lines.
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/ring.h"
#include "src/util/mutex.h"

namespace ullsnn::obs {

/// Per-request record: one per fulfilled request, flat so the ring copy is a
/// memcpy-sized assignment. Stage timings mirror serve::InferResponse.
struct RequestRecord {
  static constexpr std::int32_t kMaxSteps = 8;

  std::int64_t id = -1;
  char status[16] = {0};       // "ok", "degraded", "timeout", ...
  std::int64_t time_steps = 0; // T the network actually ran
  std::int64_t retries = 0;
  std::int64_t batch_size = 0;
  std::int64_t worker = -1;    // worker index; -1 = watchdog/batcher path
  double queue_ms = 0.0;       // admission -> popped from the bounded queue
  double batch_ms = 0.0;       // popped -> micro-batch dispatched
  double infer_ms = 0.0;       // forward time (final attempt)
  double total_ms = 0.0;       // admission -> fulfillment
  double step_ms[kMaxSteps] = {0.0};  // per-time-step forward durations
  std::int32_t steps = 0;             // entries of step_ms actually filled
  std::uint64_t ts_us = 0;            // fulfillment time (now_us())
};

/// State-transition / anomaly event.
struct FlightEvent {
  char kind[16] = {0};    // "breaker", "registry", "watchdog", "anomaly", ...
  char detail[112] = {0}; // human-readable; truncated, never allocated
  std::uint64_t ts_us = 0;
};

class FlightRecorder {
 public:
  /// Process-wide instance (4096 requests / 1024 events). The serving stack
  /// records here; separately-constructed recorders are for tests.
  static FlightRecorder& instance();

  explicit FlightRecorder(std::size_t request_capacity = 4096,
                          std::size_t event_capacity = 1024);

  /// Microseconds since the recorder's epoch (the clock's first use in the
  /// process); every ts_us is on this clock.
  static std::uint64_t now_us();

  void record_request(const RequestRecord& record);
  /// printf-style detail; truncated to FlightEvent::detail.
  void record_event(const char* kind, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

  std::vector<RequestRecord> requests() const { return requests_.snapshot(); }
  std::vector<FlightEvent> events() const { return events_.snapshot(); }
  std::uint64_t requests_recorded() const { return requests_.total_pushed(); }
  std::uint64_t events_recorded() const { return events_.total_pushed(); }

  /// Where note_anomaly dumps. Empty (the default) disables auto-dumps;
  /// recording continues regardless.
  void set_dump_path(std::string path);
  std::string dump_path() const;

  /// Record an "anomaly"-kind event, then dump both rings to the configured
  /// path (overwriting the previous dump; the newest incident wins). Dumps
  /// are rate-limited to one per second so a storm cannot thrash the disk.
  void note_anomaly(const char* kind, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  std::int64_t anomalies() const;
  std::int64_t dumps_written() const;

  /// Serialize both rings as JSONL: event lines ({"type":"event",...}) then
  /// request lines ({"type":"request",...}), each ring oldest-first.
  std::string render_jsonl() const;
  /// render_jsonl() to a file. Returns false on I/O failure (never throws —
  /// dump paths run inside catch blocks and terminate handlers).
  bool dump_jsonl(const std::string& path) const;

  /// Route std::terminate through a final flight dump (instance()'s dump
  /// path), then chain to the previously installed handler. Idempotent.
  static void install_terminate_handler();

  /// Drop all retained records and counters (tests).
  void clear();

 private:
  void record_event_v(const char* kind, const char* fmt, va_list args);

  Ring<RequestRecord> requests_;
  Ring<FlightEvent> events_;
  mutable Mutex dump_mu_;
  std::string dump_path_ GUARDED_BY(dump_mu_);
  std::uint64_t last_dump_us_ GUARDED_BY(dump_mu_) = 0;
  bool ever_dumped_ GUARDED_BY(dump_mu_) = false;
  // relaxed tallies: read in isolation by tests/exposition, publish nothing.
  std::atomic<std::int64_t> anomalies_{0};
  std::atomic<std::int64_t> dumps_written_{0};
};

}  // namespace ullsnn::obs
