// Resilient SNN inference engine: bounded admission, deadline-aware
// micro-batching, per-request watchdog, retry-with-backoff, and one
// time-step governor that degrades the time-step budget before degrading
// availability.
//
// Request lifecycle:
//
//   submit() --admission--> LaneQueue --MicroBatcher--> worker
//     |  kRejected (full/stopped/bad input)     |  kExpired (deadline shed)
//     |                                         |  kShed (CoDel)
//     |                                         |--> governor.observe_queue(depth)
//     |                                         v
//     |                              TimeStepGovernor.admit()
//     |                                |            |  kUnavailable (open)
//     |                                v
//     |                    forward at the granted T, retrying transient
//     |                    failures with exponential backoff
//     |                                |
//     |                    numeric scan of logits (NaN/Inf/explosion)
//     |                                |--> governor.record(healthy)
//     |                                v
//     |                     kOk / kDegraded / kError / kExpired
//     |
//   watchdog thread: fulfills kTimeout on any slot past its hard timeout,
//   bounding client waits even if a worker wedges mid-forward.
//
// Threading model: SnnNetwork carries mutable per-sequence state, so each
// worker owns a private replica built by the NetworkFactory; the queue,
// governor, health monitor, and fault hooks are shared (all thread-safe).
// reset_state() is called before every batch, making each batch a pure
// function of (weights, inputs, T) — see the SnnNetwork isolation contract.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/util/mutex.h"

#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/robust/health.h"
#include "src/serve/batcher.h"
#include "src/serve/bounded_queue.h"
#include "src/serve/overload.h"
#include "src/serve/request.h"
#include "src/serve/time_step_governor.h"
#include "src/snn/snn_network.h"

namespace ullsnn::artifact {
class ModelRegistry;
}  // namespace ullsnn::artifact

namespace ullsnn::obs {
class HttpEndpoint;
struct HttpResponse;
}  // namespace ullsnn::obs

namespace ullsnn::serve {

/// Builds one network replica per worker. Replicas must share weights'
/// values (same conversion) but own their runtime state.
using NetworkFactory = std::function<std::unique_ptr<snn::SnnNetwork>()>;

/// Live-operations layer: request-scoped tracing, flight recorder, the
/// embedded /metrics endpoint, and SLO tracking. Stage timings, the flight
/// recorder, and the engine's ledger (ServeStats, the serve.* series) are
/// always on (engine-owned and off the per-element hot path); only the
/// endpoint itself is opt-in.
struct ServeObsConfig {
  /// Serve /metrics (Prometheus exposition), /healthz, and /flight over an
  /// embedded blocking-socket HTTP endpoint while the engine runs.
  bool endpoint = false;
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one from http_port().
  int port = 0;
  /// Where the flight recorder auto-dumps JSONL on anomalies (watchdog
  /// timeout, breaker open, registry auto-rollback, std::terminate). Empty
  /// disables auto-dumps; recording continues regardless.
  std::string flight_dump_path;
  /// Latency objective + target behind the serve.slo.* gauges and the
  /// error-budget burn rate exported at /metrics.
  obs::SloConfig slo;
};

/// How often the watchdog sweeps in-flight requests for hard timeouts: a
/// timed-out client is released at most this long after its request_timeout.
inline constexpr std::chrono::milliseconds kWatchdogPeriod{10};

struct ServeConfig {
  /// Capacity of the interactive admission lane.
  std::int64_t queue_capacity = 256;
  /// Capacity of the batch lane; <= 0 means "same as queue_capacity". A
  /// separate lane capacity keeps a batch flood from consuming interactive
  /// admission slots (and vice versa).
  std::int64_t batch_queue_capacity = -1;
  std::int64_t workers = 1;
  BatcherConfig batcher;
  /// The T ladder and its health thresholds; queue pressure moves the same
  /// ladder (see time_step_governor.h).
  GovernorConfig governor;
  /// CoDel queueing-delay shedding, per priority lane (see overload.h).
  CoDelConfig codel;
  /// Default per-request deadline when submit() is not given one.
  std::chrono::milliseconds default_deadline{250};
  /// Hard per-request timeout enforced by the watchdog, measured from
  /// admission. Must be >= any deadline for deadlines to be meaningful.
  std::chrono::milliseconds request_timeout{1000};
  /// Forward attempts per batch (1 = no retry).
  std::int64_t max_attempts = 3;
  /// Initial retry backoff; doubles per attempt (0 disables sleeping, which
  /// keeps chaos tests fast while preserving the retry path).
  std::chrono::microseconds retry_backoff{200};
  /// Expected single-request input shape, e.g. {3, 32, 32}. Mismatching
  /// submissions are rejected at admission.
  Shape input_shape;
  /// Live-operations layer (endpoint, flight dumps, SLO).
  ServeObsConfig obs;

  // ---- chaos hooks (tests / bench_load; null in production) ----
  /// Called before each forward attempt with the batch's request ids and the
  /// attempt index. Throwing simulates a transiently failing step; pair with
  /// robust::FaultInjector to corrupt real state.
  std::function<void(const std::vector<std::int64_t>& ids, std::int64_t attempt,
                     snn::SnnNetwork& net)>
      before_forward_hook;
  /// Called after a successful forward; may corrupt `logits` (e.g. via
  /// FaultInjector::inject_tensor) to exercise the governor's numeric checks.
  std::function<void(const std::vector<std::int64_t>& ids, Tensor& logits)>
      after_forward_hook;
  /// Called with the batch's request ids after micro-batch formation but
  /// before the pre-dispatch deadline re-check. Sleeping here makes the
  /// dequeue -> dispatch expiry window deterministic in tests.
  std::function<void(const std::vector<std::int64_t>& ids)> before_dispatch_hook;
};

/// Result of an admission attempt. On rejection `future` is invalid and
/// `response` already holds the terminal kRejected answer.
struct SubmitResult {
  bool accepted = false;
  ResponseFuture future;
  InferResponse response;  // filled only when !accepted
};

/// Engine-owned counters, exact so tests can assert totals; /metrics renders
/// the same ledger. Conservation (exact, established by the slot's winning
/// critical section):
///
///   submitted = accepted + rejected + shed_admission
///   accepted  = completed_ok + completed_degraded + shed_deadline +
///               shed_load + unavailable + timeouts + errors
struct ServeStats {
  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;        // all admission rejections
  std::int64_t shed_admission = 0;  // kExpired: deadline already past at submit
  std::int64_t shed_deadline = 0;   // kExpired after admission (pre/post-run)
  std::int64_t shed_load = 0;       // kShed: CoDel load shedding, in-deadline
  std::int64_t completed_ok = 0;
  std::int64_t completed_degraded = 0;
  std::int64_t completed_interactive = 0;  // successes in the interactive class
  std::int64_t completed_batch = 0;        // successes in the batch class
  std::int64_t unavailable = 0;
  std::int64_t timeouts = 0;
  std::int64_t errors = 0;
  std::int64_t retries = 0;
  std::int64_t batches = 0;
  std::int64_t swaps = 0;  // worker replica rebuilds after a registry flip
  std::int64_t brownout_level = 0;        // governor's current load rung
  std::int64_t brownout_escalations = 0;  // load rungs descended
  std::int64_t brownout_recoveries = 0;   // load rungs climbed back
};

class ServeEngine {
 public:
  ServeEngine(ServeConfig config, NetworkFactory factory);
  /// Registry mode: workers build zero-copy replicas from the registry's
  /// active artifact and poll `registry->version()` between batches. When it
  /// changes, the in-flight batch finishes on the old replica (drain — no
  /// request is ever dropped by a swap) and the worker rebuilds from the new
  /// snapshot. Each batch's health verdict is fed back via
  /// record_batch_health, which is what arms the registry's auto-rollback.
  /// The registry must already have an active version; if
  /// config.input_shape is empty it is taken from the active artifact.
  ServeEngine(ServeConfig config, std::shared_ptr<artifact::ModelRegistry> registry);
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Spawn worker + watchdog threads. Idempotent.
  void start();
  /// Stop accepting, drain the queue as kRejected("engine stopped"), join
  /// all threads. Idempotent; also run by the destructor.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Admission-controlled, non-blocking submit. `image` must match
  /// config.input_shape. Deadlines propagate as absolute time points (see
  /// SubmitOptions); a request whose deadline already passed is shed at
  /// admission with a typed kExpired outcome (`accepted == false`, counted
  /// as shed_admission, never rejected silently).
  SubmitResult submit(Tensor image, const SubmitOptions& options);
  /// Convenience overload: relative deadline, interactive priority. A
  /// negative deadline means "use the default"; zero means "no deadline".
  SubmitResult submit(Tensor image,
                      std::chrono::milliseconds deadline = std::chrono::milliseconds(-1)) {
    SubmitOptions options;
    options.deadline = deadline;
    return submit(std::move(image), options);
  }

  ServeStats stats() const;
  const TimeStepGovernor& governor() const { return governor_; }
  const CoDelController& codel() const { return codel_; }
  std::int64_t queue_depth() const { return queue_.depth(); }
  std::int64_t queue_peak_depth() const { return queue_.peak_depth(); }
  std::int64_t lane_depth(Priority p) const {
    return queue_.lane_depth(static_cast<std::size_t>(p));
  }

  /// Actual port of the embedded endpoint (config.obs.endpoint); 0 when the
  /// endpoint is disabled or the engine is not running.
  int http_port() const;

  /// Registry mode only: how many workers currently serve the registry's
  /// active version (== config.workers once a swap has fully propagated).
  std::int64_t workers_on_active() const;
  const std::shared_ptr<artifact::ModelRegistry>& registry() const {
    return registry_;
  }

 private:
  void worker_loop(std::int64_t worker_index);
  void watchdog_loop();
  /// Returns the batch's health verdict (false = all forward attempts failed
  /// or the logits failed the numeric scan). Refused/empty batches are not
  /// evidence of model damage and return true.
  bool run_batch(snn::SnnNetwork& net, MicroBatch&& batch,
                 std::int64_t worker_index);
  /// Terminal fulfillment: stamps id/total_ms, completes the slot, records
  /// the request into the flight recorder and observes the latency histograms. Returns whether this call won the
  /// first-fulfillment race (losers record nothing). The recording runs
  /// inside the slot's winning critical section — before any waiter wakes —
  /// so exported counters are conserved from the client's point of view;
  /// `on_win` (optional, must not throw) joins that section for caller-side
  /// counters that must share the same guarantee.
  bool fulfill(const SlotPtr& slot, InferResponse&& response,
               std::int64_t batch_size = 0, std::int64_t worker_index = -1,
               const std::function<void()>& on_win = nullptr);
  /// Status-keyed terminal counting, run inside the slot's winning critical
  /// section by fulfill(). Centralizing the increments there (instead of at
  /// each fulfill call site) closes the conservation hole where a caller
  /// counts an outcome, then loses the first-fulfillment race to the
  /// watchdog — the ledger in ServeStats holds exactly because exactly one
  /// party ever counts a terminal status per request.
  void count_terminal(ResponseStatus status, Priority priority);
  /// NaN/Inf/explosion scan of a batch's logits via the shared monitor.
  bool logits_healthy(const Tensor& logits) const;
  /// Build + start the embedded endpoint (config.obs.endpoint).
  void start_endpoint();
  obs::HttpResponse handle_healthz() const;
  /// The /metrics body: the process registry's instruments (kernels.*,
  /// pipeline.*) plus this engine's ledger, governor, queue and SLO series.
  /// Advances the SLO window.
  std::string render_metrics();

  ServeConfig config_;
  NetworkFactory factory_;                              // null in registry mode
  std::shared_ptr<artifact::ModelRegistry> registry_;   // null in factory mode
  /// Version each worker is serving (registry mode; 0 before start()).
  /// Workers store with release after the replica rebuild completes;
  /// workers_on_active() loads with acquire so a version match implies the
  /// rebuild it saw is fully visible.
  std::vector<std::atomic<std::uint64_t>> worker_versions_;
  LaneQueue<PendingRequest> queue_;
  MicroBatcher batcher_;
  TimeStepGovernor governor_;
  CoDelController codel_;
  robust::HealthMonitor monitor_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
  // running_/stopping_ are acquire/release: start() publishes fully
  // constructed worker state before flipping running_, and loops that observe
  // stopping_ must see everything stop() wrote before the flag.
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Relaxed: ids only need uniqueness, no ordering with other state.
  std::atomic<std::int64_t> next_id_{0};

  // Outstanding slots for the watchdog scan (pruned lazily as slots finish).
  mutable Mutex inflight_mu_;
  std::list<SlotPtr> inflight_ GUARDED_BY(inflight_mu_);

  // The engine's one ledger: stats() and /metrics both read it, and nothing
  // else counts a serve outcome. The instruments are engine-owned, never
  // registered with obs::Registry, so a scrape describes this engine alone.
  // One row per ServeStats counter, in reverse causal order (worker-side
  // tallies and terminal outcomes, then admission, then submitted): a scrape
  // reads them in this order, and submit() counts accepted before a worker
  // can pop the request, so a scrape that races live traffic still sees
  // accepted + rejected <= submitted and completed <= accepted.
  struct CounterSeries {
    const char* name;
    std::int64_t ServeStats::*field;
  };
  static constexpr std::array<CounterSeries, 16> kCounterSeries = {{
      {"serve.batches", &ServeStats::batches},
      {"serve.retries", &ServeStats::retries},
      {"serve.swaps", &ServeStats::swaps},
      {"serve.completed.ok", &ServeStats::completed_ok},
      {"serve.completed.degraded", &ServeStats::completed_degraded},
      {"serve.completed.interactive", &ServeStats::completed_interactive},
      {"serve.completed.batch", &ServeStats::completed_batch},
      {"serve.shed.deadline", &ServeStats::shed_deadline},
      {"serve.shed.load", &ServeStats::shed_load},
      {"serve.unavailable", &ServeStats::unavailable},
      {"serve.timeouts", &ServeStats::timeouts},
      {"serve.errors", &ServeStats::errors},
      {"serve.accepted", &ServeStats::accepted},
      {"serve.rejected", &ServeStats::rejected},
      {"serve.shed.admission", &ServeStats::shed_admission},
      {"serve.submitted", &ServeStats::submitted},
  }};
  static constexpr std::size_t counter_slot(std::int64_t ServeStats::*field) {
    std::size_t slot = 0;
    while (slot < kCounterSeries.size() && kCounterSeries[slot].field != field) {
      ++slot;
    }
    return slot;
  }
  /// The ledger counter behind one ServeStats field.
  template <std::int64_t ServeStats::*kField>
  obs::Counter& counter() {
    static_assert(counter_slot(kField) < kCounterSeries.size(),
                  "ServeStats field has no row in kCounterSeries");
    return counters_[counter_slot(kField)];
  }
  std::array<obs::Counter, kCounterSeries.size()> counters_;
  obs::Histogram batch_size_;
  obs::Histogram latency_total_ms_;
  obs::Histogram latency_queue_ms_;
  obs::Histogram latency_batch_ms_;
  obs::Histogram latency_infer_ms_;
  obs::Histogram latency_step_ms_;
  // Windows over latency_total_ms_. Advanced only by /metrics scrapes, so
  // each exposition's serve.slo.* gauges describe exactly the interval since
  // the previous scrape.
  obs::SloTracker slo_;
  std::unique_ptr<obs::HttpEndpoint> endpoint_;
};

}  // namespace ullsnn::serve
