#include "src/serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "src/artifact/model_registry.h"
#include "src/obs/exposition.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/http_endpoint.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/util/timer.h"

namespace ullsnn::serve {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

robust::GuardConfig monitor_config() {
  robust::GuardConfig gc;
  gc.policy = robust::GuardPolicy::kOff;  // engine only uses the scan, not the policy
  return gc;
}

/// Millisecond-scale latency buckets for the serve.latency.* histograms:
/// fine enough that the SLO tracker's within-bucket interpolation keeps
/// percentile error small around typical objectives (tens to hundreds of
/// milliseconds), bounded at 10 s (beyond that the watchdog owns the story).
const std::vector<double>& serve_latency_bounds() {
  static const std::vector<double> bounds = {
      0.05, 0.1, 0.25, 0.5, 1.0,  2.5,   5.0,   10.0,   25.0,
      50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
  return bounds;
}

const std::vector<double>& batch_size_bounds() {
  static const std::vector<double> bounds = {1, 2, 4, 8, 16, 32, 64};
  return bounds;
}

}  // namespace

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kDegraded: return "degraded";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kExpired: return "expired";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kTimeout: return "timeout";
    case ResponseStatus::kUnavailable: return "unavailable";
    case ResponseStatus::kError: return "error";
  }
  return "unknown";
}

ServeEngine::ServeEngine(ServeConfig config, NetworkFactory factory)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      worker_versions_(static_cast<std::size_t>(
          config_.workers > 0 ? config_.workers : 0)),
      queue_({config_.queue_capacity,
              config_.batch_queue_capacity > 0 ? config_.batch_queue_capacity
                                               : config_.queue_capacity}),
      batcher_(config_.batcher),
      governor_(config_.governor),
      codel_(config_.codel),
      monitor_(monitor_config()),
      batch_size_(batch_size_bounds()),
      latency_total_ms_(serve_latency_bounds()),
      latency_queue_ms_(serve_latency_bounds()),
      latency_batch_ms_(serve_latency_bounds()),
      latency_infer_ms_(serve_latency_bounds()),
      latency_step_ms_(serve_latency_bounds()),
      slo_(config_.obs.slo, latency_total_ms_) {
  if (config_.queue_capacity <= 0) {
    throw std::invalid_argument("ServeEngine: queue_capacity must be positive");
  }
  if (config_.workers <= 0) {
    throw std::invalid_argument("ServeEngine: workers must be positive");
  }
  if (config_.max_attempts <= 0) {
    throw std::invalid_argument("ServeEngine: max_attempts must be positive");
  }
  if (config_.input_shape.empty()) {
    throw std::invalid_argument("ServeEngine: input_shape must be set");
  }
  if (!factory_) {
    throw std::invalid_argument("ServeEngine: network factory must be set");
  }
}

ServeEngine::ServeEngine(ServeConfig config,
                         std::shared_ptr<artifact::ModelRegistry> registry)
    : ServeEngine(
          [&config, &registry]() -> ServeConfig {
            if (registry == nullptr) {
              throw std::invalid_argument("ServeEngine: registry must be set");
            }
            if (!registry->has_active()) {
              throw std::invalid_argument(
                  "ServeEngine: registry has no active version; deploy first");
            }
            if (config.input_shape.empty()) {
              config.input_shape = registry->active().artifact->input_shape();
            }
            return std::move(config);
          }(),
          // Placeholder factory so the delegated ctor's validation passes;
          // registry-mode workers build replicas from snapshots instead.
          NetworkFactory([] { return std::unique_ptr<snn::SnnNetwork>(); })) {
  registry_ = std::move(registry);
  factory_ = nullptr;
}

ServeEngine::~ServeEngine() { stop(); }

void ServeEngine::start() {
  if (running_.load(std::memory_order_acquire)) return;
  stopping_.store(false, std::memory_order_release);
  // Build every replica up front so a broken factory (or an empty registry)
  // fails loudly here rather than inside a worker thread.
  std::vector<std::unique_ptr<snn::SnnNetwork>> replicas;
  if (registry_ == nullptr) {
    replicas.reserve(static_cast<std::size_t>(config_.workers));
    for (std::int64_t w = 0; w < config_.workers; ++w) {
      auto net = factory_();
      if (net == nullptr || net->empty()) {
        throw std::runtime_error("ServeEngine: factory produced an empty network");
      }
      replicas.push_back(std::move(net));
    }
  } else if (registry_->active().artifact == nullptr) {
    throw std::runtime_error("ServeEngine: registry has no active artifact");
  }
  if (!config_.obs.flight_dump_path.empty()) {
    obs::FlightRecorder::instance().set_dump_path(config_.obs.flight_dump_path);
    obs::FlightRecorder::install_terminate_handler();
  }
  start_endpoint();  // before workers: scrapes see the engine from its first batch
  running_.store(true, std::memory_order_release);
  for (std::int64_t w = 0; w < config_.workers; ++w) {
    std::shared_ptr<snn::SnnNetwork> prebuilt;
    if (registry_ == nullptr) {
      prebuilt = std::shared_ptr<snn::SnnNetwork>(
          std::move(replicas[static_cast<std::size_t>(w)]));
    }
    workers_.emplace_back([this, w, net = std::move(prebuilt)]() mutable {
      // Registry mode: `pinned` keeps the mmap alive for exactly as long as
      // this worker's replica borrows weights from it.
      std::shared_ptr<const artifact::UllsnnArtifact> pinned;
      std::uint64_t version = 0;
      if (registry_ != nullptr) {
        const auto snap = registry_->active();
        pinned = snap.artifact;
        version = snap.version;
        net = pinned->make_network();
        worker_versions_[static_cast<std::size_t>(w)].store(
            version, std::memory_order_release);
      }
      while (!stopping_.load(std::memory_order_acquire)) {
        if (registry_ != nullptr && registry_->version() != version) {
          // Hot swap. The previous batch already completed on the old
          // replica (drain — no request is lost); rebuild zero-copy from
          // the new snapshot, then release the old mapping.
          const auto snap = registry_->active();
          pinned = snap.artifact;
          version = snap.version;
          net = pinned->make_network();
          worker_versions_[static_cast<std::size_t>(w)].store(
              version, std::memory_order_release);
          counter<&ServeStats::swaps>().add(1);
        }
        MicroBatch batch = batcher_.collect(queue_, &codel_);
        // One queue-pressure observation per collect (including empty polls,
        // which are evidence of relief and let the load rung recover).
        governor_.observe_queue(static_cast<double>(queue_.depth()) /
                                static_cast<double>(queue_.total_capacity()));
        if (batch.empty()) continue;
        const bool healthy = run_batch(*net, std::move(batch), w);
        if (registry_ != nullptr) registry_->record_batch_health(version, healthy);
      }
    });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
  obs::logf(obs::LogLevel::kInfo,
            "[serve] engine started: %lld worker(s), queue capacity %lld",
            static_cast<long long>(config_.workers),
            static_cast<long long>(config_.queue_capacity));
}

void ServeEngine::start_endpoint() {
  if (!config_.obs.endpoint) return;
  obs::HttpEndpoint::Config http;
  http.bind_address = config_.obs.bind_address;
  http.port = config_.obs.port;
  endpoint_ = std::make_unique<obs::HttpEndpoint>(http);
  endpoint_->route("/metrics", [this](const std::string&, const std::string&) {
    obs::HttpResponse response;
    response.body = render_metrics();
    return response;
  });
  endpoint_->route("/healthz", [this](const std::string&, const std::string&) {
    return handle_healthz();
  });
  endpoint_->route("/flight", [](const std::string&, const std::string&) {
    obs::HttpResponse response;
    response.content_type = "application/x-ndjson";
    response.body = obs::FlightRecorder::instance().render_jsonl();
    return response;
  });
  endpoint_->start();
}

obs::HttpResponse ServeEngine::handle_healthz() const {
  const BreakerState state = governor_.state();
  const std::int64_t time_steps = governor_.time_steps();
  const bool unavailable =
      state == BreakerState::kOpen || state == BreakerState::kHalfOpen;
  const char* verdict = "ok";
  if (unavailable) {
    verdict = "unavailable";
  } else if (time_steps < governor_.full_time_steps()) {
    // Whichever signal, health or load, lowered the granted T.
    verdict = "degraded";
  }
  std::string body;
  body.reserve(256);
  body += R"({"status":")";
  body += verdict;
  body += R"(","breaker":")";
  body += to_string(state);
  body += R"(","time_steps":)";
  body += std::to_string(time_steps);
  body += R"(,"queue_depth":)";
  body += std::to_string(queue_.depth());
  body += R"(,"queue_capacity":)";
  body += std::to_string(queue_.total_capacity());
  body += R"(,"queue_capacity_interactive":)";
  body += std::to_string(queue_.capacity(0));
  body += R"(,"queue_capacity_batch":)";
  body += std::to_string(queue_.capacity(1));
  body += R"(,"workers":)";
  body += std::to_string(config_.workers);
  if (registry_ != nullptr) {
    body += R"(,"registry_version":)";
    body += std::to_string(registry_->version());
    body += R"(,"workers_on_active":)";
    body += std::to_string(workers_on_active());
  }
  body += "}\n";
  obs::HttpResponse response;
  // A load balancer keeps routing to a degraded engine (it still answers,
  // just at reduced T) but drains one whose circuit is open.
  response.status = unavailable ? 503 : 200;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

int ServeEngine::http_port() const {
  return endpoint_ != nullptr ? endpoint_->port() : 0;
}

void ServeEngine::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  queue_.close();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Fail whatever the workers never picked up.
  PendingRequest leftover;
  while (queue_.try_pop(&leftover)) {
    leftover.popped = Clock::now();  // never reached the batcher
    InferResponse r;
    r.status = ResponseStatus::kUnavailable;
    r.reason = "engine stopped before execution";
    fulfill(leftover.slot, std::move(r));
  }
  if (watchdog_.joinable()) watchdog_.join();
  {
    MutexLock lock(inflight_mu_);
    inflight_.clear();
  }
  if (endpoint_ != nullptr) {
    endpoint_->stop();
    endpoint_.reset();
  }
  obs::logf(obs::LogLevel::kInfo, "[serve] engine stopped");
}

SubmitResult ServeEngine::submit(Tensor image, const SubmitOptions& options) {
  SubmitResult result;
  counter<&ServeStats::submitted>().add(1);
  const auto reject = [&](const std::string& reason) {
    counter<&ServeStats::rejected>().add(1);
    result.accepted = false;
    result.response.status = ResponseStatus::kRejected;
    result.response.reason = reason;
    return result;
  };
  if (!running_.load(std::memory_order_acquire)) {
    return reject("engine not running");
  }
  if (image.shape() != config_.input_shape) {
    return reject("input shape " + shape_to_string(image.shape()) +
                  " != expected " + shape_to_string(config_.input_shape));
  }
  const auto now = Clock::now();
  // Deadline resolution: an absolute deadline (propagated from upstream)
  // wins; otherwise the relative one is stamped here, with zero meaning "no
  // deadline" and negative meaning "engine default".
  Clock::time_point deadline;
  if (options.absolute_deadline != Clock::time_point{}) {
    deadline = options.absolute_deadline;
  } else {
    const auto relative = options.deadline.count() < 0 ? config_.default_deadline
                                                       : options.deadline;
    deadline = relative.count() == 0 ? kNoDeadline : now + relative;
  }
  if (deadline != kNoDeadline && now >= deadline) {
    // Admission-time shed: the work is already hopeless, so don't spend a
    // queue slot on it. Typed outcome, counted in its own ledger bucket
    // (submitted = accepted + rejected + shed_admission).
    counter<&ServeStats::shed_admission>().add(1);
    result.accepted = false;
    result.response.status = ResponseStatus::kExpired;
    result.response.reason = "deadline already expired at admission";
    return result;
  }
  auto slot = std::make_shared<ResponseSlot>(
      next_id_.fetch_add(1, std::memory_order_relaxed), now, deadline,
      options.priority);
  PendingRequest pending{slot, std::move(image), now};
  const auto lane = static_cast<std::size_t>(options.priority);
  // Counted inside the queue's admission section, before any worker can pop
  // the request, so no outcome is ever counted ahead of its acceptance.
  const AdmitError err = queue_.try_push(std::move(pending), lane, [this] {
    counter<&ServeStats::accepted>().add(1);
  });
  if (err != AdmitError::kNone) {
    return reject(to_string(err));
  }
  {
    MutexLock lock(inflight_mu_);
    inflight_.push_back(slot);
  }
  result.accepted = true;
  result.future = ResponseFuture(slot);
  return result;
}

void ServeEngine::count_terminal(ResponseStatus status, Priority priority) {
  switch (status) {
    case ResponseStatus::kOk:
      counter<&ServeStats::completed_ok>().add(1);
      break;
    case ResponseStatus::kDegraded:
      counter<&ServeStats::completed_degraded>().add(1);
      break;
    case ResponseStatus::kExpired:
      counter<&ServeStats::shed_deadline>().add(1);
      break;
    case ResponseStatus::kShed:
      counter<&ServeStats::shed_load>().add(1);
      break;
    case ResponseStatus::kTimeout:
      counter<&ServeStats::timeouts>().add(1);
      break;
    case ResponseStatus::kUnavailable:
      counter<&ServeStats::unavailable>().add(1);
      break;
    case ResponseStatus::kError:
      counter<&ServeStats::errors>().add(1);
      break;
    case ResponseStatus::kRejected:
      break;  // counted at admission; rejected requests never reach a slot
  }
  if (is_success(status)) {
    if (priority == Priority::kInteractive) {
      counter<&ServeStats::completed_interactive>().add(1);
    } else {
      counter<&ServeStats::completed_batch>().add(1);
    }
  }
}

bool ServeEngine::fulfill(const SlotPtr& slot, InferResponse&& response,
                          std::int64_t batch_size, std::int64_t worker_index,
                          const std::function<void()>& on_win) {
  response.id = slot->id();
  response.total_ms = ms_between(slot->enqueue_time(), Clock::now());
  const double total_ms = response.total_ms;
  // Copy the flat trace fields out before fulfill() moves the response to
  // the client: the recorder must never touch client-owned memory.
  obs::RequestRecord record;
  record.id = response.id;
  std::snprintf(record.status, sizeof record.status, "%s",
                to_string(response.status));
  record.time_steps = response.time_steps;
  record.retries = response.retries;
  record.batch_size = batch_size;
  record.worker = worker_index;
  record.queue_ms = response.queue_ms;
  record.batch_ms = response.batch_ms;
  record.infer_ms = response.infer_ms;
  record.total_ms = total_ms;
  record.steps = static_cast<std::int32_t>(
      std::min<std::size_t>(response.step_ms.size(),
                            obs::RequestRecord::kMaxSteps));
  for (std::int32_t s = 0; s < record.steps; ++s) {
    record.step_ms[s] = response.step_ms[static_cast<std::size_t>(s)];
  }
  record.ts_us = obs::FlightRecorder::now_us();
  const ResponseStatus status = response.status;
  return slot->fulfill(std::move(response), [&] {
    count_terminal(status, slot->priority());
    if (on_win) on_win();
    obs::FlightRecorder::instance().record_request(record);
    latency_total_ms_.observe(total_ms);
  });
}

bool ServeEngine::logits_healthy(const Tensor& logits) const {
  robust::HealthReport report;
  monitor_.scan_tensor("serve.logits", logits, report);
  return report.healthy();
}

bool ServeEngine::run_batch(snn::SnnNetwork& net, MicroBatch&& batch,
                            std::int64_t worker_index) {
  // Tag every log line from this batch with its lead request id so logs
  // join against flight-recorder records.
  const std::int64_t lead_id = !batch.requests.empty()
                                   ? batch.requests.front().slot->id()
                                   : (!batch.expired.empty()
                                          ? batch.expired.front().slot->id()
                                          : (!batch.shed.empty()
                                                 ? batch.shed.front().slot->id()
                                                 : -1));
  obs::LogRequestScope rid_scope(lead_id);
  const auto picked_up = Clock::now();
  for (auto& expired : batch.expired) {
    InferResponse r;
    r.status = ResponseStatus::kExpired;
    r.reason = "deadline passed before execution";
    r.queue_ms = ms_between(expired.slot->enqueue_time(), expired.popped);
    r.batch_ms = ms_between(expired.popped, picked_up);
    fulfill(expired.slot, std::move(r), 0, worker_index);
  }
  for (auto& shed : batch.shed) {
    InferResponse r;
    r.status = ResponseStatus::kShed;
    r.reason = "load shed: standing queueing delay over CoDel target";
    r.queue_ms = ms_between(shed.slot->enqueue_time(), shed.popped);
    r.batch_ms = ms_between(shed.popped, picked_up);
    fulfill(shed.slot, std::move(r), 0, worker_index);
  }
  if (batch.requests.empty()) return true;

  if (config_.before_dispatch_hook) {
    std::vector<std::int64_t> pending_ids;
    pending_ids.reserve(batch.requests.size());
    for (const auto& request : batch.requests) {
      pending_ids.push_back(request.slot->id());
    }
    config_.before_dispatch_hook(pending_ids);
  }
  // Pre-dispatch re-check: deadlines can expire between dequeue and dispatch
  // (batch formation waits, a stalled worker, a slow collect). Shed them now
  // rather than spending forward-pass time on work that is already dead.
  {
    const auto dispatch_now = Clock::now();
    std::vector<PendingRequest> alive;
    alive.reserve(batch.requests.size());
    for (auto& request : batch.requests) {
      if (request.slot->has_deadline() &&
          dispatch_now >= request.slot->deadline()) {
        InferResponse r;
        r.status = ResponseStatus::kExpired;
        r.reason = "deadline passed before dispatch";
        r.queue_ms = ms_between(request.slot->enqueue_time(), request.popped);
        r.batch_ms = ms_between(request.popped, dispatch_now);
        fulfill(request.slot, std::move(r), 0, worker_index);
      } else {
        alive.push_back(std::move(request));
      }
    }
    batch.requests = std::move(alive);
  }
  if (batch.requests.empty()) return true;
  counter<&ServeStats::batches>().add(1);
  batch_size_.observe(static_cast<double>(batch.requests.size()));

  const TimeStepGovernor::Decision decision = governor_.admit();
  if (!decision.allow) {
    for (auto& request : batch.requests) {
      InferResponse r;
      r.status = ResponseStatus::kUnavailable;
      r.reason = "circuit open";
      r.queue_ms = ms_between(request.slot->enqueue_time(), request.popped);
      r.batch_ms = ms_between(request.popped, picked_up);
      fulfill(request.slot, std::move(r),
              static_cast<std::int64_t>(batch.requests.size()), worker_index);
    }
    // A refused batch never touched the network: no verdict on the model.
    return true;
  }

  // Assemble [B, C, H, W] from the per-request [C, H, W] inputs.
  const std::int64_t batch_size = static_cast<std::int64_t>(batch.requests.size());
  Shape batch_shape;
  batch_shape.reserve(config_.input_shape.size() + 1);
  batch_shape.push_back(batch_size);
  for (const std::int64_t d : config_.input_shape) batch_shape.push_back(d);
  Tensor inputs(batch_shape);
  const std::int64_t sample_numel = shape_numel(config_.input_shape);
  std::vector<std::int64_t> ids;
  ids.reserve(static_cast<std::size_t>(batch_size));
  for (std::int64_t i = 0; i < batch_size; ++i) {
    const PendingRequest& request = batch.requests[static_cast<std::size_t>(i)];
    std::memcpy(inputs.data() + i * sample_numel, request.image.data(),
                static_cast<std::size_t>(sample_numel) * sizeof(float));
    ids.push_back(request.slot->id());
  }

  // Forward with retry: an exception from the network (or a chaos hook) and
  // numerically corrupt logits both count as a failed attempt. reset_state()
  // makes every attempt start from pristine membranes, so a transient fault
  // does not poison the retry.
  Tensor logits;
  bool success = false;
  std::int64_t retries_used = 0;
  std::string last_error = "numeric fault in logits";
  Timer infer_timer;
  double infer_ms = 0.0;
  std::vector<double> step_ms;          // per-time-step durations (final attempt)
  std::vector<double> attempt_step_ms;  // scratch for the attempt in flight
  for (std::int64_t attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_used;
      counter<&ServeStats::retries>().add(1);
      if (config_.retry_backoff.count() > 0) {
        std::this_thread::sleep_for(config_.retry_backoff * (1LL << (attempt - 1)));
      }
    }
    try {
      infer_timer.reset();
      if (config_.before_forward_hook) {
        config_.before_forward_hook(ids, attempt, net);
      }
      net.set_time_steps(decision.time_steps);
      net.reset_state();
      // Per-time-step timing: wrap (not clobber) any step hook a chaos test
      // installed, so fault injection and timing compose. The wrapped hook
      // is restored before the attempt resolves either way.
      const snn::SnnNetwork::StepHook chained = net.step_hook();
      attempt_step_ms.clear();
      auto step_start = Clock::now();
      net.set_step_hook([&chained, &attempt_step_ms, &step_start](
                            snn::SnnNetwork& n, std::int64_t t) {
        if (chained) chained(n, t);
        const auto now = Clock::now();
        attempt_step_ms.push_back(ms_between(step_start, now));
        step_start = now;
      });
      Tensor out;
      try {
        out = net.forward(inputs, /*train=*/false);
      } catch (...) {
        net.set_step_hook(chained);
        throw;
      }
      net.set_step_hook(chained);
      if (config_.after_forward_hook) config_.after_forward_hook(ids, out);
      infer_ms = infer_timer.millis();
      step_ms = attempt_step_ms;
      if (!logits_healthy(out)) {
        last_error = "numeric fault in logits";
        continue;
      }
      logits = std::move(out);
      success = true;
      break;
    } catch (const std::exception& e) {
      infer_ms = infer_timer.millis();
      last_error = e.what();
    }
  }
  governor_.record(success);
  for (const double s : step_ms) latency_step_ms_.observe(s);

  if (!success) {
    for (auto& request : batch.requests) {
      InferResponse r;
      r.status = ResponseStatus::kError;
      r.reason = "all " + std::to_string(config_.max_attempts) +
                 " attempts failed: " + last_error;
      r.retries = retries_used;
      r.time_steps = decision.time_steps;
      r.queue_ms = ms_between(request.slot->enqueue_time(), request.popped);
      r.batch_ms = ms_between(request.popped, picked_up);
      r.infer_ms = infer_ms;
      r.step_ms = step_ms;
      fulfill(request.slot, std::move(r), batch_size, worker_index);
    }
    return false;
  }

  const bool degraded =
      decision.time_steps < governor_.full_time_steps() || decision.probe;
  const std::int64_t classes = logits.numel() / batch_size;
  const auto finished = Clock::now();
  for (std::int64_t i = 0; i < batch_size; ++i) {
    const PendingRequest& request = batch.requests[static_cast<std::size_t>(i)];
    InferResponse r;
    r.retries = retries_used;
    r.time_steps = decision.time_steps;
    r.queue_ms = ms_between(request.slot->enqueue_time(), request.popped);
    r.batch_ms = ms_between(request.popped, picked_up);
    r.infer_ms = infer_ms;
    r.step_ms = step_ms;
    if (request.slot->has_deadline() && finished >= request.slot->deadline()) {
      r.status = ResponseStatus::kExpired;
      r.reason = "completed after deadline";
    } else {
      r.status = degraded ? ResponseStatus::kDegraded : ResponseStatus::kOk;
      if (degraded) r.reason = "served at reduced T";
      r.logits = Tensor({classes});
      std::memcpy(r.logits.data(), logits.data() + i * classes,
                  static_cast<std::size_t>(classes) * sizeof(float));
      r.predicted = r.logits.argmax();
      latency_queue_ms_.observe(r.queue_ms);
      latency_batch_ms_.observe(r.batch_ms);
      latency_infer_ms_.observe(r.infer_ms);
    }
    fulfill(request.slot, std::move(r), batch_size, worker_index);
  }
  return true;
}

void ServeEngine::watchdog_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(kWatchdogPeriod);
    const auto now = Clock::now();
    MutexLock lock(inflight_mu_);
    for (auto it = inflight_.begin(); it != inflight_.end();) {
      const SlotPtr& slot = *it;
      if (slot->done()) {
        it = inflight_.erase(it);
        continue;
      }
      if (now - slot->enqueue_time() >= config_.request_timeout) {
        obs::LogRequestScope rid_scope(slot->id());
        InferResponse r;
        r.status = ResponseStatus::kTimeout;
        r.reason = "request exceeded hard timeout";
        const double total_ms = ms_between(slot->enqueue_time(), now);
        // A worker may finish between the done() check above and here; the
        // timeout is counted (by count_terminal, inside the winning critical
        // section) only if this call wins the fulfillment race.
        if (fulfill(slot, std::move(r))) {
          obs::FlightRecorder::instance().note_anomaly(
              "watchdog", "request %lld exceeded hard timeout after %.1f ms",
              static_cast<long long>(slot->id()), total_ms);
          obs::logf(obs::LogLevel::kWarn,
                    "[serve] watchdog timed out request %lld after %.1f ms",
                    static_cast<long long>(slot->id()), total_ms);
        }
        it = inflight_.erase(it);
        continue;
      }
      ++it;
    }
  }
}

ServeStats ServeEngine::stats() const {
  ServeStats s;
  for (std::size_t i = 0; i < kCounterSeries.size(); ++i) {
    s.*kCounterSeries[i].field = counters_[i].value();
  }
  s.brownout_level = governor_.load_rung();
  s.brownout_escalations = governor_.load_escalations();
  s.brownout_recoveries = governor_.load_recoveries();
  return s;
}

std::string ServeEngine::render_metrics() {
  // Each scrape advances the SLO window, so each exposition describes the
  // interval between two scrapes — the natural pull-model window.
  const obs::SloTracker::Report slo = slo_.update();
  obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  // Histograms before counters: a racing scrape never sees more latency
  // samples than accepted requests.
  const auto histogram = [&snap](const char* name, const obs::Histogram& h) {
    snap.histograms.push_back(
        {name, h.bounds(), h.bucket_counts(), h.count(), h.sum()});
  };
  histogram("serve.batch.size", batch_size_);
  histogram("serve.latency.total_ms", latency_total_ms_);
  histogram("serve.latency.queue_ms", latency_queue_ms_);
  histogram("serve.latency.batch_ms", latency_batch_ms_);
  histogram("serve.latency.infer_ms", latency_infer_ms_);
  histogram("serve.latency.step_ms", latency_step_ms_);
  for (std::size_t i = 0; i < kCounterSeries.size(); ++i) {
    snap.counters.push_back({kCounterSeries[i].name, counters_[i].value()});
  }
  const auto gauge = [&snap](const char* name, double value) {
    snap.gauges.push_back({name, value});
  };
  gauge("serve.queue.depth", static_cast<double>(queue_.depth()));
  gauge("serve.queue.depth.interactive", static_cast<double>(queue_.lane_depth(0)));
  gauge("serve.queue.depth.batch", static_cast<double>(queue_.lane_depth(1)));

  const auto rung_t = [this](std::int64_t rung) {
    return static_cast<double>(config_.governor.ladder[static_cast<std::size_t>(rung)]);
  };
  const BreakerState state = governor_.state();
  const std::int64_t load_rung = governor_.load_rung();
  // Breaker state encoding: closed 0, degraded 1, open 2, half-open 3.
  gauge("serve.breaker.state", static_cast<double>(static_cast<int>(state)));
  gauge("serve.breaker.time_steps",
        state == BreakerState::kOpen ? 0.0 : rung_t(governor_.health_rung()));
  gauge("serve.overload.brownout_level", static_cast<double>(load_rung));
  gauge("serve.overload.brownout_time_steps", rung_t(load_rung));
  snap.counters.push_back({"serve.breaker.trips", governor_.trips()});
  snap.counters.push_back({"serve.breaker.probes", governor_.probes()});
  snap.counters.push_back({"serve.breaker.recoveries", governor_.recoveries()});
  snap.counters.push_back(
      {"serve.overload.brownout_escalations", governor_.load_escalations()});
  snap.counters.push_back(
      {"serve.overload.brownout_recoveries", governor_.load_recoveries()});
  gauge("serve.slo.p50_ms", slo.p50_ms);
  gauge("serve.slo.p95_ms", slo.p95_ms);
  gauge("serve.slo.p99_ms", slo.p99_ms);
  gauge("serve.slo.compliance", slo.compliance);
  gauge("serve.slo.burn", slo.burn);
  gauge("serve.slo.window_requests", static_cast<double>(slo.window_count));
  return obs::render_prometheus(snap);
}

std::int64_t ServeEngine::workers_on_active() const {
  if (registry_ == nullptr) return 0;
  const std::uint64_t v = registry_->version();
  std::int64_t n = 0;
  for (const auto& wv : worker_versions_) {
    if (wv.load(std::memory_order_acquire) == v) ++n;
  }
  return n;
}

}  // namespace ullsnn::serve
