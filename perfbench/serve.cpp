// serve-steady and serve-overload: an open-loop driver against ServeEngine.
//
// Load model: independent users with Poisson arrivals, generated from the
// seed before the run. One submitter thread sends each request when it is
// due, whatever the engine is doing; one collector thread polls every
// outstanding answer (no head-of-line blocking) and stamps when it is seen.
// Latency runs from the due time to that stamp, so a stall is charged to
// every request it delays. With the engine's 2 workers that is 4 busy
// threads.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "perfbench/model.h"
#include "perfbench/workloads.h"
#include "src/artifact/model_registry.h"
#include "src/serve/engine.h"

namespace perfbench {

namespace serve = ullsnn::serve;
namespace art = ullsnn::artifact;

namespace {

constexpr std::int64_t kWorkers = 2;

// ---- schedule --------------------------------------------------------------

struct Planned {
  double due_s = 0.0;
  std::int64_t image = 0;
  serve::Priority priority = serve::Priority::kInteractive;
  double deadline_ms = 0.0;
};

/// Uniform double in [0, 1) from the top 53 bits (portable, unlike
/// std::uniform_real_distribution).
double uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Poisson arrivals conditioned on their count: exactly qps * seconds
/// requests at sorted uniform times, so every seed offers the same load.
std::vector<Planned> make_schedule(const ServeSpec& spec, std::uint64_t seed,
                                   double seconds) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + 0x5E7E);
  // Each pool image is used equally often, in a seeded order, so served
  // accuracy does not depend on which images the draw favoured.
  std::vector<std::int64_t> order(static_cast<std::size_t>(kServePool));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::int64_t>(i);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng() % (i + 1));
    std::swap(order[i], order[j]);
  }
  std::vector<Planned> plan(static_cast<std::size_t>(std::llround(spec.qps * seconds)));
  std::vector<double> due(plan.size());
  for (double& t : due) t = uniform(rng) * seconds;
  std::sort(due.begin(), due.end());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    Planned& p = plan[k];
    p.due_s = due[k];
    p.image = order[k % order.size()];
    const bool interactive = uniform(rng) < spec.interactive_fraction;
    p.priority = interactive ? serve::Priority::kInteractive : serve::Priority::kBatch;
    const double* range =
        interactive ? spec.interactive_deadline_ms : spec.batch_deadline_ms;
    p.deadline_ms = range[0] + uniform(rng) * (range[1] - range[0]);
  }
  return plan;
}

// ---- engine hooks ----------------------------------------------------------

/// One forward attempt of one micro-batch, as seen by the engine's hooks.
struct BatchEvent {
  std::vector<std::int64_t> ids;
  Clock::time_point before{};
  Clock::time_point after{};
};

/// Receives the engine's before/after forward hooks. Always records which
/// replicas have answered (warm-up); records batch events only when traced.
class HookRecorder {
 public:
  explicit HookRecorder(bool traced) : traced_(traced) {}

  void before(const std::vector<std::int64_t>& ids, std::int64_t attempt,
              const ullsnn::snn::SnnNetwork& net) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    answered_.insert(&net);
    if (!traced_ || ids.empty()) return;
    if (attempt == 0) {
      open_[ids.front()] = events_.size();
      events_.push_back({ids, now, {}});
    }
  }
  void after(const std::vector<std::int64_t>& ids) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (!traced_ || ids.empty()) return;
    const auto it = open_.find(ids.front());
    if (it != open_.end()) events_[it->second].after = now;
  }
  std::size_t answered() const {
    std::lock_guard<std::mutex> lock(mu_);
    return answered_.size();
  }
  std::vector<BatchEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  const bool traced_;
  mutable std::mutex mu_;
  std::set<const ullsnn::snn::SnnNetwork*> answered_;
  std::map<std::int64_t, std::size_t> open_;
  std::vector<BatchEvent> events_;
};

// ---- batch-1 reference -----------------------------------------------------

/// Batch-1 answers of the served artifact for every pool image at T = 1..3.
struct Reference {
  std::int64_t classes = 0;
  std::vector<std::vector<float>> logits;  // [T-1][image * classes + k]
  std::vector<std::vector<std::int64_t>> predicted;
  double accuracy[3] = {0, 0, 0};

  const float* row(std::int64_t t, std::int64_t image) const {
    return logits[static_cast<std::size_t>(t - 1)].data() + image * classes;
  }
};

Reference make_reference(const art::UllsnnArtifact& artifact,
                         const ullsnn::data::LabeledImages& pool) {
  Reference ref;
  auto net = artifact.make_network();
  for (std::int64_t t = 1; t <= kTimeSteps; ++t) {
    net->set_time_steps(t);
    std::vector<float> all;
    std::vector<std::int64_t> predicted;
    std::int64_t correct = 0;
    for (std::int64_t i = 0; i < pool.size(); ++i) {
      net->reset_state();
      const Tensor logits = net->forward(batch_of(pool, {i}), false);
      ref.classes = logits.numel();
      all.insert(all.end(), logits.data(), logits.data() + logits.numel());
      predicted.push_back(argmax_row(logits.data(), ref.classes));
      if (predicted.back() == pool.labels[static_cast<std::size_t>(i)]) ++correct;
    }
    ref.accuracy[t - 1] = static_cast<double>(correct) / static_cast<double>(pool.size());
    ref.logits.push_back(std::move(all));
    ref.predicted.push_back(std::move(predicted));
  }
  return ref;
}

/// Aggregate batch-1 evaluation throughput: kEvalThreads replicas of the
/// served artifact, one per thread, each cycling through the pool and
/// answering every image at T = 1, 2 and 3. Several replicas at once average
/// out how fast each core happens to be (on a shared machine a single
/// thread's speed swings with its core). After kEvalWarmupS seconds of
/// warm-up (idle cores come up slowly), the rate is the median over
/// kEvalWindows consecutive windows of kEvalWindowS seconds.
double eval_throughput(const art::UllsnnArtifact& artifact,
                       const std::vector<Tensor>& images) {
  std::vector<std::unique_ptr<ullsnn::snn::SnnNetwork>> replicas;
  for (std::int64_t w = 0; w < kEvalThreads; ++w) replicas.push_back(artifact.make_network());
  // answered[w][k]: answers thread w completed in window k.
  std::vector<std::vector<std::int64_t>> answered(
      static_cast<std::size_t>(kEvalThreads), std::vector<std::int64_t>(kEvalWindows, 0));
  const auto seconds = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  };
  const Clock::time_point warm_end = Clock::now() + seconds(kEvalWarmupS);
  Clock::time_point begin{};
  std::barrier start(kEvalThreads, [&]() noexcept { begin = Clock::now(); });
  run_threads(kEvalThreads, [&](std::int64_t w) {
    ullsnn::snn::SnnNetwork& net = *replicas[static_cast<std::size_t>(w)];
    std::size_t i = static_cast<std::size_t>(w) * images.size() / kEvalThreads;
    // Answers image i at T = 1, 2, 3; true once `until` has passed.
    const auto answer_all = [&](Clock::time_point until, std::int64_t* counter) {
      Shape shape = images[i].shape();
      shape.insert(shape.begin(), 1);
      const Tensor batch = images[i].reshape(shape);
      for (std::int64_t t = 1; t <= kTimeSteps; ++t) {
        net.set_time_steps(t);
        net.reset_state();
        net.forward(batch, false);
        if (Clock::now() >= until) return true;
        if (counter != nullptr) ++*counter;
      }
      i = (i + 1) % images.size();
      return false;
    };
    while (!answer_all(warm_end, nullptr)) {
    }
    start.arrive_and_wait();
    const auto window = seconds(kEvalWindowS);
    for (std::size_t k = 0; k < static_cast<std::size_t>(kEvalWindows); ++k) {
      const Clock::time_point until = begin + window * static_cast<std::int64_t>(k + 1);
      while (!answer_all(until, &answered[static_cast<std::size_t>(w)][k])) {
      }
    }
  });
  std::vector<double> rates;
  std::printf("eval: answers/s per window:");
  for (std::size_t k = 0; k < static_cast<std::size_t>(kEvalWindows); ++k) {
    std::int64_t total = 0;
    for (const auto& counts : answered) total += counts[k];
    rates.push_back(static_cast<double>(total) / kEvalWindowS);
    std::printf(" %.0f", rates.back());
  }
  std::printf("\n");
  return median(rates);
}

// ---- engine bring-up -------------------------------------------------------

struct PhaseCounts {
  std::int64_t sent = 0, succeeded = 0, failed = 0;
};

void print_phase(const char* phase, const PhaseCounts& c) {
  std::printf("phase %-10s sent %lld succeeded %lld failed %lld\n", phase,
              static_cast<long long>(c.sent), static_cast<long long>(c.succeeded),
              static_cast<long long>(c.failed));
}

/// A started engine whose workers have all answered once.
struct Server {
  std::shared_ptr<HookRecorder> hooks;
  std::vector<std::unique_ptr<LayerTimer>> timers;  // outlive the replicas
  std::vector<double> replica_us;
  std::unique_ptr<serve::ServeEngine> engine;
  double setup_s = 0.0;
  double deploy_ms = 0.0;
  PhaseCounts warmup;
};

std::unique_ptr<Server> bring_up(const std::string& artifact_path, bool traced,
                                 const Tensor& warm_image) {
  auto server = std::make_unique<Server>();
  Server& s = *server;
  s.hooks = std::make_shared<HookRecorder>(traced);
  const Clock::time_point begin = Clock::now();

  auto registry = std::make_shared<art::ModelRegistry>();
  registry->deploy(artifact_path);  // load (CRC) + bit-exact canary
  s.deploy_ms = seconds_since(begin) * 1e3;
  const art::ModelRegistry::Snapshot snapshot = registry->active();

  serve::ServeConfig config;
  config.workers = kWorkers;
  config.queue_capacity = 64;
  config.batch_queue_capacity = 64;
  config.batcher.max_batch = 8;
  config.default_deadline = std::chrono::milliseconds(250);
  config.request_timeout = std::chrono::milliseconds(20000);
  config.max_attempts = 2;
  config.retry_backoff = std::chrono::microseconds(50);
  config.input_shape = snapshot.artifact->input_shape();
  const std::shared_ptr<HookRecorder> hooks = s.hooks;
  config.before_forward_hook = [hooks](const std::vector<std::int64_t>& ids,
                                       std::int64_t attempt,
                                       ullsnn::snn::SnnNetwork& net) {
    hooks->before(ids, attempt, net);
  };
  config.after_forward_hook = [hooks](const std::vector<std::int64_t>& ids,
                                      Tensor&) { hooks->after(ids); };
  // Factory mode over the deployed artifact: zero-copy replicas exactly as
  // registry mode builds them, with a place to attach the layer timer.
  Server* self = &s;
  const serve::NetworkFactory factory = [snapshot, traced, self] {
    const Clock::time_point a = Clock::now();
    auto net = snapshot.artifact->make_network();
    self->replica_us.push_back(ms_between(a, Clock::now()) * 1e3);
    if (traced) {
      self->timers.push_back(std::make_unique<LayerTimer>());
      self->timers.back()->attach(*net);
    }
    return net;
  };
  s.engine = std::make_unique<serve::ServeEngine>(config, factory);
  s.engine->start();

  // Warm-up, excluded from every measurement: until each worker has
  // answered at least once. Each round queues kWorkers + 1 full batches at
  // once: the batcher coalesces back-to-back requests, so a round of one
  // request per worker can land as one batch on one worker every time, but
  // a full batch is dispatched at once and the next worker takes the next.
  for (int round = 0; round < 50 && s.hooks->answered() < kWorkers; ++round) {
    std::vector<serve::ResponseFuture> futures;
    for (std::int64_t k = 0; k < (kWorkers + 1) * config.batcher.max_batch; ++k) {
      serve::SubmitOptions options;
      options.deadline = std::chrono::milliseconds(0);  // no deadline
      serve::SubmitResult r = s.engine->submit(warm_image, options);
      ++s.warmup.sent;
      if (r.accepted) {
        futures.push_back(std::move(r.future));
      } else {
        ++s.warmup.failed;
      }
    }
    for (const serve::ResponseFuture& f : futures) {
      if (serve::is_success(f.get().status)) {
        ++s.warmup.succeeded;
      } else {
        ++s.warmup.failed;
      }
    }
  }
  if (s.hooks->answered() < kWorkers) {
    throw std::runtime_error("warm-up: not every worker answered");
  }
  s.setup_s = seconds_since(begin);
  return server;
}

// ---- open-loop driver ------------------------------------------------------

struct RequestResult {
  Clock::time_point due{};
  Clock::time_point submit_start{};
  Clock::time_point submit_end{};
  Clock::time_point seen{};
  double lag_ms = 0.0;  // generator lateness (not time blocked in submit)
  bool accepted = false;
  serve::ResponseStatus status = serve::ResponseStatus::kError;
  std::int64_t id = -1;
  std::int64_t time_steps = 0;
  bool valid = false;          // finite logits, T in 1..3, predicted == argmax
  bool correct = false;        // predicted == label
  bool match_argmax = false;   // equals the batch-1 reference answer
  bool match_bitwise = false;
};

struct DriveReport {
  std::vector<RequestResult> results;
  Clock::time_point start{};  // time zero of the schedule
  serve::ServeStats before;
  serve::ServeStats after;
};

DriveReport drive(serve::ServeEngine& engine, const std::vector<Planned>& plan,
                  const std::vector<Tensor>& pool_images,
                  const std::vector<std::int64_t>& labels,
                  const Reference& ref) {
  DriveReport report;
  report.results.resize(plan.size());
  report.before = engine.stats();

  std::mutex handoff_mu;
  std::vector<std::pair<std::size_t, serve::ResponseFuture>> handoff;
  bool submitter_done = false;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  report.start = t0;

  std::thread collector([&] {
    std::vector<std::pair<std::size_t, serve::ResponseFuture>> outstanding;
    std::vector<std::pair<std::size_t, serve::ResponseFuture>> incoming;
    while (true) {
      bool done = false;
      {
        std::lock_guard<std::mutex> lock(handoff_mu);
        incoming.swap(handoff);
        done = submitter_done;
      }
      std::move(incoming.begin(), incoming.end(), std::back_inserter(outstanding));
      incoming.clear();
      bool progressed = false;
      for (std::size_t i = 0; i < outstanding.size();) {
        if (!outstanding[i].second.ready()) {
          ++i;
          continue;
        }
        const Clock::time_point seen = Clock::now();
        const serve::InferResponse response = outstanding[i].second.get();
        const std::size_t k = outstanding[i].first;
        RequestResult& r = report.results[k];
        r.seen = seen;
        r.status = response.status;
        r.time_steps = response.time_steps;
        if (serve::is_success(response.status)) {
          const std::int64_t classes = ref.classes;
          const float* logits = response.logits.data();
          const std::int64_t t = response.time_steps;
          const std::int64_t image = plan[k].image;
          r.valid = response.logits.numel() == classes && t >= 1 &&
                    t <= kTimeSteps && all_finite(logits, classes) &&
                    response.predicted == argmax_row(logits, classes);
          if (r.valid) {
            r.correct = response.predicted == labels[static_cast<std::size_t>(image)];
            r.match_argmax =
                response.predicted == ref.predicted[static_cast<std::size_t>(t - 1)]
                                                   [static_cast<std::size_t>(image)];
            r.match_bitwise = bitwise_equal(logits, ref.row(t, image), classes);
          }
        }
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
        progressed = true;
      }
      if (done && outstanding.empty()) break;
      if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  std::thread submitter([&] {
    Clock::time_point previous_end = t0;
    for (std::size_t k = 0; k < plan.size(); ++k) {
      Tensor image = pool_images[static_cast<std::size_t>(plan[k].image)];
      RequestResult& r = report.results[k];
      r.due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan[k].due_s));
      std::this_thread::sleep_until(r.due);
      const Clock::time_point wake = Clock::now();
      r.lag_ms = std::max(0.0, ms_between(std::max(r.due, previous_end), wake));
      serve::SubmitOptions options;
      options.priority = plan[k].priority;
      options.absolute_deadline =
          r.due + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(plan[k].deadline_ms));
      r.submit_start = Clock::now();
      serve::SubmitResult submitted = engine.submit(std::move(image), options);
      r.submit_end = Clock::now();
      previous_end = r.submit_end;
      r.accepted = submitted.accepted;
      if (submitted.accepted) {
        r.id = submitted.future.id();
        std::lock_guard<std::mutex> lock(handoff_mu);
        handoff.emplace_back(k, std::move(submitted.future));
      } else {
        r.status = submitted.response.status;
        r.seen = r.submit_end;
      }
    }
    std::lock_guard<std::mutex> lock(handoff_mu);
    submitter_done = true;
  });

  submitter.join();
  collector.join();
  report.after = engine.stats();
  return report;
}

/// Ledger of one driven phase, counted by the benchmark.
struct Ledger {
  std::int64_t sent = 0, accepted = 0, rejected = 0, shed_admission = 0;
  std::int64_t successes = 0, shed = 0, failed = 0;
};

Ledger count(const DriveReport& report) {
  Ledger l;
  for (const RequestResult& r : report.results) {
    ++l.sent;
    if (!r.accepted) {
      if (r.status == serve::ResponseStatus::kExpired) {
        ++l.shed_admission;
      } else {
        ++l.rejected;
      }
    } else if (serve::is_success(r.status)) {
      ++l.accepted;
      ++l.successes;
    } else if (serve::is_shed(r.status)) {
      ++l.accepted;
      ++l.shed;
    } else {
      ++l.accepted;
      ++l.failed;
    }
  }
  return l;
}

/// Output checks shared by every driven phase.
void check_phase(const char* phase, const DriveReport& report, Outcome& out) {
  const Ledger l = count(report);
  const std::string p = phase;
  out.check(l.sent == l.accepted + l.rejected + l.shed_admission,
            p + ": sent != accepted + rejected + shed_admission");
  out.check(l.accepted == l.successes + l.shed + l.failed,
            p + ": accepted != successes + shed + failed");
  const serve::ServeStats& a = report.after;
  const serve::ServeStats& b = report.before;
  out.check(a.submitted - b.submitted == l.sent, p + ": ServeStats submitted delta");
  out.check(a.accepted - b.accepted == l.accepted, p + ": ServeStats accepted delta");
  out.check(a.rejected - b.rejected == l.rejected, p + ": ServeStats rejected delta");
  out.check(a.shed_admission - b.shed_admission == l.shed_admission,
            p + ": ServeStats shed_admission delta");
  out.check((a.completed_ok + a.completed_degraded) -
                    (b.completed_ok + b.completed_degraded) ==
                l.successes,
            p + ": ServeStats successes delta");
  out.check((a.shed_deadline + a.shed_load) - (b.shed_deadline + b.shed_load) == l.shed,
            p + ": ServeStats shed delta");
  out.check((a.unavailable + a.timeouts + a.errors) -
                    (b.unavailable + b.timeouts + b.errors) ==
                l.failed,
            p + ": ServeStats failed delta");
  out.check(l.failed == 0, p + ": " + std::to_string(l.failed) +
                               " request(s) failed (error, timeout or unavailable)");
  std::int64_t invalid = 0;
  std::int64_t matches = 0;
  for (const RequestResult& r : report.results) {
    if (!serve::is_success(r.status)) continue;
    if (!r.valid) ++invalid;
    if (r.match_argmax) ++matches;
  }
  out.check(invalid == 0, p + ": " + std::to_string(invalid) +
                              " answer(s) with non-finite logits, bad T or "
                              "predicted != argmax");
  const double match = l.successes > 0 ? static_cast<double>(matches) /
                                             static_cast<double>(l.successes)
                                       : 0.0;
  out.check(l.successes > 0 && match >= kAnswerMatchBound,
            p + ": answer match share " + std::to_string(match) + " < " +
                std::to_string(kAnswerMatchBound));
  PhaseCounts c{l.sent, l.successes, l.sent - l.successes};
  print_phase(phase, c);
  std::printf("  ledger: accepted %lld rejected %lld shed_admission %lld "
              "shed %lld failed %lld\n",
              static_cast<long long>(l.accepted), static_cast<long long>(l.rejected),
              static_cast<long long>(l.shed_admission), static_cast<long long>(l.shed),
              static_cast<long long>(l.failed));
}

/// Latencies (due -> seen) of successful interactive requests.
std::vector<double> interactive_latencies(const DriveReport& report,
                                          const std::vector<Planned>& plan) {
  std::vector<double> out;
  for (std::size_t k = 0; k < report.results.size(); ++k) {
    const RequestResult& r = report.results[k];
    if (plan[k].priority == serve::Priority::kInteractive &&
        serve::is_success(r.status)) {
      out.push_back(ms_between(r.due, r.seen));
    }
  }
  return out;
}

/// Generator lateness: a run is invalid when the driver, not the engine,
/// was late: p99 wake-up lag above 10 ms or any above 100 ms.
void check_driver(const std::vector<double>& lags, Outcome& out, double* p99,
                  double* max_lag) {
  *p99 = percentile(lags, 0.99);
  *max_lag = lags.empty() ? 0.0 : *std::max_element(lags.begin(), lags.end());
  std::printf("driver: lag p99 %.3f ms, max %.3f ms over %zu sends\n", *p99,
              *max_lag, lags.size());
  out.check(*p99 <= 10.0 && *max_lag <= 100.0,
            "driver: generator ran late; the run is invalid");
}

std::string artifact_name(const ServeSpec& spec) {
  return std::string(spec.name) + "_" + ullsnn::to_string(spec.precision) + ".art";
}

bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  const std::string da((std::istreambuf_iterator<char>(fa)), std::istreambuf_iterator<char>());
  const std::string db((std::istreambuf_iterator<char>(fb)), std::istreambuf_iterator<char>());
  return !da.empty() && da == db;
}

}  // namespace

Outcome run_serve(const RunOptions& options, const ServeSpec& spec) {
  Outcome out;
  Metrics& m = out.metrics;
  const Inputs inputs = make_inputs(kServePool);
  // The served artifact, converted kConvertRepeats times: convert_s is the
  // median, and every packed file must be byte-identical.
  const std::string artifact_path = options.state_dir + "/" + artifact_name(spec);
  auto dnn = load_fixture(options.state_dir + "/fixture.ckpt");
  std::vector<double> convert_s, collect_s, plan_ms, convert_ms, pack_ms;
  std::unique_ptr<ullsnn::snn::SnnNetwork> converted;
  for (int rep = 0; rep < kConvertRepeats; ++rep) {
    const std::string path = artifact_path + (rep == 0 ? "" : ".again");
    Conversion c = convert_and_pack(*dnn, inputs.train, path, spec.precision);
    convert_s.push_back(c.total_s());
    collect_s.push_back(c.collect_s);
    plan_ms.push_back(c.plan_ms);
    convert_ms.push_back(c.convert_ms);
    pack_ms.push_back(c.pack_ms);
    if (rep > 0) {
      out.check(same_bytes(artifact_path, path), "conversion is not repeatable");
      std::filesystem::remove(path);
    }
    converted = std::move(c.net);
  }

  const auto artifact = art::UllsnnArtifact::load(artifact_path);
  const Reference ref = make_reference(*artifact, inputs.heldout);
  std::printf("reference (batch 1, %s): accuracy T1 %.4f T2 %.4f T3 %.4f\n",
              ullsnn::to_string(spec.precision), ref.accuracy[0], ref.accuracy[1],
              ref.accuracy[2]);
  out.check(ref.accuracy[2] >= 0.25, "T=3 accuracy is near chance");

  std::vector<Tensor> pool_images;
  for (std::int64_t i = 0; i < inputs.heldout.size(); ++i) {
    pool_images.push_back(image_at(inputs.heldout, i));
  }
  const std::vector<std::int64_t>& labels = inputs.heldout.labels;

  if (!options.trace) {
    const double images_per_s = eval_throughput(*artifact, pool_images);
    // Set-up, repeated; the last engine serves the measured phase.
    std::vector<double> setup_s;
    std::unique_ptr<Server> server;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      if (server) server->engine->stop();
      server = bring_up(artifact_path, false, pool_images.front());
      setup_s.push_back(server->setup_s);
      print_phase("warmup", server->warmup);
    }
    const std::vector<Planned> plan = make_schedule(spec, options.seed, options.seconds);
    const DriveReport report = drive(*server->engine, plan, pool_images, labels, ref);
    server->engine->stop();
    check_phase("measure", report, out);
    std::vector<double> lags;
    for (const RequestResult& r : report.results) lags.push_back(r.lag_ms);
    double lag_p99 = 0.0, lag_max = 0.0;
    check_driver(lags, out, &lag_p99, &lag_max);

    const Ledger l = count(report);
    std::int64_t interactive_sent = 0, within = 0, correct = 0;
    for (std::size_t k = 0; k < plan.size(); ++k) {
      const RequestResult& r = report.results[k];
      if (serve::is_success(r.status) && r.correct) ++correct;
      if (plan[k].priority != serve::Priority::kInteractive) continue;
      ++interactive_sent;
      if (serve::is_success(r.status) && ms_between(r.due, r.seen) <= spec.slo_ms) ++within;
    }
    const std::vector<double> lat = interactive_latencies(report, plan);
    std::printf("latency: %zu interactive successes, p50 %.3f ms, p99 %.3f ms\n",
                lat.size(), percentile(lat, 0.50), percentile(lat, 0.99));
    Clock::time_point last = report.start;
    for (const RequestResult& r : report.results) last = std::max(last, r.seen);

    m.set("setup_s", median(setup_s), "s");
    m.set("slo_attainment",
          static_cast<double>(within) / static_cast<double>(std::max<std::int64_t>(1, interactive_sent)),
          "ratio");
    m.set("goodput_qps", static_cast<double>(l.successes) / (ms_between(report.start, last) / 1e3),
          "1/s");
    m.set("served_accuracy",
          static_cast<double>(correct) / static_cast<double>(std::max<std::int64_t>(1, l.successes)),
          "ratio");
    m.set("eval_images_per_s", images_per_s, "1/s");
    m.set("accuracy_t1", ref.accuracy[0], "ratio");
    m.set("accuracy_t2", ref.accuracy[1], "ratio");
    m.set("accuracy_t3", ref.accuracy[2], "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    out.attempted = l.sent;
    out.failed = l.failed;
    return out;
  }

  // Traced run: two rounds of an untraced quarter then a traced quarter on
  // the same schedule, each on a fresh engine. Their latency_p50_ms ratio is
  // the tracing overhead; alternating cancels slow drift of the machine.
  const double quarter = options.seconds / 4.0;
  const std::vector<Planned> plan = make_schedule(spec, options.seed, quarter);
  std::vector<double> plain_latency, traced_latency, replica_us, deploy_ms, lags;
  std::vector<std::unique_ptr<Server>> servers;  // traced engines (stopped)
  std::vector<DriveReport> traced;
  for (int round = 0; round < 2; ++round) {
    for (const bool timed : {false, true}) {
      std::unique_ptr<Server> server = bring_up(artifact_path, timed, pool_images.front());
      print_phase("warmup", server->warmup);
      DriveReport report = drive(*server->engine, plan, pool_images, labels, ref);
      server->engine->stop();
      check_phase(timed ? "traced" : "untraced", report, out);
      out.attempted += static_cast<std::int64_t>(plan.size());
      out.failed += count(report).failed;
      std::vector<double> lat = interactive_latencies(report, plan);
      (timed ? traced_latency : plain_latency).insert(
          (timed ? traced_latency : plain_latency).end(), lat.begin(), lat.end());
      for (const RequestResult& r : report.results) lags.push_back(r.lag_ms);
      replica_us.insert(replica_us.end(), server->replica_us.begin(), server->replica_us.end());
      deploy_ms.push_back(server->deploy_ms);
      if (timed) {
        servers.push_back(std::move(server));
        traced.push_back(std::move(report));
      }
    }
  }

  SpanLog spans;
  std::vector<double> submit_us, wait_ms, forward_ms, complete_us, batch_sizes;
  std::vector<ForwardRecord> records;
  double covered_ms = 0.0, total_ms = 0.0, sent = 0.0, rung_changes = 0.0;
  std::int64_t successes = 0, rung[3] = {0, 0, 0}, shed = 0, rejected = 0;
  std::int64_t match_argmax = 0, match_bitwise = 0;
  for (std::size_t round = 0; round < traced.size(); ++round) {
    const DriveReport& report = traced[round];
    // Join the engine's batch events to requests by engine request id.
    std::map<std::int64_t, std::size_t> event_of;
    const std::vector<BatchEvent> events = servers[round]->hooks->events();
    for (std::size_t e = 0; e < events.size(); ++e) {
      batch_sizes.push_back(static_cast<double>(events[e].ids.size()));
      for (const std::int64_t id : events[e].ids) event_of[id] = e;
    }
    sent += static_cast<double>(report.results.size());
    rung_changes += static_cast<double>(
        (report.after.brownout_escalations - report.before.brownout_escalations) +
        (report.after.brownout_recoveries - report.before.brownout_recoveries));
    for (const RequestResult& r : report.results) {
      const std::int64_t root = spans.add("request", r.due, r.seen, -1, r.id);
      spans.add("submit", r.submit_start, r.submit_end, root, r.id);
      submit_us.push_back(ms_between(r.submit_start, r.submit_end) * 1e3);
      if (!r.accepted) {
        if (r.status == serve::ResponseStatus::kExpired) {
          ++shed;
        } else {
          ++rejected;
        }
        continue;
      }
      if (serve::is_shed(r.status)) ++shed;
      if (!serve::is_success(r.status)) continue;
      ++successes;
      if (r.match_argmax) ++match_argmax;
      if (r.match_bitwise) ++match_bitwise;
      if (r.time_steps >= 1 && r.time_steps <= 3) ++rung[r.time_steps - 1];
      const auto it = event_of.find(r.id);
      if (it == event_of.end()) continue;
      const BatchEvent& e = events[it->second];
      spans.add("wait", r.submit_end, e.before, root, r.id);
      spans.add("forward", e.before, e.after, root, r.id);
      spans.add("complete", e.after, r.seen, root, r.id);
      wait_ms.push_back(ms_between(r.submit_end, e.before));
      forward_ms.push_back(ms_between(e.before, e.after));
      complete_us.push_back(ms_between(e.after, r.seen) * 1e3);
      covered_ms += ms_between(r.submit_start, r.submit_end) + wait_ms.back() +
                    forward_ms.back() + complete_us.back() / 1e3;
      total_ms += ms_between(r.due, r.seen);
    }
    for (const auto& timer : servers[round]->timers) {
      for (const ForwardRecord& f : timer->records()) {
        const std::int64_t root = spans.add("snn.forward", f.start, f.end);
        Clock::time_point step_start = f.start;
        for (const Clock::time_point step_end : f.step_end) {
          spans.add("snn.step", step_start, step_end, root);
          step_start = step_end;
        }
        records.push_back(f);
      }
    }
  }

  const double ok = std::max<double>(1.0, static_cast<double>(successes));
  m.set("serve.submit_us.p50", percentile(submit_us, 0.50), "us");
  m.set("serve.submit_us.p99", percentile(submit_us, 0.99), "us");
  m.set("serve.wait_ms.p50", percentile(wait_ms, 0.50), "ms");
  m.set("serve.wait_ms.p99", percentile(wait_ms, 0.99), "ms");
  m.set("serve.forward_ms.p50", percentile(forward_ms, 0.50), "ms");
  m.set("serve.forward_ms.p99", percentile(forward_ms, 0.99), "ms");
  m.set("serve.complete_us.p50", percentile(complete_us, 0.50), "us");
  m.set("serve.batch_size.mean", mean(batch_sizes), "count");
  m.set("serve.t_mean", (rung[0] + 2.0 * rung[1] + 3.0 * rung[2]) / ok, "steps");
  m.set("serve.rung_share.t1", rung[0] / ok, "ratio");
  m.set("serve.rung_share.t2", rung[1] / ok, "ratio");
  m.set("serve.rung_share.t3", rung[2] / ok, "ratio");
  m.set("serve.rung_changes_per_s", rung_changes / (2.0 * quarter), "1/s");
  m.set("serve.shed_share", static_cast<double>(shed) / sent, "ratio");
  m.set("serve.reject_share", static_cast<double>(rejected) / sent, "ratio");
  m.set("serve.residual_share", total_ms > 0.0 ? 1.0 - covered_ms / total_ms : 0.0, "ratio");
  m.set("serve.answer_match_share", match_argmax / ok, "ratio");
  m.set("serve.answer_bitwise_share", match_bitwise / ok, "ratio");
  double lag_p99 = 0.0, lag_max = 0.0;
  check_driver(lags, out, &lag_p99, &lag_max);
  m.set("driver.lag_p99_ms", lag_p99, "ms");
  m.set("driver.lag_max_ms", lag_max, "ms");
  std::printf("latency: %zu untraced interactive successes\n", plain_latency.size());
  m.set("latency_p50_ms", percentile(plain_latency, 0.50), "ms");
  m.set("latency_p99_ms", percentile(plain_latency, 0.99), "ms");
  const double p50_plain = percentile(plain_latency, 0.5);
  const double p50_traced = percentile(traced_latency, 0.5);
  m.set("trace.overhead_share", p50_plain > 0.0 ? p50_traced / p50_plain - 1.0 : 0.0,
        "ratio");

  report_layer_records(records, weighted_layers(*artifact), m);
  report_batch_invariance(*converted, inputs.heldout, options.state_dir, m);
  const std::string fp32_path = options.state_dir + "/replay_fp32.art";
  art::PackOptions pack;
  pack.input_shape = artifact->input_shape();
  art::pack_network(*converted, fp32_path, pack);
  report_kernel_replay(fp32_path, inputs.heldout, m);

  std::vector<double> load_ms;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t = Clock::now();
    art::UllsnnArtifact::load(artifact_path);
    load_ms.push_back(ms_between(t, Clock::now()));
  }
  m.set("artifact.load_ms", median(load_ms), "ms");
  m.set("artifact.deploy_ms", median(deploy_ms), "ms");
  m.set("artifact.replica_us", median(replica_us), "us");
  m.set("artifact.pack_ms", median(pack_ms), "ms");
  m.set("convert_s", median(convert_s), "s");
  m.set("core.collect_s", median(collect_s), "s");
  m.set("core.plan_ms", median(plan_ms), "ms");
  m.set("core.convert_ms", median(convert_ms), "ms");

  std::printf("-- span self time (ms, traced quarters) --\n");
  for (const auto& [name, ms] : spans.self_ms()) {
    std::printf("  %-12s %12.3f\n", name.c_str(), ms);
  }
  if (!options.trace_path.empty() && !spans.write_jsonl(options.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
  }
  return out;
}

}  // namespace perfbench
