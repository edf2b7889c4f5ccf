// convert: offline, no engine. Collect activations, run Algorithm 1 and
// convert at T = 3, pack the fp32 artifact, then evaluate the packed replica
// on the fixed held-out set in batches of 64 at T = 1, 2 and 3, with
// kEvalThreads replicas sharing the batches. The cycle repeats for the run's
// duration; times are medians over cycles and the accuracies must repeat
// exactly in every cycle.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <random>

#include "perfbench/model.h"
#include "perfbench/workloads.h"
#include "src/artifact/model_registry.h"

namespace perfbench {

namespace art = ullsnn::artifact;

namespace {

/// Per-layer metrics of the serve layer, which this workload never calls:
/// reported as 0 so every traced run prints the same metric set.
constexpr const char* kServeOnly[][2] = {
    {"serve.submit_us.p50", "us"},   {"serve.submit_us.p99", "us"},
    {"serve.wait_ms.p50", "ms"},     {"serve.wait_ms.p99", "ms"},
    {"serve.forward_ms.p50", "ms"},  {"serve.forward_ms.p99", "ms"},
    {"serve.complete_us.p50", "us"}, {"serve.batch_size.mean", "count"},
    {"serve.t_mean", "steps"},       {"serve.rung_share.t1", "ratio"},
    {"serve.rung_share.t2", "ratio"}, {"serve.rung_share.t3", "ratio"},
    {"serve.rung_changes_per_s", "1/s"}, {"serve.shed_share", "ratio"},
    {"serve.reject_share", "ratio"}, {"serve.residual_share", "ratio"},
    {"serve.answer_match_share", "ratio"},
    {"serve.answer_bitwise_share", "ratio"},
    {"driver.lag_p99_ms", "ms"},     {"driver.lag_max_ms", "ms"},
};

struct Cycle {
  double convert_s = 0.0, collect_s = 0.0, plan_ms = 0.0, convert_ms = 0.0,
         pack_ms = 0.0, load_ms = 0.0, replica_us = 0.0;
  double eval_s = 0.0;
  std::vector<double> batch_ms[3];  // per T, one entry per batch
  std::int64_t correct[3] = {0, 0, 0};
  std::int64_t answers = 0;
  std::int64_t nonfinite = 0;
  bool replica_matches_live = false;
};

}  // namespace

Outcome run_convert(const RunOptions& options) {
  Outcome out;
  Metrics& m = out.metrics;
  const Inputs inputs = make_inputs(kConvertHeldout);
  const std::string fixture = options.state_dir + "/fixture.ckpt";

  std::vector<double> setup_s;
  std::unique_ptr<ullsnn::dnn::Sequential> dnn;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const Clock::time_point t = Clock::now();
    dnn = load_fixture(fixture);
    setup_s.push_back(seconds_since(t));
  }

  // Batch composition comes from the seed: a seeded order of the held-out set.
  std::vector<std::int64_t> order(static_cast<std::size_t>(inputs.heldout.size()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::int64_t>(i);
  std::mt19937_64 rng(options.seed * 0x9E3779B97F4A7C15ULL + 0xC0DE);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng() % (i + 1))]);
  }
  std::vector<Tensor> batches;
  std::vector<std::vector<std::int64_t>> batch_labels;
  for (std::size_t b = 0; b < order.size(); b += kEvalBatch) {
    const std::vector<std::int64_t> members(
        order.begin() + static_cast<std::ptrdiff_t>(b),
        order.begin() + static_cast<std::ptrdiff_t>(std::min(order.size(), b + kEvalBatch)));
    batches.push_back(batch_of(inputs.heldout, members));
    std::vector<std::int64_t> labels;
    for (const std::int64_t i : members) labels.push_back(inputs.heldout.labels[static_cast<std::size_t>(i)]);
    batch_labels.push_back(std::move(labels));
  }

  const std::string artifact_path = options.state_dir + "/convert_fp32.art";
  std::vector<Cycle> cycles;
  std::vector<ForwardRecord> records;
  std::vector<double> plain_ms, traced_ms;  // T = 3 batch latency, traced run
  std::unique_ptr<ullsnn::snn::SnnNetwork> converted;
  std::vector<WeightedLayer> layers;
  const Clock::time_point begin = Clock::now();
  while (cycles.size() < 3 || seconds_since(begin) < options.seconds) {
    Cycle c;
    Conversion conv = convert_and_pack(*dnn, inputs.train, artifact_path,
                                       Precision::kFp32);
    c.convert_s = conv.total_s();
    c.collect_s = conv.collect_s;
    c.plan_ms = conv.plan_ms;
    c.convert_ms = conv.convert_ms;
    c.pack_ms = conv.pack_ms;

    Clock::time_point t = Clock::now();
    const auto artifact = art::UllsnnArtifact::load(artifact_path);
    c.load_ms = ms_between(t, Clock::now());
    std::vector<std::unique_ptr<ullsnn::snn::SnnNetwork>> replicas;
    for (std::int64_t w = 0; w < kEvalThreads; ++w) {
      t = Clock::now();
      replicas.push_back(artifact->make_network());
      c.replica_us = ms_between(t, Clock::now()) * 1e3;
    }
    if (layers.empty()) layers = weighted_layers(*artifact);

    // In a traced run, every other cycle evaluates with layer timers on.
    const bool timed = options.trace && cycles.size() % 2 == 1;
    std::vector<LayerTimer> timers(static_cast<std::size_t>(kEvalThreads));
    if (timed) {
      for (std::int64_t w = 0; w < kEvalThreads; ++w) {
        timers[static_cast<std::size_t>(w)].attach(*replicas[static_cast<std::size_t>(w)]);
      }
    }

    // kEvalThreads replicas share the (T, batch) items of one evaluation
    // pass, longest (T = 3) first so the pass ends on short items; results
    // land in per-item slots, so the counts are exact.
    const std::size_t per_t = batches.size();
    const std::size_t items = static_cast<std::size_t>(kTimeSteps) * per_t;
    std::vector<double> item_ms(items, 0.0);
    std::vector<std::int64_t> item_correct(items, 0), item_nonfinite(items, 0);
    std::atomic<std::size_t> next{0};
    // Each thread warms its replica, its thread-local arena and its core
    // (idle during the single-threaded conversion) for kPassWarmupS; the
    // pass is timed from when the last one is ready.
    const Clock::time_point warm_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kPassWarmupS));
    Clock::time_point eval_begin{};
    std::barrier start(kEvalThreads, [&]() noexcept { eval_begin = Clock::now(); });
    run_threads(kEvalThreads, [&](std::int64_t w) {
      ullsnn::snn::SnnNetwork& net = *replicas[static_cast<std::size_t>(w)];
      do {
        net.reset_state();
        net.forward(batches.front(), false);
      } while (Clock::now() < warm_end);
      start.arrive_and_wait();
      for (std::size_t k = next++; k < items; k = next++) {
        const std::int64_t steps = kTimeSteps - static_cast<std::int64_t>(k / per_t);
        const std::size_t b = k % per_t;
        net.set_time_steps(steps);
        net.reset_state();
        const Clock::time_point start = Clock::now();
        const Tensor logits = net.forward(batches[b], false);
        item_ms[k] = ms_between(start, Clock::now());
        const std::int64_t n = static_cast<std::int64_t>(batch_labels[b].size());
        const std::int64_t classes = logits.numel() / n;
        for (std::int64_t j = 0; j < n; ++j) {
          const float* row = logits.data() + j * classes;
          if (!all_finite(row, classes)) ++item_nonfinite[k];
          if (argmax_row(row, classes) == batch_labels[b][static_cast<std::size_t>(j)]) {
            ++item_correct[k];
          }
        }
      }
    });
    c.eval_s = seconds_since(eval_begin);
    for (std::size_t k = 0; k < items; ++k) {
      const std::size_t ti = static_cast<std::size_t>(kTimeSteps - 1) - k / per_t;
      c.batch_ms[ti].push_back(item_ms[k]);
      c.correct[ti] += item_correct[k];
      c.nonfinite += item_nonfinite[k];
      c.answers += static_cast<std::int64_t>(batch_labels[k % per_t].size());
    }
    if (options.trace) {
      std::vector<double>& sink = timed ? traced_ms : plain_ms;
      sink.insert(sink.end(), c.batch_ms[2].begin(), c.batch_ms[2].end());
      for (const LayerTimer& timer : timers) {
        records.insert(records.end(), timer.records().begin(), timer.records().end());
      }
    }

    // The packed replica must answer exactly as the live conversion does.
    ullsnn::snn::SnnNetwork& replica = *replicas.front();
    replica.set_observer(nullptr);
    replica.clear_step_hook();
    replica.set_time_steps(kTimeSteps);
    replica.reset_state();
    conv.net->set_time_steps(kTimeSteps);
    conv.net->reset_state();
    const Tensor packed = replica.forward(batches.front(), false);
    const Tensor live = conv.net->forward(batches.front(), false);
    c.replica_matches_live = packed.numel() == live.numel() &&
                             bitwise_equal(packed.data(), live.data(), live.numel());
    std::printf("cycle %zu: convert %.3f s, eval %.1f images/s, T=3 batch p50 %.2f ms\n",
                cycles.size(), c.convert_s, static_cast<double>(c.answers) / c.eval_s,
                median(c.batch_ms[2]));
    converted = std::move(conv.net);
    cycles.push_back(std::move(c));
  }

  const Cycle& first = cycles.front();
  std::int64_t answers = 0, nonfinite = 0;
  for (const Cycle& c : cycles) {
    answers += c.answers;
    nonfinite += c.nonfinite;
    out.check(std::equal(std::begin(c.correct), std::end(c.correct), std::begin(first.correct)),
              "accuracy changed between conversion cycles");
    out.check(c.replica_matches_live, "packed replica differs from the live conversion");
  }
  out.check(nonfinite == 0, std::to_string(nonfinite) + " non-finite logit row(s)");
  const double heldout = static_cast<double>(inputs.heldout.size());
  const double accuracy[3] = {first.correct[0] / heldout, first.correct[1] / heldout,
                              first.correct[2] / heldout};
  out.check(accuracy[2] >= 0.25, "T=3 accuracy is near chance");
  std::printf("convert: %zu cycles; accuracy T1 %.4f T2 %.4f T3 %.4f\n",
              cycles.size(), accuracy[0], accuracy[1], accuracy[2]);
  std::printf("phase %-10s sent %lld succeeded %lld failed %lld\n", "evaluate",
              static_cast<long long>(answers),
              static_cast<long long>(answers - nonfinite),
              static_cast<long long>(nonfinite));
  out.attempted = answers;
  out.failed = nonfinite;

  const auto per_cycle = [&](double Cycle::*field) {
    std::vector<double> v;
    for (const Cycle& c : cycles) v.push_back(c.*field);
    return median(v);
  };
  // Batch latencies pooled over cycles; throughput is the median over cycles
  // of one evaluation pass's images per second.
  std::vector<double> batch_ms[3];
  std::vector<double> pass_images_per_s;
  for (const Cycle& c : cycles) {
    for (int t = 0; t < 3; ++t) {
      batch_ms[t].insert(batch_ms[t].end(), c.batch_ms[t].begin(), c.batch_ms[t].end());
    }
    pass_images_per_s.push_back(static_cast<double>(c.answers) / c.eval_s);
  }
  const double images_per_s = median(pass_images_per_s);
  const std::vector<double>& t3 = batch_ms[2];
  const double tail = supported_tail_quantile(t3.size());
  std::printf("latency: %zu T=3 batches of %lld; tail quantile %.3f\n", t3.size(),
              static_cast<long long>(kEvalBatch), tail);
  if (!options.trace) {
    std::int64_t within = 0;
    for (const double ms : t3) within += ms <= kConvertBatchSloMs ? 1 : 0;
    m.set("setup_s", median(setup_s), "s");
    m.set("slo_attainment", static_cast<double>(within) / static_cast<double>(t3.size()), "ratio");
    m.set("goodput_qps", images_per_s, "1/s");
    m.set("served_accuracy", accuracy[2], "ratio");
    m.set("eval_images_per_s", images_per_s, "1/s");
    m.set("accuracy_t1", accuracy[0], "ratio");
    m.set("accuracy_t2", accuracy[1], "ratio");
    m.set("accuracy_t3", accuracy[2], "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  m.set("latency_p50_ms", percentile(t3, 0.5), "ms");
  m.set("latency_p99_ms", percentile(t3, tail), "ms");
  for (const auto& [name, unit] : kServeOnly) m.set(name, 0.0, unit);
  const double p50_plain = median(plain_ms);
  m.set("trace.overhead_share", p50_plain > 0.0 ? median(traced_ms) / p50_plain - 1.0 : 0.0,
        "ratio");
  report_layer_records(records, layers, m);
  report_batch_invariance(*converted, inputs.heldout, options.state_dir, m);
  report_kernel_replay(artifact_path, inputs.heldout, m);
  {
    art::ModelRegistry registry;
    const Clock::time_point t = Clock::now();
    registry.deploy(artifact_path);
    m.set("artifact.deploy_ms", ms_between(t, Clock::now()), "ms");
  }
  m.set("artifact.load_ms", per_cycle(&Cycle::load_ms), "ms");
  m.set("artifact.replica_us", per_cycle(&Cycle::replica_us), "us");
  m.set("artifact.pack_ms", per_cycle(&Cycle::pack_ms), "ms");
  m.set("convert_s", per_cycle(&Cycle::convert_s), "s");
  m.set("core.collect_s", per_cycle(&Cycle::collect_s), "s");
  m.set("core.plan_ms", per_cycle(&Cycle::plan_ms), "ms");
  m.set("core.convert_ms", per_cycle(&Cycle::convert_ms), "ms");

  SpanLog spans;
  for (const ForwardRecord& f : records) {
    const std::int64_t root = spans.add("snn.forward", f.start, f.end);
    Clock::time_point step_start = f.start;
    for (const Clock::time_point step_end : f.step_end) {
      spans.add("snn.step", step_start, step_end, root);
      step_start = step_end;
    }
  }
  if (!options.trace_path.empty() && !spans.write_jsonl(options.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
  }
  return out;
}

}  // namespace perfbench
