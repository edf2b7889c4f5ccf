// Telemetry overhead microbenchmarks (docs/observability.md quotes these):
//   * metric fast paths (counter add, gauge set, histogram observe),
//   * an SNN forward pass: bare vs runtime probe attached.
#include <benchmark/benchmark.h>

#include "src/obs/metrics.h"
#include "src/obs/probe.h"
#include "src/snn/snn_network.h"
#include "src/tensor/random.h"

namespace {

using namespace ullsnn;

void BM_CounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    ULLSNN_COUNTER_ADD("bench.counter", 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State& state) {
  double v = 0.0;
  for (auto _ : state) {
    ULLSNN_GAUGE_SET("bench.gauge", v);
    v += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  double v = 1e-6;
  for (auto _ : state) {
    ULLSNN_HISTOGRAM_OBSERVE("bench.histogram", v);
    v = v < 1e3 ? v * 1.7 : 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

std::unique_ptr<snn::SnnNetwork> overhead_net() {
  auto net = std::make_unique<snn::SnnNetwork>(4);
  Rng rng(11);
  Tensor w({16, 3, 3, 3});
  kaiming_normal(w, 3 * 9, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(w), Conv2dSpec{3, 16, 3, 1, 1}),
                                   snn::IfConfig{});
  net->emplace<snn::SpikingFlatten>();
  Tensor wl({32, 16 * 16 * 16});
  kaiming_normal(wl, 16 * 16 * 16, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(wl)), snn::IfConfig{});
  Tensor wr({10, 32});
  kaiming_normal(wr, 32, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(wr)), std::nullopt);
  return net;
}

Tensor overhead_input() {
  Rng rng(12);
  Tensor input({2, 3, 16, 16});
  uniform_fill(input, -1.0F, 1.0F, rng);
  return input;
}

void BM_SnnForwardBare(benchmark::State& state) {
  auto net = overhead_net();
  const Tensor input = overhead_input();
  for (auto _ : state) {
    Tensor logits = net->forward(input, false);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_SnnForwardBare);

void BM_SnnForwardProbed(benchmark::State& state) {
  auto net = overhead_net();
  const Tensor input = overhead_input();
  obs::SnnRuntimeProbe::Config cfg;
  cfg.keep_step_stats = false;  // steady-state monitoring configuration
  obs::SnnRuntimeProbe probe(*net, cfg);
  for (auto _ : state) {
    Tensor logits = net->forward(input, false);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_SnnForwardProbed);

void BM_SnnForwardProbedFull(benchmark::State& state) {
  auto net = overhead_net();
  const Tensor input = overhead_input();
  obs::SnnRuntimeProbe probe(*net);  // step stats + membrane histograms
  for (auto _ : state) {
    Tensor logits = net->forward(input, false);
    benchmark::DoNotOptimize(logits.data());
    probe.reset();  // keep the step-stat buffer from growing unboundedly
  }
}
BENCHMARK(BM_SnnForwardProbedFull);

}  // namespace

BENCHMARK_MAIN();
