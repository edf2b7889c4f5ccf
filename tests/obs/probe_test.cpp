#include "src/obs/probe.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/obs/sink.h"
#include "src/snn/snn_network.h"
#include "src/tensor/random.h"

namespace ullsnn::obs {
namespace {

/// Two-neuron-layer toy network: conv(8ch) -> flatten -> linear(4, IF) ->
/// linear readout.
std::unique_ptr<snn::SnnNetwork> make_net(std::int64_t time_steps,
                                          snn::IfConfig neuron = {}) {
  auto net = std::make_unique<snn::SnnNetwork>(time_steps);
  Rng rng(5);
  Tensor wc({8, 3, 3, 3});
  kaiming_normal(wc, 3 * 9, rng);
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(std::move(wc), Conv2dSpec{3, 8, 3, 1, 1}), neuron);
  net->emplace<snn::SpikingFlatten>();
  Tensor wl({4, 8 * 8 * 8});
  kaiming_normal(wl, 8 * 8 * 8, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(wl)), neuron);
  Tensor wr({2, 4});
  kaiming_normal(wr, 4, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(wr)), std::nullopt);
  return net;
}

Tensor make_input(std::int64_t batch) {
  Rng rng(6);
  Tensor input({batch, 3, 8, 8});
  uniform_fill(input, -1.0F, 1.0F, rng);
  return input;
}

TEST(SnnRuntimeProbe, AttachesAndDetaches) {
  auto net = make_net(2);
  {
    SnnRuntimeProbe probe(*net);
    EXPECT_EQ(net->observer(), &probe);
  }
  EXPECT_EQ(net->observer(), nullptr);
}

TEST(SnnRuntimeProbe, SpikeTotalsMatchLayerCountersExactly) {
  auto net = make_net(3);
  SnnRuntimeProbe probe(*net);
  net->reset_stats();
  net->forward(make_input(4), /*train=*/false);
  net->forward(make_input(2), /*train=*/false);

  EXPECT_EQ(probe.sequences(), 2);
  EXPECT_EQ(probe.samples(), 6);
  EXPECT_EQ(probe.total_spikes(), net->total_spikes());
  const std::vector<LayerSummary> summaries = probe.summaries();
  ASSERT_EQ(summaries.size(), 2U);  // conv + hidden linear have neurons
  for (const LayerSummary& s : summaries) {
    EXPECT_EQ(s.spikes_total, net->layer(s.layer).spikes_emitted());
    EXPECT_EQ(s.neurons, net->layer(s.layer).neurons());
  }
}

TEST(SnnRuntimeProbe, SurvivesExternalCounterReset) {
  auto net = make_net(2);
  SnnRuntimeProbe probe(*net);
  net->reset_stats();
  net->forward(make_input(2), false);
  const std::int64_t after_first = probe.total_spikes();
  net->reset_stats();  // e.g. a count_snn_flops caller resetting mid-stream
  net->forward(make_input(2), false);
  // Probe keeps its own running total; the second sequence adds the same
  // deterministic spike count on top instead of going negative.
  EXPECT_EQ(probe.total_spikes(), 2 * after_first);
}

TEST(SnnRuntimeProbe, StepStatsCoverEveryProbedLayerAndStep) {
  const std::int64_t t_steps = 3;
  auto net = make_net(t_steps);
  SnnRuntimeProbe probe(*net);
  net->forward(make_input(2), false);
  // 2 probed layers x 3 steps.
  ASSERT_EQ(probe.step_stats().size(), 6U);
  std::int64_t sum = 0;
  for (const LayerStepStats& s : probe.step_stats()) {
    EXPECT_GE(s.spikes, 0);
    EXPECT_GE(s.spike_rate, 0.0);
    EXPECT_LE(s.spike_rate, 1.0);
    EXPECT_EQ(s.batch, 2);
    sum += s.spikes;
  }
  EXPECT_EQ(sum, probe.total_spikes());
}

TEST(SnnRuntimeProbe, MembraneHistogramCountsEveryNeuron) {
  auto net = make_net(2);
  SnnRuntimeProbe probe(*net);
  net->forward(make_input(2), false);
  for (const LayerStepStats& s : probe.step_stats()) {
    std::int64_t total = 0;
    for (std::int64_t c : s.membrane_histogram) total += c;
    EXPECT_EQ(total, s.batch * s.neurons);
    EXPECT_GE(s.saturation_fraction, 0.0);
    EXPECT_LE(s.saturation_fraction, 1.0);
    EXPECT_GE(s.membrane_var, 0.0);
  }
}

TEST(SnnRuntimeProbe, DeltaGapExactOnHandComputedNeuron) {
  // One input feeding one IF neuron through weight 1: I(t) = 0.3, V_th = 1,
  // beta = 1, T = 4. Membranes: 0.3, 0.6, 0.9 -> 1.2 spikes, U(4) = 0.2.
  // avg_in = 0.3, avg_out = 1/4; Delta = 0.3 - 0.25 = 0.05.
  auto net = std::make_unique<snn::SnnNetwork>(4);
  Tensor w({1, 1}, std::vector<float>{1.0F});
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(w)), snn::IfConfig{});
  Tensor wr({1, 1}, std::vector<float>{1.0F});
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(wr)), std::nullopt);

  SnnRuntimeProbe probe(*net);
  probe.set_layer_mu({1.0F, 0.0F});
  Tensor input({1, 1}, std::vector<float>{0.3F});
  net->forward(input, false);

  const std::vector<LayerSummary> summaries = probe.summaries();
  ASSERT_EQ(summaries.size(), 1U);
  EXPECT_EQ(summaries[0].spikes_total, 1);
  EXPECT_NEAR(summaries[0].delta_gap, 0.05, 1e-6);
}

TEST(SnnRuntimeProbe, DeltaIsNanForHardResetOrLeak) {
  snn::IfConfig hard;
  hard.reset = snn::ResetMode::kZero;
  auto net = make_net(2, hard);
  SnnRuntimeProbe probe(*net);
  net->forward(make_input(2), false);
  for (const LayerSummary& s : probe.summaries()) {
    EXPECT_TRUE(std::isnan(s.delta_gap));
  }

  snn::IfConfig leaky;
  leaky.leak = 0.5F;
  auto net2 = make_net(2, leaky);
  SnnRuntimeProbe probe2(*net2);
  net2->forward(make_input(2), false);
  for (const LayerSummary& s : probe2.summaries()) {
    EXPECT_TRUE(std::isnan(s.delta_gap));
  }
}

TEST(SnnRuntimeProbe, ResetClearsCollectedData) {
  auto net = make_net(2);
  SnnRuntimeProbe probe(*net);
  net->forward(make_input(2), false);
  ASSERT_GT(probe.step_stats().size(), 0U);
  probe.reset();
  EXPECT_EQ(probe.step_stats().size(), 0U);
  EXPECT_EQ(probe.sequences(), 0);
  EXPECT_EQ(probe.samples(), 0);
  EXPECT_EQ(probe.total_spikes(), 0);
  // Still attached and usable after reset.
  net->forward(make_input(1), false);
  EXPECT_EQ(probe.sequences(), 1);
}

TEST(SnnRuntimeProbe, ConfigCanDisableStepStats) {
  auto net = make_net(2);
  SnnRuntimeProbe::Config cfg;
  cfg.keep_step_stats = false;
  SnnRuntimeProbe probe(*net, cfg);
  net->reset_stats();
  net->forward(make_input(2), false);
  EXPECT_EQ(probe.step_stats().size(), 0U);
  EXPECT_EQ(probe.total_spikes(), net->total_spikes());
  EXPECT_EQ(probe.summaries().size(), 2U);
}

TEST(SnnRuntimeProbe, EmitsSummaryAndStepRecords) {
  auto net = make_net(2);
  SnnRuntimeProbe probe(*net);
  net->forward(make_input(2), false);
  MemorySink sink;
  probe.emit_summary_records(sink);
  ASSERT_EQ(sink.records().size(), 2U);
  for (const TelemetryRecord& r : sink.records()) {
    EXPECT_EQ(r.kind, "snn.layer_activity");
    EXPECT_EQ(r.fields.size(), 7U);
    EXPECT_EQ(r.fields[0].key, "layer");
  }
  sink.clear();
  probe.emit_step_records(sink);
  ASSERT_EQ(sink.records().size(), probe.step_stats().size());
  for (const TelemetryRecord& r : sink.records()) {
    EXPECT_EQ(r.kind, "snn.layer_step");
    EXPECT_EQ(r.fields.size(), 11U + kMembraneBuckets);
  }
}

}  // namespace
}  // namespace ullsnn::obs
