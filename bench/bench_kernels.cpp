// Kernel microbenchmarks and the perf-regression baseline.
//
// Covers the full hot-kernel surface: blocked vs naive GEMM (all three
// transpose variants), batched conv forward/backward, the dense spiking conv
// at served shapes, the linear layer, training and eval pooling, the
// sparse-vs-dense spike-GEMM density sweep, IF-neuron stepping, and
// whole-network spiking inference at three input activities.
//
// Regression workflow: tools/bench_to_json.sh runs this binary with JSON
// output and stamps it with build provenance; the checked-in
// bench/BENCH_kernels.json is the baseline, and CI's perf-smoke job compares
// a fresh run against it with tools/compare_bench.py (normalized by
// BM_MatmulNaive/256 so AVX-512 dev boxes and AVX2 CI runners are
// comparable). Refresh the baseline whenever a kernel change lands (see
// docs/performance.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/obs/build_info.h"
#include "src/snn/neuron.h"
#include "src/snn/snn_network.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"

namespace {

using namespace ullsnn;

// ---- GEMM ----

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  Tensor c({n, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  for (auto _ : state) {
    matmul(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
// Fast kernels carry an explicit wall-clock budget (MinTime, which overrides
// any --benchmark_min_time from the harness) so iteration counts are derived
// from elapsed time: with the SIMD dispatch a 64x64 tile runs in a few µs,
// and a fixed/short rep budget would sit at the timer's resolution floor.
//
// Repetitions for the cases a CI gate reads directly or whose minimum over
// three repetitions moved by 2x between runs of unchanged code on a shared
// host: the calibration anchor that every compared time is divided by, the
// fp32/int8 GEMM and conv pairs of the intra-run speedup gates, the dense
// spike GEMM and the IF step. A registration's Repetitions() overrides the
// harness's --benchmark_repetitions, so the gates' minimum for these comes
// from ten windows (interleaved across the suite by tools/bench_to_json.sh)
// instead of three.
constexpr int kStableReps = 10;

BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.2)->Repetitions(kStableReps);

/// The retained pre-blocking kernel. Doubles as the cross-machine calibration
/// anchor for the CI regression gate: its ratio to every other benchmark is
/// far more stable across ISAs than absolute nanoseconds.
void BM_MatmulNaive(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  Tensor c({n, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  for (auto _ : state) {
    matmul_naive(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNaive)->Arg(64)->Arg(256)->MinTime(0.2)->Repetitions(kStableReps);

void BM_MatmulBt(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n});
  Tensor b({n, n});
  Tensor c({n, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  for (auto _ : state) {
    matmul_bt(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulBt)->Arg(256)->MinTime(0.2);

/// int8 weight-quantized GEMM through the same dispatch layer: per-row
/// asymmetric activation quantization + int8xint8 micro-kernel with int32
/// accumulation and fused dequant epilogue. Weights are packed once outside
/// the timed loop, matching how layers reuse QuantizedPackedB across steps.
/// Compare against BM_Matmul at the same size for the quantization speedup.
void BM_MatmulInt8(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a({n, n});
  Tensor w({n, n});
  Tensor c({n, n});
  uniform_fill(a, 0.0F, 1.0F, rng);
  uniform_fill(w, -1.0F, 1.0F, rng);
  const QuantizedWeight qw = quantize_weight_per_row(w.data(), n, n);
  QuantizedPackedB packed;
  packed.pack(qw);
  for (auto _ : state) {
    gemm_packed_int8(row_major(a.data(), n), packed, c.data(), n,
                     /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulInt8)->Arg(64)->Arg(128)->Arg(256)->MinTime(0.2)->Repetitions(kStableReps);

// ---- convolution ----

void BM_Conv2dForward(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(2);
  Conv2dSpec spec;
  spec.in_channels = channels;
  spec.out_channels = channels;
  Tensor input({1, channels, 32, 32});
  Tensor weight({channels, channels, 3, 3});
  Tensor output({1, channels, 32, 32});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.1F, 0.1F, rng);
  for (auto _ : state) {
    conv2d_forward(input, weight, Tensor(), output, spec);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * output.numel());
}
BENCHMARK(BM_Conv2dForward)->Arg(16)->Arg(32)->Arg(64)->MinTime(0.2)->Repetitions(kStableReps);

/// int8 convolution: the spiking forward with a pre-quantized weight operand
/// and the density threshold forced below zero so every sample takes the
/// dense int8 path. Compare against BM_Conv2dForward at the same size.
void BM_Conv2dForwardInt8(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(2);
  Conv2dSpec spec;
  spec.in_channels = channels;
  spec.out_channels = channels;
  Tensor input({1, channels, 32, 32});
  Tensor weight({channels, channels, 3, 3});
  Tensor output({1, channels, 32, 32});
  uniform_fill(input, 0.0F, 1.0F, rng);
  uniform_fill(weight, -0.1F, 0.1F, rng);
  const QuantizedWeight qw =
      quantize_weight_per_row(weight.data(), channels, channels * 9);
  QuantizedPackedB packed;
  packed.pack(qw);
  std::vector<float> wt_cache;
  SpikeKernelStats stats;
  for (auto _ : state) {
    conv2d_forward_spiking(input, weight, output, spec,
                           /*density_threshold=*/-1.0F, wt_cache, stats,
                           &packed);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * output.numel());
}
BENCHMARK(BM_Conv2dForwardInt8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->MinTime(0.2)
    ->Repetitions(kStableReps);

/// Dense fp32 spiking conv at served VGG-11 layer shapes, one sample, through
/// the prepared weight a served layer holds; the density threshold is forced
/// below zero so the sample takes the dense (patch-packed GEMM) path. Args:
/// in channels, out channels, image side. 3/8/32 is conv0 and 8/16/16 conv1,
/// which put the output pixels on the vector lanes under the AVX-512 plan;
/// 64/64/4 keeps the channels there.
void BM_Conv2dForwardSpiking(benchmark::State& state) {
  const std::int64_t cin = state.range(0);
  const std::int64_t cout = state.range(1);
  const std::int64_t size = state.range(2);
  Rng rng(2);
  const Conv2dSpec spec{cin, cout, 3, 1, 1};
  Tensor input({1, cin, size, size});
  Tensor weight({cout, cin, 3, 3});
  Tensor output({1, cout, size, size});
  uniform_fill(input, 0.0F, 1.0F, rng);
  uniform_fill(weight, -0.1F, 0.1F, rng);
  const PreparedWeight prepared(weight.data(), cout, cin * 9, Precision::kFp32);
  SpikeKernelStats stats;
  for (auto _ : state) {
    conv2d_forward_spiking(input, prepared, output, spec,
                           /*density_threshold=*/-1.0F, Precision::kFp32, stats);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * output.numel());
}
BENCHMARK(BM_Conv2dForwardSpiking)
    ->Args({3, 8, 32})
    ->Args({8, 16, 16})
    ->Args({64, 64, 4})
    ->MinTime(0.2);

/// Batched forward: the packed weight panels are reused across the 8 samples.
void BM_Conv2dForwardBatched(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(2);
  Conv2dSpec spec;
  spec.in_channels = channels;
  spec.out_channels = channels;
  Tensor input({8, channels, 32, 32});
  Tensor weight({channels, channels, 3, 3});
  Tensor output({8, channels, 32, 32});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.1F, 0.1F, rng);
  for (auto _ : state) {
    conv2d_forward(input, weight, Tensor(), output, spec);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * output.numel());
}
BENCHMARK(BM_Conv2dForwardBatched)->Arg(16)->Arg(32)->MinTime(0.2);

void BM_Conv2dBackward(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(3);
  Conv2dSpec spec;
  spec.in_channels = channels;
  spec.out_channels = channels;
  Tensor input({8, channels, 32, 32});
  Tensor weight({channels, channels, 3, 3});
  Tensor grad_output({8, channels, 32, 32});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.1F, 0.1F, rng);
  uniform_fill(grad_output, -1.0F, 1.0F, rng);
  Tensor grad_input(input.shape());
  Tensor grad_weight(weight.shape());
  for (auto _ : state) {
    grad_weight.fill(0.0F);
    conv2d_backward(input, weight, grad_output, &grad_input, grad_weight,
                    nullptr, spec);
    benchmark::DoNotOptimize(grad_weight.data());
  }
  state.SetItemsProcessed(state.iterations() * input.numel());
}
BENCHMARK(BM_Conv2dBackward)->Arg(16)->Arg(32)->MinTime(0.2);

// ---- linear ----

void BM_LinearForward(benchmark::State& state) {
  const std::int64_t features = state.range(0);
  Rng rng(4);
  Tensor input({32, features});
  Tensor weight({features, features});
  Tensor output({32, features});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.1F, 0.1F, rng);
  for (auto _ : state) {
    matmul_bt(input.data(), weight.data(), output.data(), 32, features, features);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * 32 * features * features);
}
BENCHMARK(BM_LinearForward)->Arg(256)->Arg(1024)->MinTime(0.2);

// ---- pooling ----

void BM_MaxPool(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(5);
  Pool2dSpec spec;  // 2x2 stride 2
  Tensor input({8, channels, 32, 32});
  Tensor output({8, channels, 16, 16});
  uniform_fill(input, -1.0F, 1.0F, rng);
  std::vector<std::int64_t> argmax;
  for (auto _ : state) {
    maxpool2d_forward(input, output, spec, &argmax);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * input.numel());
}
BENCHMARK(BM_MaxPool)->Arg(64)->MinTime(0.2);

/// The eval (argmax-free) pool the SNN forward runs: the vectorized 2x2/2
/// body. Compare against BM_MaxPool, which times the training path.
void BM_MaxPoolEval(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(5);
  Pool2dSpec spec;  // 2x2 stride 2
  Tensor input({8, channels, 32, 32});
  Tensor output({8, channels, 16, 16});
  uniform_fill(input, -1.0F, 1.0F, rng);
  for (auto _ : state) {
    maxpool2d_forward(input, output, spec);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * input.numel());
}
BENCHMARK(BM_MaxPoolEval)->Arg(64)->MinTime(0.2);

void BM_AvgPool(benchmark::State& state) {
  const std::int64_t channels = state.range(0);
  Rng rng(5);
  Pool2dSpec spec;
  Tensor input({8, channels, 32, 32});
  Tensor output({8, channels, 16, 16});
  uniform_fill(input, -1.0F, 1.0F, rng);
  for (auto _ : state) {
    avgpool2d_forward(input, output, spec);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * input.numel());
}
BENCHMARK(BM_AvgPool)->Arg(64)->MinTime(0.2);

// ---- sparse vs dense spike GEMM (density sweep) ----
//
// Arg is density per mille. The crossover between these two curves is what
// kDefaultSpikeDensityThreshold encodes; refresh it from this sweep when the
// kernels change (docs/performance.md).

Tensor spike_matrix(std::int64_t m, std::int64_t k, std::int64_t per_mille, Rng& rng) {
  Tensor a({m, k});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (rng.uniform_int(1000) < per_mille) a[i] = 1.0F;
  }
  return a;
}

void BM_SpikeGemmSparse(benchmark::State& state) {
  constexpr std::int64_t kM = 256, kK = 1024, kN = 256;
  Rng rng(6);
  const Tensor a = spike_matrix(kM, kK, state.range(0), rng);
  Tensor b({kK, kN});
  uniform_fill(b, -0.1F, 0.1F, rng);
  Tensor c({kM, kN});
  for (auto _ : state) {
    spmm_row_compressed(a.data(), b.data(), c.data(), kM, kK, kN,
                        /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * kM * kK * kN);
}
BENCHMARK(BM_SpikeGemmSparse)->Arg(10)->Arg(50)->Arg(100)->Arg(250)->Arg(500)->MinTime(0.2);

void BM_SpikeGemmDense(benchmark::State& state) {
  constexpr std::int64_t kM = 256, kK = 1024, kN = 256;
  Rng rng(6);
  const Tensor a = spike_matrix(kM, kK, state.range(0), rng);
  Tensor b({kK, kN});
  uniform_fill(b, -0.1F, 0.1F, rng);
  Tensor c({kM, kN});
  for (auto _ : state) {
    matmul(a.data(), b.data(), c.data(), kM, kK, kN);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * kM * kK * kN);
}
BENCHMARK(BM_SpikeGemmDense)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(250)
    ->Arg(500)
    ->MinTime(0.2)
    ->Repetitions(kStableReps);

// ---- IF neuron ----

/// IF steps of n neurons. Every iteration steps 2^16 neurons, as 2^16 / n
/// populations with buffers of their own, so a repetition averages over
/// buffer placements: one 4096-neuron step takes about 1 us or about 2 us
/// depending on where its three buffers land. Items are neuron updates.
void BM_IfNeuronStep(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t populations = std::max<std::int64_t>(1, (std::int64_t{1} << 16) / n);
  Rng rng(3);
  snn::IfConfig config;
  std::vector<std::unique_ptr<snn::IfNeuron>> neurons;
  std::vector<Tensor> currents;
  for (std::int64_t p = 0; p < populations; ++p) {
    neurons.push_back(std::make_unique<snn::IfNeuron>(config));
    neurons.back()->begin_sequence({1, n}, 1, /*train=*/false);
    currents.emplace_back(Shape{1, n});
    uniform_fill(currents.back(), -0.5F, 1.5F, rng);
  }
  for (auto _ : state) {
    for (std::int64_t p = 0; p < populations; ++p) {
      Tensor spikes = neurons[static_cast<std::size_t>(p)]->step_forward(
          currents[static_cast<std::size_t>(p)], 0, /*train=*/false);
      benchmark::DoNotOptimize(spikes.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * populations * n);
}
BENCHMARK(BM_IfNeuronStep)->Arg(1 << 12)->Arg(1 << 16)->MinTime(0.2)->Repetitions(kStableReps);

// Whole-network SnnNetwork inference at controlled input activity. Each
// spiking layer picks the sparse per-spike kernel or the dense one per
// sample from its input density, so runtime should drop with activity — the
// software analogue of the Sec. VI sparsity argument. Arg: active pixels per
// mille (1000 = fully dense).
std::unique_ptr<snn::SnnNetwork> sparse_bench_net() {
  auto net = std::make_unique<snn::SnnNetwork>(2);
  Rng rng(7);
  Tensor w({16, 16, 3, 3});
  kaiming_normal(w, 16 * 9, rng);
  snn::IfConfig neuron;
  neuron.v_threshold = 1.0F;
  net->emplace<snn::SynapticLayer>(
      snn::Synapse(std::move(w), Conv2dSpec{16, 16, 3, 1, 1}), neuron);
  net->emplace<snn::SpikingFlatten>();
  Tensor wr({10, 16 * 16 * 16});
  kaiming_normal(wr, 16 * 16 * 16, rng);
  net->emplace<snn::SynapticLayer>(snn::Synapse(std::move(wr)), std::nullopt);
  return net;
}

Tensor sparse_input(std::int64_t per_mille, Rng& rng) {
  Tensor input({1, 16, 16, 16});
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    if (rng.uniform_int(1000) < per_mille) input[i] = rng.uniform(0.5F, 1.5F);
  }
  return input;
}

void BM_DenseInference(benchmark::State& state) {
  auto net = sparse_bench_net();
  Rng rng(8);
  const Tensor input = sparse_input(state.range(0), rng);
  for (auto _ : state) {
    Tensor logits = net->forward(input, false);
    benchmark::DoNotOptimize(logits.data());
  }
}
BENCHMARK(BM_DenseInference)->Arg(1000)->Arg(100)->Arg(10)->MinTime(0.2);

}  // namespace

// Custom main so the JSON/console output carries the build provenance stamp
// (compiler, flags, git hash) in its context block — a result file
// is then traceable to the exact build that produced it.
int main(int argc, char** argv) {
  const ullsnn::obs::BuildInfo& info = ullsnn::obs::build_info();
  benchmark::AddCustomContext("compiler", info.compiler);
  benchmark::AddCustomContext("build_type", info.build_type);
  benchmark::AddCustomContext("cxx_flags", info.flags);
  benchmark::AddCustomContext("git_hash", info.git_hash);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
