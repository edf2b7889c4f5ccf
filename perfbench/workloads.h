// The three named workloads. Every number that defines a workload (rates,
// class mix, deadlines, latency limits, set sizes) is pinned here, so the
// offered load is the same on every run and every commit.
#pragma once

#include <cstdint>
#include <string>

#include "perfbench/common.h"
#include "src/tensor/gemm.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;   // fixture, artifacts and scratch files
  std::string trace_path;  // span log written by a traced run
};

/// What a run hands back to main(): the result line's fields.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;

  /// Record a failed output check (printed, and the run exits non-zero).
  void check(bool ok, const std::string& what);
};

/// Open-loop serve workload settings (engine settings are fixed in serve.cpp).
struct ServeSpec {
  const char* name;
  ullsnn::Precision precision;
  double qps;                   // Poisson arrival rate, requests per second
  double interactive_fraction;  // the rest are batch-class requests
  double interactive_deadline_ms[2];  // uniform range, from the due time
  double batch_deadline_ms[2];
  double slo_ms;  // interactive latency limit behind slo_attainment
};

/// serve-steady: int8 at ~half the T=3 capacity (382 QPS on 2 workers);
/// loose deadlines, all interactive — nothing is shed, the ladder stays at 3.
inline constexpr ServeSpec kServeSteady = {
    "serve-steady", ullsnn::Precision::kInt8, 190.0, 1.0, {500.0, 500.0},
    {500.0, 500.0}, 40.0};
/// serve-overload: fp32 at ~twice the T=3 capacity with bench_load's class
/// mix and deadlines — CoDel sheds and the brownout ladder cycles 3->2->1.
inline constexpr ServeSpec kServeOverload = {
    "serve-overload", ullsnn::Precision::kFp32, 760.0, 0.8, {40.0, 80.0},
    {200.0, 400.0}, 40.0};

/// Request pool of the serve workloads: the first held-out images.
inline constexpr std::int64_t kServePool = 256;
/// convert: held-out evaluation set size and batch size.
inline constexpr std::int64_t kConvertHeldout = 1024;
inline constexpr std::int64_t kEvalBatch = 64;
/// convert: warm-up of the evaluation threads before each timed pass.
inline constexpr double kPassWarmupS = 0.3;
/// convert: latency limit for one 64-image evaluation batch at T = 3.
inline constexpr double kConvertBatchSloMs = 250.0;
/// Served answers whose argmax must equal the batch-1 reference answer of
/// the same artifact at the same T. Below 1 because answers are not
/// batch-invariant today (density dispatch looks at the whole batch).
inline constexpr double kAnswerMatchBound = 0.95;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 7;
/// Serve workloads convert the fixture this many times; convert_s is the
/// median.
inline constexpr int kConvertRepeats = 3;
/// Evaluation throughput is measured with this many replicas on as many
/// threads (the machine's 4 cores), after kEvalWarmupS seconds of warm-up.
/// Serve workloads count answers in kEvalWindows windows of kEvalWindowS
/// seconds and report the median.
inline constexpr std::int64_t kEvalThreads = 4;
inline constexpr double kEvalWarmupS = 1.0;
inline constexpr std::int64_t kEvalWindows = 8;
inline constexpr double kEvalWindowS = 0.5;

Outcome run_serve(const RunOptions& options, const ServeSpec& spec);
Outcome run_convert(const RunOptions& options);

}  // namespace perfbench
