// perfbench: the repository's benchmark program. perfbench/run.py builds it
// and is the command to use; see perfbench/NOTES.md.
//
//   perfbench --make-fixture --state DIR
//   perfbench --workload serve-steady|serve-overload|convert --seed N
//             --seconds S --trace 0|1 --state DIR [--trace-out FILE]
//
// The last line of stdout is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status is 0 only when every output check passed.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "perfbench/model.h"
#include "perfbench/workloads.h"

using namespace perfbench;

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

int main(int argc, char** argv) {
  try {
    RunOptions options;
    bool make_fixture = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument("missing value after " + arg);
        return argv[++i];
      };
      if (arg == "--make-fixture") {
        make_fixture = true;
      } else if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--state") {
        options.state_dir = value();
      } else if (arg == "--trace-out") {
        options.trace_path = value();
      } else {
        throw std::invalid_argument("unknown argument: " + arg);
      }
    }
    if (options.state_dir.empty()) throw std::invalid_argument("--state is required");
    if (make_fixture) {
      ensure_fixture(options.state_dir + "/fixture.ckpt", make_inputs(kConvertHeldout));
      return 0;
    }
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");

    Outcome outcome;
    if (options.workload == kServeSteady.name) {
      outcome = run_serve(options, kServeSteady);
    } else if (options.workload == kServeOverload.name) {
      outcome = run_serve(options, kServeOverload);
    } else if (options.workload == "convert") {
      outcome = run_convert(options);
    } else {
      throw std::invalid_argument("unknown workload: " + options.workload);
    }
    outcome.metrics.print_table(options.trace ? "per-layer metrics" : "end-to-end metrics");
    outcome.metrics.print_json(outcome.correct, outcome.attempted, outcome.failed);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
