// ullsnn-check: static verification of a model graph and its conversion
// preconditions, without executing a forward pass.
//
// The individual checkers are usable on their own (graph_check.h,
// convert_check.h, tape_check.h); verify_model() bundles them behind one
// option struct. core::HybridPipeline runs this as its warn/strict preflight
// gate, and tools/ullsnn_check exposes it on the command line.
#pragma once

#include "src/verify/convert_check.h"
#include "src/verify/diagnostic.h"
#include "src/verify/graph_check.h"
#include "src/verify/tape_check.h"

namespace ullsnn::verify {

/// The graph and conversion-precondition checks always run.
struct VerifyOptions {
  /// [N, C, H, W] model input; required for the graph checks.
  Shape input_shape;
  /// Tape invariants: the structural rules plus the synthetic
  /// forward/backward T004 pass (which runs only once the static checks came
  /// back clean).
  bool tape = false;
  core::ConversionConfig conversion_config;
  /// Escalates C007 (delta-identity) to an error; set when a live Delta
  /// consumer (runtime probe) is configured.
  bool delta_identity_required = false;
};

VerifyReport verify_model(dnn::Sequential& model, const VerifyOptions& options);

}  // namespace ullsnn::verify
