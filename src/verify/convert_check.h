// Conversion-precondition checks: everything core::convert() and the
// downstream Delta_{alpha,beta} machinery silently assume about the model
// and the ConversionConfig, checked statically (no forward pass, no
// calibration run).
//
// Two entry points mirror the two phases of conversion:
//   check_conversion_preconditions  model + config, before calibration —
//                                   catches unfoldable BN, unmapped layers,
//                                   orphan/missing activation sites, bad
//                                   pooling placement, invalid Delta configs.
//   check_conversion_report         a planned ConversionReport — catches
//                                   out-of-range (alpha, beta, V_th) entries
//                                   and site-count mismatches against the
//                                   model.
#pragma once

#include "src/core/converter.h"
#include "src/dnn/sequential.h"
#include "src/verify/diagnostic.h"

namespace ullsnn::verify {

struct ConvertCheckOptions {
  /// A live Delta_{alpha,beta} consumer (obs::SnnRuntimeProbe via pipeline
  /// telemetry) is configured: escalate C007 from warning to error, since
  /// the probe would silently report NaN gaps.
  bool delta_identity_required = false;
};

VerifyReport check_conversion_preconditions(dnn::Sequential& model,
                                            const core::ConversionConfig& config,
                                            const ConvertCheckOptions& options = {});

/// Validate a planned report. `expected_sites` is the model's activation-site
/// count when known (pass count_activation_sites(model)); -1 skips the
/// site-count rule.
VerifyReport check_conversion_report(const core::ConversionReport& report,
                                     std::int64_t expected_sites = -1);

/// Activation sites in converter order (one per ThresholdReLU, two per
/// ResidualBlock) — the count core::collect_activations() would produce.
std::int64_t count_activation_sites(dnn::Sequential& model);

}  // namespace ullsnn::verify
