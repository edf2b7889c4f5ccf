#include "src/verify/verify.h"

namespace ullsnn::verify {

VerifyReport verify_model(dnn::Sequential& model, const VerifyOptions& options) {
  if (options.input_shape.empty()) {
    throw std::invalid_argument("verify_model: graph checks need an input_shape");
  }
  VerifyReport report = check_graph(model, options.input_shape);
  ConvertCheckOptions convert_options;
  convert_options.delta_identity_required = options.delta_identity_required;
  report.merge(
      check_conversion_preconditions(model, options.conversion_config, convert_options));
  if (options.tape) {
    TapeCheckOptions tape_options;
    // The synthetic T004 pass executes the model, which is only meaningful
    // (and safe) once the static checks came back clean; the structural tape
    // rules run regardless.
    tape_options.run_backward = report.ok();
    tape_options.input_shape = options.input_shape;
    report.merge(check_tape(model, tape_options));
  }
  return report;
}

}  // namespace ullsnn::verify
