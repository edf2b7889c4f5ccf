// FLOP accounting (Sec. VI-B).
//
// DNN: every conv/linear layer performs its dense MAC count once per sample.
// SNN: layer 1 is direct-encoded (analog input), so it performs dense MACs;
// every subsequent layer performs one AC per incoming spike per synapse,
// i.e. dense MACs x measured input spike rate x T. The first layer's MACs
// are counted once per sample: its input repeats identically every step, and
// the eval forward computes its synaptic current once and holds it
// (snn_network.h), as the paper's energy ratios assume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/dnn/sequential.h"
#include "src/snn/snn_network.h"

namespace ullsnn::energy {

struct LayerFlops {
  std::string name;
  double macs = 0.0;  // multiply-accumulates per sample
  double acs = 0.0;   // accumulates per sample
};

struct FlopsReport {
  std::vector<LayerFlops> layers;
  double total_macs = 0.0;
  double total_acs = 0.0;

  double total_flops() const { return total_macs + total_acs; }
};

/// Dense per-sample MAC counts for a DNN at the given input shape
/// (batch extent is ignored; counts are per sample).
FlopsReport count_dnn_flops(const dnn::Sequential& model, const Shape& input_shape);

/// Per-sample MAC/AC counts for an SNN using the activity counters populated
/// by prior inference. Call net.reset_stats(), run inference, then this.
FlopsReport count_snn_flops(const snn::SnnNetwork& net, const Shape& input_shape);

}  // namespace ullsnn::energy
