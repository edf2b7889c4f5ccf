#include "src/energy/flops.h"

namespace ullsnn::energy {

FlopsReport count_dnn_flops(const dnn::Sequential& model, const Shape& input_shape) {
  FlopsReport report;
  Shape shape = input_shape;
  for (std::int64_t i = 0; i < model.size(); ++i) {
    const dnn::Layer& layer = model.layer(i);
    const auto macs = static_cast<double>(layer.macs(shape));
    if (macs > 0.0) {
      report.layers.push_back({layer.name() + "#" + std::to_string(i), macs, 0.0});
      report.total_macs += macs;
    }
    shape = layer.output_shape(shape);
  }
  return report;
}

FlopsReport count_snn_flops(const snn::SnnNetwork& net, const Shape& input_shape) {
  FlopsReport report;
  Shape shape = input_shape;
  bool seen_first_synaptic = false;
  for (std::int64_t i = 0; i < net.size(); ++i) {
    const snn::SpikingLayer& layer = net.layer(i);
    const std::int64_t dense = layer.macs(shape);
    if (dense > 0) {
      LayerFlops lf;
      lf.name = layer.name() + "#" + std::to_string(i);
      if (!seen_first_synaptic) {
        // Direct-encoded first layer: analog inputs need true MACs, once.
        lf.macs = static_cast<double>(dense);
        seen_first_synaptic = true;
      } else {
        lf.acs = layer.acs_estimate(shape, net.time_steps());
      }
      report.total_macs += lf.macs;
      report.total_acs += lf.acs;
      report.layers.push_back(std::move(lf));
    }
    shape = layer.output_shape(shape);
  }
  return report;
}

}  // namespace ullsnn::energy
