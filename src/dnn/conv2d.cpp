#include "src/dnn/conv2d.h"

#include <stdexcept>

namespace ullsnn::dnn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               bool bias, Rng& rng) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
  spec_.in_channels = in_channels;
  spec_.out_channels = out_channels;
  spec_.kernel = kernel;
  spec_.stride = stride;
  spec_.pad = pad;
  weight_.name = "conv.weight";
  weight_.value = Tensor({out_channels, in_channels, kernel, kernel});
  weight_.grad = Tensor(weight_.value.shape());
  kaiming_normal(weight_.value, in_channels * kernel * kernel, rng);
  if (bias) {
    bias_.name = "conv.bias";
    bias_.value = Tensor({out_channels});
    bias_.grad = Tensor({out_channels});
    bias_.decay = false;
  }
}

void Conv2d::set_bias(Tensor bias) {
  if (bias.shape() != Shape{spec_.out_channels}) {
    throw std::invalid_argument("Conv2d::set_bias: expected [" +
                                std::to_string(spec_.out_channels) + "], got " +
                                shape_to_string(bias.shape()));
  }
  bias_.name = "conv.bias";
  bias_.value = std::move(bias);
  bias_.grad = Tensor({spec_.out_channels});
  bias_.decay = false;
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  if (input.rank() != 4) throw std::invalid_argument("Conv2d: input must be NCHW");
  Tensor out(output_shape(input.shape()));
  conv2d_forward(input, weight_.value, bias_.value, out, spec_);
  if (train) cached_input_ = input;
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Conv2d::backward without cached forward");
  }
  Tensor grad_input(cached_input_.shape());
  conv2d_backward(cached_input_, weight_.value, grad_output, &grad_input,
                  weight_.grad, has_bias() ? &bias_.grad : nullptr, spec_);
  return grad_input;
}

std::vector<Param*> Conv2d::params() {
  std::vector<Param*> ps = {&weight_};
  if (has_bias()) ps.push_back(&bias_);
  return ps;
}

Shape Conv2d::output_shape(const Shape& input) const {
  return {input[0], spec_.out_channels, spec_.out_extent(input[2]),
          spec_.out_extent(input[3])};
}

std::int64_t Conv2d::macs(const Shape& input) const {
  const std::int64_t oh = spec_.out_extent(input[2]);
  const std::int64_t ow = spec_.out_extent(input[3]);
  // Per output element: Cin*K*K multiply-accumulates; batch excluded (we
  // report per-input-sample FLOPs as the paper does).
  return spec_.out_channels * oh * ow * spec_.in_channels * spec_.kernel * spec_.kernel;
}

}  // namespace ullsnn::dnn
