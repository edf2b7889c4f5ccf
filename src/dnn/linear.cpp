#include "src/dnn/linear.h"

#include <stdexcept>

#include "src/tensor/ops.h"

namespace ullsnn::dnn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, bool bias, Rng& rng)
    : in_(in_features), out_(out_features) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Linear: feature counts must be positive");
  }
  weight_.name = "linear.weight";
  weight_.value = Tensor({out_, in_});
  weight_.grad = Tensor({out_, in_});
  kaiming_normal(weight_.value, in_, rng);
  if (bias) {
    bias_.name = "linear.bias";
    bias_.value = Tensor({out_});
    bias_.grad = Tensor({out_});
    bias_.decay = false;
  }
}

Tensor Linear::forward(const Tensor& input, bool train) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Linear: expected [N, " + std::to_string(in_) +
                                "], got " + shape_to_string(input.shape()));
  }
  const std::int64_t n = input.dim(0);
  Tensor out({n, out_});
  // out[N,out] = input[N,in] * W^T[in,out]
  matmul_bt(input.data(), weight_.value.data(), out.data(), n, in_, out_);
  if (has_bias()) {
    for (std::int64_t i = 0; i < n; ++i) {
      float* row = out.data() + i * out_;
      for (std::int64_t j = 0; j < out_; ++j) row[j] += bias_.value[j];
    }
  }
  if (train) cached_input_ = input;
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) {
    throw std::logic_error("Linear::backward without cached forward");
  }
  const std::int64_t n = cached_input_.dim(0);
  // dW[out,in] += gout^T[out,N] * x[N,in]
  matmul_at(grad_output.data(), cached_input_.data(), weight_.grad.data(), out_, n,
            in_, /*accumulate=*/true);
  if (has_bias()) {
    for (std::int64_t i = 0; i < n; ++i) {
      const float* row = grad_output.data() + i * out_;
      for (std::int64_t j = 0; j < out_; ++j) bias_.grad[j] += row[j];
    }
  }
  // dx[N,in] = gout[N,out] * W[out,in]
  Tensor grad_input({n, in_});
  matmul(grad_output.data(), weight_.value.data(), grad_input.data(), n, out_, in_);
  return grad_input;
}

std::vector<Param*> Linear::params() {
  std::vector<Param*> ps = {&weight_};
  if (has_bias()) ps.push_back(&bias_);
  return ps;
}

Shape Linear::output_shape(const Shape& input) const { return {input[0], out_}; }

std::int64_t Linear::macs(const Shape& input) const {
  (void)input;
  return in_ * out_;
}

}  // namespace ullsnn::dnn
