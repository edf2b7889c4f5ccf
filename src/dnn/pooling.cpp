#include "src/dnn/pooling.h"

#include <stdexcept>

namespace ullsnn::dnn {

MaxPool2d::MaxPool2d(std::int64_t kernel, std::int64_t stride) {
  if (kernel <= 0 || stride <= 0) throw std::invalid_argument("MaxPool2d: invalid geometry");
  spec_.kernel = kernel;
  spec_.stride = stride;
}

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  validate_pool_geometry(spec_, input.dim(2), input.dim(3));
  Tensor out(output_shape(input.shape()));
  maxpool2d_forward(input, out, spec_, train ? &argmax_ : nullptr);
  if (train) cached_input_shape_ = input.shape();
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (cached_input_shape_.empty()) {
    throw std::logic_error("MaxPool2d::backward without cached forward");
  }
  Tensor grad_input(cached_input_shape_);
  maxpool2d_backward(grad_output, argmax_, grad_input);
  return grad_input;
}

Shape MaxPool2d::output_shape(const Shape& input) const {
  return {input[0], input[1], spec_.out_extent(input[2]), spec_.out_extent(input[3])};
}

AvgPool2d::AvgPool2d(std::int64_t kernel, std::int64_t stride) {
  if (kernel <= 0 || stride <= 0) throw std::invalid_argument("AvgPool2d: invalid geometry");
  spec_.kernel = kernel;
  spec_.stride = stride;
}

Tensor AvgPool2d::forward(const Tensor& input, bool train) {
  validate_pool_geometry(spec_, input.dim(2), input.dim(3));
  Tensor out(output_shape(input.shape()));
  avgpool2d_forward(input, out, spec_);
  if (train) cached_input_shape_ = input.shape();
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  if (cached_input_shape_.empty()) {
    throw std::logic_error("AvgPool2d::backward without cached forward");
  }
  Tensor grad_input(cached_input_shape_);
  avgpool2d_backward(grad_output, grad_input, spec_);
  return grad_input;
}

Shape AvgPool2d::output_shape(const Shape& input) const {
  return {input[0], input[1], spec_.out_extent(input[2]), spec_.out_extent(input[3])};
}

}  // namespace ullsnn::dnn
