#include "src/core/bn_fold.h"

#include <cmath>
#include <stdexcept>

#include "src/dnn/batchnorm.h"
#include "src/dnn/conv2d.h"

namespace ullsnn::core {

void fold_bn_into_conv(dnn::Conv2d& conv, const dnn::BatchNorm2d& bn) {
  const std::int64_t out_ch = conv.spec().out_channels;
  if (bn.channels() != out_ch) {
    throw std::invalid_argument("fold_bn_into_conv: channel mismatch (" +
                                std::to_string(bn.channels()) + " vs " +
                                std::to_string(out_ch) + ")");
  }
  Tensor& w = conv.weight().value;
  const std::int64_t per_channel = w.numel() / out_ch;
  Tensor bias = conv.has_bias() ? conv.bias().value : Tensor({out_ch});
  for (std::int64_t c = 0; c < out_ch; ++c) {
    const float inv_std =
        1.0F / std::sqrt(bn.running_var()[c] + bn.epsilon());
    const float scale = bn.gamma().value[c] * inv_std;
    float* wc = w.data() + c * per_channel;
    for (std::int64_t i = 0; i < per_channel; ++i) wc[i] *= scale;
    bias[c] = scale * (bias[c] - bn.running_mean()[c]) + bn.beta().value[c];
  }
  conv.set_bias(std::move(bias));
}

std::unique_ptr<dnn::Sequential> fold_batchnorm(dnn::Sequential& model) {
  auto folded = std::make_unique<dnn::Sequential>();
  dnn::Conv2d* last_conv = nullptr;
  for (dnn::LayerPtr& layer : model.release_layers()) {
    if (auto* bn = dynamic_cast<dnn::BatchNorm2d*>(layer.get())) {
      if (last_conv == nullptr) {
        throw std::invalid_argument(
            "fold_batchnorm: BatchNorm2d not preceded by Conv2d");
      }
      fold_bn_into_conv(*last_conv, *bn);
      last_conv = nullptr;
      continue;  // the BN layer is dropped
    }
    last_conv = dynamic_cast<dnn::Conv2d*>(layer.get());
    folded->append(std::move(layer));
  }
  return folded;
}

}  // namespace ullsnn::core
