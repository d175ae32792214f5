#include "nn/dropout.hpp"

#include <stdexcept>

namespace m2ai::nn {

Tensor Dropout::forward(const Tensor& input, bool train) {
  if (!train || rate_ <= 0.0) return input;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  const std::size_t frames = input.rank() == 2 ? static_cast<std::size_t>(input.dim(1)) : 1;
  const std::size_t per_frame = input.size() / frames;
  Tensor y = input;
  std::vector<float> mask(input.size());
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t i = 0; i < per_frame; ++i) {
      const std::size_t e = i * frames + f;
      mask[e] = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
      y[e] *= mask[e];
    }
  }
  cache_.push_back(std::move(mask));
  return y;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (cache_.empty()) throw std::logic_error("Dropout::backward: no cached forward");
  const std::vector<float> mask = std::move(cache_.back());
  cache_.pop_back();
  if (grad_output.size() != mask.size()) {
    throw std::invalid_argument("Dropout::backward: expected " + std::to_string(mask.size()) +
                                " gradients, got " + grad_output.shape_string());
  }
  Tensor g = grad_output;
  for (std::size_t i = 0; i < g.size(); ++i) g[i] *= mask[i];
  return g;
}

}  // namespace m2ai::nn
