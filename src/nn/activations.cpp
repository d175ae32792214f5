#include "nn/activations.hpp"

#include <algorithm>
#include <stdexcept>

namespace m2ai::nn {

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor y = input;
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = std::max(0.0f, y[i]);
  if (train) cache_.push_back(input);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cache_.empty()) throw std::logic_error("ReLU::backward: no cached forward");
  const Tensor x = std::move(cache_.back());
  cache_.pop_back();
  Tensor g = grad_output;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
  return g;
}

}  // namespace m2ai::nn
