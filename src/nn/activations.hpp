// Element-wise activation layer.
#pragma once

#include <deque>

#include "nn/layer.hpp"

namespace m2ai::nn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void clear_cache() override { cache_.clear(); }
  std::string name() const override { return "ReLU"; }

 private:
  std::deque<Tensor> cache_;  // inputs
};

}  // namespace m2ai::nn
