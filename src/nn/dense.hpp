// Fully-connected layer: y = W x + b. Accepts any input rank (flattens).
#pragma once

#include <deque>

#include "nn/layer.hpp"

namespace m2ai::nn {

class Dense : public Layer {
 public:
  Dense(int in_features, int out_features, util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void clear_cache() override { cache_.clear(); }
  std::string name() const override { return "Dense"; }

  int in_features() const { return in_; }
  int out_features() const { return out_; }

 private:
  int in_;
  int out_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  std::deque<Tensor> cache_;  // flattened inputs, LIFO
};

}  // namespace m2ai::nn
