// Fully-connected layer: y = W x + b.
//
// One frame is a rank-1 [in] input (any other shape of `in` elements is
// flattened) and gives [out]. A frame-minor batch [in, B] (nn::stack_frames)
// gives [out, B], each frame bitwise equal to its own call; a backward over
// the batch accumulates the parameter gradients that B single-frame backward
// calls, LIFO, would (DESIGN §6).
#pragma once

#include <deque>

#include "kern/workspace.hpp"
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
  std::deque<Tensor> cache_;  // inputs as [in] or [in, B], LIFO
  kern::Workspace ws_;        // backward's frame-major scratch
};

}  // namespace m2ai::nn
