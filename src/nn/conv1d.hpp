// 1-D convolution over the angle/antenna axis of a spectrum frame.
// Input [C_in, L], kernels [C_out, C_in, K], stride and symmetric zero
// padding; output [C_out, L_out] with L_out = (L + 2*pad - K)/stride + 1.
#pragma once

#include <deque>
#include <vector>

#include "kern/workspace.hpp"
#include "nn/layer.hpp"

namespace m2ai::nn {

class Conv1d : public Layer {
 public:
  Conv1d(int in_channels, int out_channels, int kernel, int stride, int padding,
         util::Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  void clear_cache() override { cache_.clear(); }
  std::string name() const override { return "Conv1d"; }

  int output_length(int input_length) const;
  int out_channels() const { return out_channels_; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_;
  int stride_;
  int padding_;
  Param weight_;  // [C_out, C_in, K]
  Param bias_;    // [C_out]
  std::deque<Tensor> cache_;
  kern::Workspace ws_;        // per-call scratch rows of forward and backward
  std::vector<int> nonzero_;  // backward: outputs of one oc with a non-zero gradient
};

}  // namespace m2ai::nn
