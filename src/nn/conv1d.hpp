// 1-D convolution over the angle/antenna axis of a spectrum frame.
// Input [C_in, L], kernels [C_out, C_in, K], stride and symmetric zero
// padding; output [C_out, L_out] with L_out = (L + 2*pad - K)/stride + 1.
//
// A frame-minor batch [C_in, L, B] (nn::stack_frames: the B frames of a
// sequence, frame index innermost) gives [C_out, L_out, B], each frame
// bitwise equal to its own [C_in, L] call; a backward over the batch
// accumulates the parameter gradients that B single-frame backward calls,
// LIFO, would (DESIGN §6).
//
// forward() runs register tiles of 8 output channels x kern::kLanes lanes
// (8 with AVX, 4 without), each lane one output element summed in the naive
// loop's order over exactly its valid taps. With B >= kLanes the lanes are
// frames at one output position (two scalar tap bounds per position, no
// masks, no input copy); below that they are consecutive (position, frame)
// pairs read from a zero-margined, de-strided copy of the input, with
// per-tap lane masks at the edges.
#pragma once

#include <deque>
#include <vector>

#include "kern/workspace.hpp"
#include "nn/layer.hpp"

namespace m2ai::nn {

class Conv1d : public Layer {
 public:
  // kSkip is for a network's first layer, whose input gradient nobody reads:
  // backward() then computes only the parameter gradients (bitwise the same)
  // and returns an empty tensor.
  enum class InputGrad { kCompute, kSkip };

  Conv1d(int in_channels, int out_channels, int kernel, int stride, int padding,
         util::Rng& rng, InputGrad input_grad = InputGrad::kCompute);

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
  InputGrad input_grad_;
  Param weight_;  // [C_out, C_in, K]
  Param bias_;    // [C_out]
  // forward()'s two register-tile nests (DESIGN §6).
  // `packed` holds the weights of every 8-channel tile, channel-minor.
  void forward_frame_lanes(const float* x, const float* packed, int len, int out_len,
                           int batch, float* y) const;
  void forward_position_lanes(const float* x, const float* packed, int len, int out_len,
                              int batch, float* y);
  struct Tap {
    int lo, hi;       // lanes of an output row whose input lies inside [0, L)
    std::size_t src;  // offset of lane 0's value in its channel's phase rows
  };
  std::deque<Tensor> cache_;
  std::vector<Tap> taps_;     // forward_position_lanes: per-call tap table
  kern::Workspace ws_;        // per-call scratch rows of forward and backward
  std::vector<int> nonzero_;  // backward: outputs of one (oc, frame) with a non-zero gradient
};

}  // namespace m2ai::nn
