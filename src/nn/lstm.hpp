// Long Short-Term Memory layer (Hochreiter & Schmidhuber 1997), the temporal
// half of the paper's engine (Sec. IV-B.2): gates i/f/o control overwrite,
// keep, and retrieval of the memory cell c_t; full backpropagation through
// time. Stacked pairs of these (2 x 32 cells in the paper) encode the CNN
// features frame by frame.
//
// All four gates of a timestep are computed as one m=1 GEMM (kern::gemm_bias)
// of the packed [x; h_prev] vector against Wᵀ, transposed into scratch once
// per forward call (8x8 blocks through registers), and the per-step BPTT
// caches live in a flat workspace arena instead of nine Tensors per step —
// both bitwise-identical to the per-gate scalar loops they replaced.
// gemm_bias keeps 64 gate rows (32 without AVX) in eight vector
// accumulators across the whole [x; h_prev] input, each row still bias
// first, then its terms in order (DESIGN §6). The nonlinearities are the repo's own
// float sigmoid and tanh (nn/math.hpp), run as block loops over the
// contiguous gate rows — sigmoid over [i; f], tanh over g, sigmoid over o,
// then tanh(c) — which the compiler vectorizes and which give the same bits
// as scalar calls, on any host and at any -O/-march. backward() only reads
// the cached gates.
#pragma once

#include <vector>

#include "kern/workspace.hpp"
#include "nn/layer.hpp"

namespace m2ai::nn {

class Lstm {
 public:
  Lstm(int input_size, int hidden_size, util::Rng& rng);

  // Process a whole sequence from zero initial state; returns the hidden
  // state h_t per step. With train=true, caches for backward() are kept;
  // any stale cache from an abandoned training step is discarded first.
  std::vector<Tensor> forward(const std::vector<Tensor>& inputs, bool train);

  // BPTT for the most recent forward(). `grad_outputs[t]` is dLoss/dh_t
  // (zero tensors are fine for steps without loss). Returns dLoss/dx_t and
  // accumulates parameter gradients.
  std::vector<Tensor> backward(const std::vector<Tensor>& grad_outputs);

  std::vector<Param*> params() { return {&weight_, &bias_}; }
  void clear_cache() { steps_.clear(); }

  int input_size() const { return input_size_; }
  int hidden_size() const { return hidden_size_; }

 private:
  // One BPTT step's cached activations, viewed into train_ws_. Pointers stay
  // valid until the next training forward resets the arena (Workspace blocks
  // never move on growth).
  struct StepView {
    const float* xh;      // packed GEMV input [x; h_prev], I+H
    const float* c_prev;  // [H] (previous step's c, or the shared zero row)
    const float* gates;   // activations [i; f; g; o], 4H
    const float* c;       // [H]
    const float* tanh_c;  // [H]
  };

  int input_size_;
  int hidden_size_;
  // Gate order in the stacked weight: [i; f; g; o], each H rows over (I+H)
  // inputs ([x; h_prev]).
  Param weight_;  // [4H, I+H]
  Param bias_;    // [4H]
  std::vector<StepView> steps_;
  // Step caches live in train_ws_ (reset only by the next training forward);
  // transient per-call buffers come from scratch_ws_, so an evaluation
  // forward between a training forward and its backward — the gradcheck
  // pattern — cannot clobber the pending caches.
  kern::Workspace train_ws_;
  kern::Workspace scratch_ws_;
};

}  // namespace m2ai::nn
