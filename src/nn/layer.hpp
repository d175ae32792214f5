// Layer interface of the learning engine.
//
// Weight sharing over time (the same CNN applied to every spectrum frame of
// a sequence) is supported in two equivalent ways. The per-frame layers
// (Conv1d, Dense, Dropout and the element-wise activations) accept a
// frame-minor batch — the frames stacked on a trailing axis with
// nn::stack_frames — and give every frame the bits of a one-frame call, so
// core::M2AINetwork runs a sequence's T frames as one call. Calls also
// follow a LIFO cache discipline: each forward() pushes its activation
// cache, each backward() pops the most recent one, and parameter gradients
// ACCUMULATE across calls until the optimizer consumes and clears them. A
// batch's backward adds the terms of its frames' one-frame backward calls
// popped LIFO (frame B-1 first).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace m2ai::nn {

// A learnable parameter and its accumulated gradient.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string param_name, std::vector<int> shape)
      : name(std::move(param_name)), value(shape), grad(shape) {}
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Forward pass on one example; pushes a cache entry when `train` is true.
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  // Backward pass for the most recent un-popped forward() call; returns the
  // gradient w.r.t. that call's input and accumulates parameter gradients.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // Learnable parameters (may be empty).
  virtual std::vector<Param*> params() { return {}; }

  // Drop any cached activations (e.g. after an aborted sequence).
  virtual void clear_cache() {}

  // Re-derive this layer's private random stream from `base` (stochastic
  // layers fork from it; deterministic layers ignore it). The data-parallel
  // trainer reseeds every replica from a per-sample stream fixed before the
  // fan-out, so the randomness a sample sees never depends on which replica
  // (or thread count) processed it.
  virtual void reseed(util::Rng& base) { (void)base; }

  virtual std::string name() const = 0;
};

}  // namespace m2ai::nn
