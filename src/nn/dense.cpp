#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "kern/backend.hpp"
#include "kern/kernels.hpp"

namespace m2ai::nn {

Dense::Dense(int in_features, int out_features, util::Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("dense.weight", {out_features, in_features}),
      bias_("dense.bias", {out_features}) {
  // He initialization (layers are followed by ReLU in this codebase).
  const float std = std::sqrt(2.0f / static_cast<float>(in_features));
  weight_.value.randomize_normal(rng, std);
}

Tensor Dense::forward(const Tensor& input, bool train) {
  const Tensor x = input.rank() == 1 ? input : input.flattened();
  if (static_cast<int>(x.size()) != in_) {
    throw std::invalid_argument("Dense::forward: expected " + std::to_string(in_) +
                                " features, got " + x.shape_string());
  }
  Tensor y({out_});
  // Training is pinned to the reference backend so checkpoints stay bitwise
  // reproducible no matter which backend is active; evaluation dispatches.
  const kern::Backend& be = train ? kern::reference_backend() : kern::active();
  be.gemv(weight_.value.data(), x.data(), bias_.value.data(), y.data(), out_, in_);
  if (train) cache_.push_back(x);
  return y;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cache_.empty()) throw std::logic_error("Dense::backward: no cached forward");
  if (static_cast<int>(grad_output.size()) != out_) {
    throw std::invalid_argument("Dense::backward: expected " + std::to_string(out_) +
                                " gradients, got " + grad_output.shape_string());
  }
  const Tensor x = std::move(cache_.back());
  cache_.pop_back();

  Tensor grad_in({in_});
  kern::gemv_backward_acc(weight_.value.data(), weight_.grad.data(), x.data(),
                          grad_output.data(), bias_.grad.data(), grad_in.data(),
                          out_, in_, /*skip_zero_rows=*/false);
  return grad_in;
}

}  // namespace m2ai::nn
