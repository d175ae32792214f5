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
  const bool batched = input.rank() == 2 && input.dim(0) == in_;
  if (!batched && static_cast<int>(input.size()) != in_) {
    throw std::invalid_argument("Dense::forward: expected " + std::to_string(in_) +
                                " features or [" + std::to_string(in_) + ", B], got " +
                                input.shape_string());
  }
  // A view of the input as a vector or [in, B]; only a higher-rank single
  // frame needs a flattened copy.
  Tensor flat;
  const Tensor& x = batched || input.rank() == 1 ? input : (flat = input.flattened());
  const int batch = batched ? input.dim(1) : 1;
  Tensor y(batched ? std::vector<int>{out_, batch} : std::vector<int>{out_});
  // Every frame gets y[o] = b[o] + sum_k w[o][k] x[k], k ascending. One frame
  // runs the backend's gemv: training is pinned to the reference backend so
  // checkpoints stay bitwise reproducible no matter which backend is active,
  // and evaluation dispatches. A batch runs gemv_frames, gemv's reference
  // order vectorized across frames, under every backend.
  if (batch == 1) {
    const kern::Backend& be = train ? kern::reference_backend() : kern::active();
    be.gemv(weight_.value.data(), x.data(), bias_.value.data(), y.data(), out_, in_);
  } else {
    kern::gemv_frames(weight_.value.data(), x.data(), bias_.value.data(), y.data(), out_,
                      in_, batch);
  }
  if (train) cache_.push_back(x);
  return y;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cache_.empty()) throw std::logic_error("Dense::backward: no cached forward");
  const int batch = cache_.back().rank() == 2 ? cache_.back().dim(1) : 1;
  if (static_cast<int>(grad_output.size()) != out_ * batch) {
    throw std::invalid_argument("Dense::backward: expected " + std::to_string(out_) + "x" +
                                std::to_string(batch) + " gradients, got " +
                                grad_output.shape_string());
  }
  const Tensor x = std::move(cache_.back());
  cache_.pop_back();

  // Reference order: B single-frame gemv_backward_acc calls, LIFO (frame B-1
  // first), each per row r: bias_g[r] += g[r], then for k ascending
  // wg[r][k] += g[r] x[k] and dx[k] += g[r] w[r][k]. Here the frames run
  // descending inside each row, so every weight and bias gradient element
  // takes the same terms in the same order; each frame's dx still takes its
  // rows ascending from +0. The input and dx are held frame-major (xT[f][k])
  // so the k loop is contiguous; one frame needs no transpose.
  const std::size_t nb = static_cast<std::size_t>(batch);
  const std::size_t n_in = static_cast<std::size_t>(in_);
  Tensor grad_in(x.shape());
  ws_.reset();
  const float* xT = x.data();
  float* dxT = grad_in.data();
  if (batch > 1) {
    float* xt = ws_.alloc(n_in * nb);
    kern::transpose(x.data(), in_, batch, xt);
    xT = xt;
    dxT = ws_.alloc_zero(n_in * nb);
  }
  const float* g = grad_output.data();
  const float* w = weight_.value.data();
  float* wg = weight_.grad.data();
  float* bg = bias_.grad.data();
  for (int r = 0; r < out_; ++r) {
    const float* wr = w + static_cast<std::size_t>(r) * n_in;
    float* wgr = wg + static_cast<std::size_t>(r) * n_in;
    for (std::size_t f = nb; f-- > 0;) {
      const float gr = g[static_cast<std::size_t>(r) * nb + f];
      bg[r] += gr;
      const float* xf = xT + f * n_in;
      float* dxf = dxT + f * n_in;
      for (std::size_t k = 0; k < n_in; ++k) {
        wgr[k] += gr * xf[k];
        dxf[k] += gr * wr[k];
      }
    }
  }
  if (batch > 1) kern::transpose(dxT, batch, in_, grad_in.data());
  return grad_in;
}

}  // namespace m2ai::nn
