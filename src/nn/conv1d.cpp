#include "nn/conv1d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace m2ai::nn {

Conv1d::Conv1d(int in_channels, int out_channels, int kernel, int stride,
               int padding, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_("conv1d.weight", {out_channels, in_channels, kernel}),
      bias_("conv1d.bias", {out_channels}) {
  if (stride < 1 || kernel < 1) throw std::invalid_argument("Conv1d: bad geometry");
  const float std = std::sqrt(2.0f / static_cast<float>(in_channels * kernel));
  weight_.value.randomize_normal(rng, std);
}

int Conv1d::output_length(int input_length) const {
  const int span = input_length + 2 * padding_ - kernel_;
  if (span < 0) throw std::invalid_argument("Conv1d: input shorter than kernel");
  return span / stride_ + 1;
}

Tensor Conv1d::forward(const Tensor& input, bool train) {
  if (input.rank() != 2 || input.dim(0) != in_channels_) {
    throw std::invalid_argument("Conv1d::forward: expected [" +
                                std::to_string(in_channels_) + ", L], got " +
                                input.shape_string());
  }
  const int len = input.dim(1);
  const int out_len = output_length(len);
  Tensor y({out_channels_, out_len});

  const float* x = input.data();
  const float* w = weight_.value.data();
  float* out = y.data();
  // One loop nest for training and evaluation under every backend, vectorized
  // across output positions without reordering any element's sum:
  //  - Each input row is de-strided once into `stride` phase rows,
  //    phase[ph][m] = x[m*stride + ph], so the values tap k reads,
  //    x[ol*stride + k - padding], form one contiguous (shifted) phase row.
  //  - Every tap keeps exact bounds: it only touches the ol in [lo, hi)
  //    whose input lies inside [0, len) — no zero-padded taps (DESIGN §6).
  //  - Per (ic, oc) a zeroed partial row takes its valid taps k-ascending,
  //    kOcBlock output channels per pass so each phase value is loaded once
  //    per block; out_channels is padded to the block size with zero-weight
  //    rows that are never folded.
  //  - Then y = bias + sum_ic partial[ic], ic ascending: the old per-element
  //    loop's order, bit for bit.
  constexpr int kOcBlock = 4;
  const int oc_pad = (out_channels_ + kOcBlock - 1) / kOcBlock * kOcBlock;
  const int phase_len = (len + stride_ - 1) / stride_;
  const std::size_t n_out = static_cast<std::size_t>(out_len);
  const std::size_t oc_rows = static_cast<std::size_t>(out_channels_) * n_out;
  ws_.reset();
  float* phases = ws_.alloc(static_cast<std::size_t>(in_channels_) * stride_ * phase_len);
  float* partial = ws_.alloc_zero(static_cast<std::size_t>(in_channels_) * oc_pad * n_out);
  for (int ic = 0; ic < in_channels_; ++ic) {
    for (int ph = 0; ph < stride_; ++ph) {
      const float* xs = x + static_cast<std::size_t>(ic) * len + ph;
      float* row = phases + (static_cast<std::size_t>(ic) * stride_ + ph) * phase_len;
      for (int m = 0; m * stride_ + ph < len; ++m) row[m] = xs[static_cast<std::size_t>(m) * stride_];
    }
  }
  for (int k = 0; k < kernel_; ++k) {
    const int off = k - padding_;  // x index at ol == 0
    const int lo = off < 0 ? std::min(out_len, (-off + stride_ - 1) / stride_) : 0;
    const int hi = off < len ? std::min(out_len, (len - 1 - off) / stride_ + 1) : 0;
    const int ph = ((off % stride_) + stride_) % stride_;
    const int shift = (off - ph) / stride_;  // x[ol*stride + off] = phase[ph][ol + shift]
    for (int ic = 0; ic < in_channels_; ++ic) {
      const float* t = phases + (static_cast<std::size_t>(ic) * stride_ + ph) * phase_len;
      for (int oc = 0; oc < out_channels_; oc += kOcBlock) {
        float wb[kOcBlock];
        for (int j = 0; j < kOcBlock; ++j) {
          wb[j] = oc + j < out_channels_
                      ? w[((static_cast<std::size_t>(oc) + j) * in_channels_ + ic) * kernel_ + k]
                      : 0.0f;
        }
        float* p = partial + (static_cast<std::size_t>(ic) * oc_pad + oc) * n_out;
        for (int ol = lo; ol < hi; ++ol) {
          const float tv = t[ol + shift];
          for (int j = 0; j < kOcBlock; ++j) p[j * n_out + ol] += wb[j] * tv;
        }
      }
    }
  }
  for (int oc = 0; oc < out_channels_; ++oc) {
    const float b = bias_.value[static_cast<std::size_t>(oc)];
    for (int ol = 0; ol < out_len; ++ol) out[oc * n_out + ol] = b;
  }
  for (int ic = 0; ic < in_channels_; ++ic) {
    const float* p = partial + static_cast<std::size_t>(ic) * oc_pad * n_out;
    for (std::size_t i = 0; i < oc_rows; ++i) out[i] += p[i];
  }
  if (train) cache_.push_back(input);
  return y;
}

Tensor Conv1d::backward(const Tensor& grad_output) {
  if (cache_.empty()) throw std::logic_error("Conv1d::backward: no cached forward");
  // Validate against the cached forward before consuming it: a mis-shaped
  // gradient (wrong layer order, stale cache) used to read out of bounds
  // here instead of failing like forward() does.
  const int expect_len = output_length(cache_.back().dim(1));
  if (grad_output.rank() != 2 || grad_output.dim(0) != out_channels_ ||
      grad_output.dim(1) != expect_len) {
    throw std::invalid_argument("Conv1d::backward: expected [" +
                                std::to_string(out_channels_) + ", " +
                                std::to_string(expect_len) + "], got " +
                                grad_output.shape_string());
  }
  const Tensor xt = std::move(cache_.back());
  cache_.pop_back();

  const int len = xt.dim(1);
  const int out_len = grad_output.dim(1);
  Tensor grad_in({in_channels_, len});

  const float* x = xt.data();
  const float* g = grad_output.data();
  // Reference order (DESIGN §6, restated in test_layers): per (oc, ic, ol)
  // with ol ascending, skip a zero g, then walk the output's valid taps
  // k-ascending, adding go * x into the weight gradient and go * w into the
  // input gradient. This nest adds exactly those terms to every element in
  // that order, but vectorizes across the (k, ic) pairs of one output:
  //  - The input and its gradient are held position-major (xT[pos][ic]),
  //    the weights and their gradient per oc as [k][ic]. Output ol's valid
  //    taps then cover one contiguous run c in [k_lo*IC, k_hi*IC) of both,
  //    starting at xT[(ol*stride - padding)*IC]: a GEMM row over c,
  //    wgT[oc][c] += go * xT[start*IC + c] and giT[start*IC + c] +=
  //    go * wT[oc][c]. Each row keeps exact tap bounds and a zero g skips
  //    its row, so no w*0 or 0*x term is ever added (non-finite values).
  //  - Rows run oc-outer, ol ascending, so each weight-gradient element takes
  //    its terms ol ascending and each input-gradient element oc then ol
  //    ascending, as before. Within a row every c is a different element.
  //  - Transposing in and out moves values without arithmetic; giT starts
  //    at +0, as the reference's zeroed grad_in does.
  const int ic_n = in_channels_;
  const int kc = ic_n * kernel_;
  const std::size_t n_w = static_cast<std::size_t>(out_channels_) * kc;
  const std::size_t n_x = static_cast<std::size_t>(ic_n) * len;
  ws_.reset();
  float* xT = ws_.alloc(n_x);
  float* giT = ws_.alloc_zero(n_x);
  float* wT = ws_.alloc(n_w);
  float* wgT = ws_.alloc(n_w);
  nonzero_.resize(static_cast<std::size_t>(out_len));
  kern::transpose(x, ic_n, len, xT);
  for (int oc = 0; oc < out_channels_; ++oc) {
    const std::size_t o = static_cast<std::size_t>(oc) * kc;
    kern::transpose(weight_.value.data() + o, ic_n, kernel_, wT + o);
    kern::transpose(weight_.grad.data() + o, ic_n, kernel_, wgT + o);
  }

  for (int oc = 0; oc < out_channels_; ++oc) {
    const float* g_oc = g + static_cast<std::size_t>(oc) * out_len;
    float bias_acc = 0.0f;
    for (int ol = 0; ol < out_len; ++ol) bias_acc += g_oc[ol];
    bias_.grad[static_cast<std::size_t>(oc)] += bias_acc;

    const float* w_oc = wT + static_cast<std::size_t>(oc) * kc;
    float* wg_oc = wgT + static_cast<std::size_t>(oc) * kc;
    // The zero-g skip, hoisted out of the row loop as a branch-free list of
    // the outputs with a non-zero gradient (ReLU zeroes about half).
    int n_nonzero = 0;
    for (int ol = 0; ol < out_len; ++ol) {
      nonzero_[static_cast<std::size_t>(n_nonzero)] = ol;
      n_nonzero += g_oc[ol] != 0.0f;
    }
    for (int i = 0; i < n_nonzero; ++i) {
      const int ol = nonzero_[static_cast<std::size_t>(i)];
      const float go = g_oc[ol];
      const int start = ol * stride_ - padding_;
      const int lo = std::max(0, -start) * ic_n;
      const int hi = std::min(kernel_, len - start) * ic_n;
      const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(start) * ic_n;
      for (int c = lo; c < hi; ++c) {
        wg_oc[c] += go * xT[base + c];
        giT[base + c] += go * w_oc[c];
      }
    }
  }

  for (int oc = 0; oc < out_channels_; ++oc) {
    const std::size_t o = static_cast<std::size_t>(oc) * kc;
    kern::transpose(wgT + o, kernel_, ic_n, weight_.grad.data() + o);
  }
  kern::transpose(giT, len, ic_n, grad_in.data());
  return grad_in;
}

}  // namespace m2ai::nn
