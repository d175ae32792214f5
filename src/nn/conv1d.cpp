#include "nn/conv1d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace m2ai::nn {

Conv1d::Conv1d(int in_channels, int out_channels, int kernel, int stride,
               int padding, util::Rng& rng, InputGrad input_grad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      input_grad_(input_grad),
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

namespace {
// The frames of a [C, L, B] batch; a [C, L] tensor is one frame.
int batch_of(const Tensor& t) { return t.rank() == 3 ? t.dim(2) : 1; }
}  // namespace

Tensor Conv1d::forward(const Tensor& input, bool train) {
  if ((input.rank() != 2 && input.rank() != 3) || input.dim(0) != in_channels_) {
    const std::string c = std::to_string(in_channels_);
    throw std::invalid_argument("Conv1d::forward: expected [" + c + ", L] or [" + c +
                                ", L, B], got " + input.shape_string());
  }
  const int len = input.dim(1);
  const int out_len = output_length(len);
  const int batch = batch_of(input);
  std::vector<int> out_shape{out_channels_, out_len};
  if (input.rank() == 3) out_shape.push_back(batch);
  Tensor y(std::move(out_shape));

  const float* x = input.data();
  const float* w = weight_.value.data();
  float* out = y.data();
  // One loop nest for one frame or a frame-minor batch, training and
  // evaluation, under every backend. It vectorizes across output positions
  // and frames without reordering any element's sum:
  //  - Each input row is de-strided once into `stride` phase rows,
  //    phase[ph][m][f] = x[m*stride + ph][f], so the values tap k reads,
  //    x[ol*stride + k - padding][f], form one contiguous (shifted) run of
  //    (hi - lo) * B floats. A stride-1 input is its own phase row.
  //  - Every tap keeps exact bounds: it only touches the ol in [lo, hi)
  //    whose input lies inside [0, len), the same range for every frame — no
  //    zero-padded taps (DESIGN §6).
  //  - kOcBlock output channels share each pass over a tap's run. Per
  //    (channel block, ic) a zeroed partial row takes the valid taps
  //    k-ascending and is then folded into y, ic ascending; out_channels is
  //    padded to the block with zero-weight rows that are never folded.
  //  - So y = bias + sum_ic (+0 + sum_k w * x): the old per-element loop's
  //    order, bit for bit, for every frame.
  constexpr int kOcBlock = 4;
  const std::size_t nb = static_cast<std::size_t>(batch);
  const std::size_t n_out = static_cast<std::size_t>(out_len) * nb;  // one output row
  const std::size_t phase_row = static_cast<std::size_t>((len + stride_ - 1) / stride_) * nb;
  ws_.reset();
  const float* phases = x;
  if (stride_ > 1) {
    float* rows = ws_.alloc(static_cast<std::size_t>(in_channels_) * stride_ * phase_row);
    const std::size_t step = static_cast<std::size_t>(stride_) * nb;
    for (int ic = 0; ic < in_channels_; ++ic) {
      for (int ph = 0; ph < stride_; ++ph) {
        const float* xs = x + (static_cast<std::size_t>(ic) * len + ph) * nb;
        float* row = rows + (static_cast<std::size_t>(ic) * stride_ + ph) * phase_row;
        const int count = (len - ph + stride_ - 1) / stride_;  // m*stride + ph < len
        // One frame copies single floats; a copy loop of one float per
        // position would cost the serving path more than the convolution.
        if (nb == 1) {
          for (int m = 0; m < count; ++m) row[m] = xs[static_cast<std::size_t>(m) * step];
        } else {
          for (int m = 0; m < count; ++m) {
            const float* src = xs + static_cast<std::size_t>(m) * step;
            float* dst = row + static_cast<std::size_t>(m) * nb;
            for (std::size_t f = 0; f < nb; ++f) dst[f] = src[f];
          }
        }
      }
    }
    phases = rows;
  }
  // Each tap's valid output range [lo, hi) and the start of the values it
  // reads in its input channel's phase rows, the same for every channel.
  taps_.clear();
  for (int k = 0; k < kernel_; ++k) {
    const int off = k - padding_;  // x index at ol == 0
    const int lo = off < 0 ? std::min(out_len, (-off + stride_ - 1) / stride_) : 0;
    const int hi = off < len ? std::min(out_len, (len - 1 - off) / stride_ + 1) : 0;
    const int ph = ((off % stride_) + stride_) % stride_;
    const int shift = (off - ph) / stride_;  // x[ol*stride + off] = phase[ph][ol + shift]
    taps_.push_back({lo, hi, static_cast<std::size_t>(ph) * phase_row +
                                 static_cast<std::size_t>(lo + shift) * nb});
  }
  float* partial = ws_.alloc(kOcBlock * n_out);
  for (int oc = 0; oc < out_channels_; oc += kOcBlock) {
    const int nj = std::min(kOcBlock, out_channels_ - oc);
    float* yb = out + static_cast<std::size_t>(oc) * n_out;
    for (int j = 0; j < nj; ++j) {
      std::fill_n(yb + j * n_out, n_out, bias_.value[static_cast<std::size_t>(oc + j)]);
    }
    for (int ic = 0; ic < in_channels_; ++ic) {
      const float* ic_rows = phases + static_cast<std::size_t>(ic) * stride_ * phase_row;
      std::fill_n(partial, kOcBlock * n_out, 0.0f);
      for (int k = 0; k < kernel_; ++k) {
        const Tap& tap = taps_[static_cast<std::size_t>(k)];
        if (tap.lo >= tap.hi) continue;
        const float* src = ic_rows + tap.src;
        float* p = partial + static_cast<std::size_t>(tap.lo) * nb;
        float wb[kOcBlock];
        for (int j = 0; j < kOcBlock; ++j) {
          wb[j] = j < nj ? w[((static_cast<std::size_t>(oc) + j) * in_channels_ + ic) * kernel_ + k]
                         : 0.0f;
        }
        const std::size_t run = static_cast<std::size_t>(tap.hi - tap.lo) * nb;
        for (std::size_t i = 0; i < run; ++i) {
          const float tv = src[i];
          for (int j = 0; j < kOcBlock; ++j) p[j * n_out + i] += wb[j] * tv;
        }
      }
      // The block's live rows are contiguous in y and in the partial.
      const std::size_t n_block = static_cast<std::size_t>(nj) * n_out;
      for (std::size_t i = 0; i < n_block; ++i) yb[i] += partial[i];
    }
  }
  if (train) cache_.push_back(input);
  return y;
}

Tensor Conv1d::backward(const Tensor& grad_output) {
  if (cache_.empty()) throw std::logic_error("Conv1d::backward: no cached forward");
  // Validate against the cached forward before consuming it: a mis-shaped
  // gradient (wrong layer order, stale cache) used to read out of bounds
  // here instead of failing like forward() does.
  const Tensor& cached = cache_.back();
  const int expect_len = output_length(cached.dim(1));
  std::vector<int> expect{out_channels_, expect_len};
  if (cached.rank() == 3) expect.push_back(cached.dim(2));
  if (grad_output.shape() != expect) {
    throw std::invalid_argument(
        "Conv1d::backward: expected " + Tensor(expect).shape_string() + ", got " +
        grad_output.shape_string());
  }
  const Tensor xt = std::move(cache_.back());
  cache_.pop_back();

  const int len = xt.dim(1);
  const int out_len = expect_len;
  const int batch = batch_of(xt);
  const bool want_gi = input_grad_ == InputGrad::kCompute;
  Tensor grad_in = want_gi ? Tensor(xt.shape()) : Tensor();

  const float* x = xt.data();
  const float* g = grad_output.data();
  // Reference order (DESIGN §6, restated in test_layers): B single-frame
  // calls, LIFO (frame B-1 first), each per (oc, ic, ol) with ol ascending:
  // skip a zero g, then walk the output's valid taps k-ascending, adding
  // go * x into the weight gradient and go * w into the input gradient.
  // This nest adds exactly those terms to every element in that order, but
  // vectorizes across the (k, ic) pairs of one output:
  //  - Each frame's input and its gradient are held position-major
  //    (xT[f][pos][ic]), the weights and their gradient per oc as [k][ic],
  //    transposed once per call. Output ol's valid taps then cover one
  //    contiguous run c in [k_lo*IC, k_hi*IC) of both, starting at
  //    xT[f][(ol*stride - padding)*IC]: a GEMM row over c,
  //    wgT[oc][c] += go * xT[f][start*IC + c] and giT[f][start*IC + c] +=
  //    go * wT[oc][c]. Each row keeps exact tap bounds and a zero g skips
  //    its row, so no w*0 or 0*x term is ever added (non-finite values).
  //  - Rows run oc-outer, then frames descending, then ol ascending, so each
  //    weight-gradient element takes its terms frame by frame LIFO, ol
  //    ascending within a frame, and each input-gradient element oc then ol
  //    ascending, as before. Within a row every c is a different element.
  //  - Transposing in and out moves values without arithmetic; giT starts
  //    at +0, as the reference's zeroed grad_in does. With InputGrad::kSkip
  //    the rows add only the weight gradient.
  const int ic_n = in_channels_;
  const int kc = ic_n * kernel_;
  const std::size_t nb = static_cast<std::size_t>(batch);
  const std::size_t n_w = static_cast<std::size_t>(out_channels_) * kc;
  const std::size_t n_x = static_cast<std::size_t>(ic_n) * len;  // one frame
  ws_.reset();
  float* xT = ws_.alloc(n_x * nb);
  float* giT = want_gi ? ws_.alloc_zero(n_x * nb) : nullptr;
  float* wT = want_gi ? ws_.alloc(n_w) : nullptr;
  float* wgT = ws_.alloc(n_w);
  nonzero_.resize(static_cast<std::size_t>(out_len));
  for (std::size_t f = 0; f < nb; ++f) {
    float* xf = xT + f * n_x;
    for (int ic = 0; ic < ic_n; ++ic) {
      const float* xr = x + static_cast<std::size_t>(ic) * len * nb + f;
      for (int pos = 0; pos < len; ++pos) {
        xf[static_cast<std::size_t>(pos) * ic_n + ic] = xr[static_cast<std::size_t>(pos) * nb];
      }
    }
  }
  for (int oc = 0; oc < out_channels_; ++oc) {
    const std::size_t o = static_cast<std::size_t>(oc) * kc;
    if (want_gi) kern::transpose(weight_.value.data() + o, ic_n, kernel_, wT + o);
    kern::transpose(weight_.grad.data() + o, ic_n, kernel_, wgT + o);
  }

  for (int oc = 0; oc < out_channels_; ++oc) {
    const float* g_oc = g + static_cast<std::size_t>(oc) * out_len * nb;
    const float* w_oc = want_gi ? wT + static_cast<std::size_t>(oc) * kc : nullptr;
    float* wg_oc = wgT + static_cast<std::size_t>(oc) * kc;
    for (std::size_t f = nb; f-- > 0;) {
      // One scan of the frame's gradients gives its bias term and the zero-g
      // skip, hoisted out of the row loop as a branch-free list of the
      // outputs with a non-zero gradient (ReLU zeroes about half).
      float bias_acc = 0.0f;
      int n_nonzero = 0;
      for (int ol = 0; ol < out_len; ++ol) {
        const float go = g_oc[static_cast<std::size_t>(ol) * nb + f];
        bias_acc += go;
        nonzero_[static_cast<std::size_t>(n_nonzero)] = ol;
        n_nonzero += go != 0.0f;
      }
      bias_.grad[static_cast<std::size_t>(oc)] += bias_acc;

      const float* xf = xT + f * n_x;
      float* gif = want_gi ? giT + f * n_x : nullptr;
      for (int i = 0; i < n_nonzero; ++i) {
        const int ol = nonzero_[static_cast<std::size_t>(i)];
        const float go = g_oc[static_cast<std::size_t>(ol) * nb + f];
        const int start = ol * stride_ - padding_;
        const int lo = std::max(0, -start) * ic_n;
        const int hi = std::min(kernel_, len - start) * ic_n;
        const std::ptrdiff_t base = static_cast<std::ptrdiff_t>(start) * ic_n;
        if (gif != nullptr) {
          for (int c = lo; c < hi; ++c) {
            wg_oc[c] += go * xf[base + c];
            gif[base + c] += go * w_oc[c];
          }
        } else {
          for (int c = lo; c < hi; ++c) wg_oc[c] += go * xf[base + c];
        }
      }
    }
  }

  for (int oc = 0; oc < out_channels_; ++oc) {
    const std::size_t o = static_cast<std::size_t>(oc) * kc;
    kern::transpose(wgT + o, kernel_, ic_n, weight_.grad.data() + o);
  }
  if (want_gi) {
    float* gi = grad_in.data();
    for (std::size_t f = 0; f < nb; ++f) {
      const float* gf = giT + f * n_x;
      for (int ic = 0; ic < ic_n; ++ic) {
        float* gr = gi + static_cast<std::size_t>(ic) * len * nb + f;
        for (int pos = 0; pos < len; ++pos) {
          gr[static_cast<std::size_t>(pos) * nb] = gf[static_cast<std::size_t>(pos) * ic_n + ic];
        }
      }
    }
  }
  return grad_in;
}

}  // namespace m2ai::nn
