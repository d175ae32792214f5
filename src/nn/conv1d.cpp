#include "nn/conv1d.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// Output channels of one tile (one accumulator each); a tile's lanes are
// kern::kLanes (8 with AVX, 4 without).
constexpr int kOcTile = 8;
using kern::f32v;
using kern::i32v;
using kern::kLanes;

// One tile's output channels: their weights packed channel-minor,
// w[c*8 + j] = weight of channel oc0 + j at c = ic*K + k, so one pointer
// reaches all eight (eight row pointers spilled the partial sums), and
// their biases. A tile of fewer than kOcTile channels repeats
// its last channel in the spare slots and stores only its own.
struct OcTile {
  const float* w;
  float b[kOcTile];
  int n;
};

// Packs every tile's weights, tile after tile, into `packed`.
void pack_tiles(const float* w, int out_channels, std::size_t kc, float* packed) {
  for (int oc0 = 0; oc0 < out_channels; oc0 += kOcTile) {
    const int n = std::min(kOcTile, out_channels - oc0);
    for (int j = 0; j < kOcTile; ++j) {
      const float* row = w + static_cast<std::size_t>(oc0 + std::min(j, n - 1)) * kc;
      for (std::size_t c = 0; c < kc; ++c) packed[c * kOcTile + j] = row[c];
    }
    packed += kc * kOcTile;
  }
}

OcTile oc_tile(const float* packed, const float* bias, int oc0, int out_channels,
               std::size_t kc) {
  OcTile t;
  t.w = packed + static_cast<std::size_t>(oc0) * kc;
  t.n = std::min(kOcTile, out_channels - oc0);
  for (int j = 0; j < kOcTile; ++j) t.b[j] = bias[oc0 + std::min(j, t.n - 1)];
  return t;
}

int floor_div(int a, int b) { return a >= 0 ? a / b : -((-a + b - 1) / b); }
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
  // Register tiles of 8 output channels x kLanes lanes (DESIGN §6), one nest
  // per choice of lane axis: frames for a batch of at least kLanes,
  // flattened (position, frame) pairs below that. Either way each output element is
  // y = bias + sum_ic (+0 + sum_k w * x) — the naive per-element loop's
  // order, with exactly the taps whose input lies inside [0, len).
  ws_.reset();
  const std::size_t kc = static_cast<std::size_t>(in_channels_) * kernel_;
  float* packed = ws_.alloc((static_cast<std::size_t>(out_channels_) + kOcTile - 1) /
                            kOcTile * kOcTile * kc);
  pack_tiles(weight_.value.data(), out_channels_, kc, packed);
  if (batch >= kLanes) {
    forward_frame_lanes(input.data(), packed, len, out_len, batch, y.data());
  } else {
    forward_position_lanes(input.data(), packed, len, out_len, batch, y.data());
  }
  if (train) cache_.push_back(input);
  return y;
}

// Frames ride the lanes. All lanes of a tile share one output position ol,
// so its valid taps are the scalar range [k_lo, k_hi) and every load is
// kLanes consecutive frames of one input position: no masks and no copy of
// the input. The last lane group starts at batch - kLanes and recomputes a
// few frames of its neighbour with the same bits.
void Conv1d::forward_frame_lanes(const float* x, const float* packed, int len, int out_len,
                                 int batch, float* y) const {
  const std::size_t nb = static_cast<std::size_t>(batch);
  const std::size_t n_out = static_cast<std::size_t>(out_len) * nb;  // one output row
  const std::size_t kc = static_cast<std::size_t>(in_channels_) * kernel_;
  for (int oc0 = 0; oc0 < out_channels_; oc0 += kOcTile) {
    const OcTile t = oc_tile(packed, bias_.value.data(), oc0, out_channels_, kc);
    for (int ol = 0; ol < out_len; ++ol) {
      const int start = ol * stride_ - padding_;  // input position of tap 0
      const int k_lo = std::max(0, -start);
      const int k_hi = std::min(kernel_, len - start);
      float* yo = y + static_cast<std::size_t>(oc0) * n_out + static_cast<std::size_t>(ol) * nb;
      for (std::size_t f0 = 0;; f0 += kLanes) {
        f0 = std::min(f0, nb - kLanes);
        f32v acc[kOcTile];
#pragma GCC unroll 8
        for (int j = 0; j < kOcTile; ++j) kern::splat(acc[j], t.b[j]);
        for (int ic = 0; ic < in_channels_; ++ic) {
          const float* xc = x + static_cast<std::size_t>(ic) * len * nb + f0;
          const std::size_t wo = static_cast<std::size_t>(ic) * kernel_;
          f32v part[kOcTile];
#pragma GCC unroll 8
          for (int j = 0; j < kOcTile; ++j) part[j] = f32v{};
          for (int k = k_lo; k < k_hi; ++k) {
            f32v xv;
            kern::load(xv, xc + static_cast<std::size_t>(start + k) * nb);
#pragma GCC unroll 8
            for (int j = 0; j < kOcTile; ++j) part[j] += t.w[(wo + k) * kOcTile + j] * xv;
          }
#pragma GCC unroll 8
          for (int j = 0; j < kOcTile; ++j) acc[j] += part[j];
        }
        for (int j = 0; j < t.n; ++j) kern::store(yo + j * n_out + f0, acc[j]);
        if (f0 + kLanes == nb) break;
      }
    }
  }
}

// Flattened (position, frame) pairs ride the lanes: lane e of an output row
// is ol = e / batch, frame e % batch. The input is copied once into
// zero-margined phase rows, phase[ph][m][f] = x[m*stride + ph][f], so tap k
// reads one contiguous run, x[ol*stride + k - padding][f] =
// phase[ph][ol + shift][f], for every lane. A tap is valid for the lanes e in
// [lo*batch, hi*batch), where [lo, hi) are the outputs whose input lies
// inside [0, len); a tile whose lanes are all valid adds plainly, and at the
// edges the invalid lanes add -0 instead, which leaves any sum unchanged.
// The last lane group starts kLanes before the row's end; a shorter row
// runs as one group and stores only its own lanes.
void Conv1d::forward_position_lanes(const float* x, const float* packed, int len,
                                    int out_len, int batch, float* y) {
  const std::size_t nb = static_cast<std::size_t>(batch);
  const std::size_t n_out = static_cast<std::size_t>(out_len) * nb;
  const std::size_t g_end = std::max<std::size_t>(n_out, kLanes);  // lanes computed per row
  const int s = stride_;
  const int margin = (padding_ + s - 1) / s;  // positions before m = 0
  const int count = (len + s - 1) / s;        // positions of the longest phase
  const int max_shift = floor_div(kernel_ - 1 - padding_, s);
  const std::size_t row_len =
      std::max(static_cast<std::size_t>(margin + count) * nb,
               g_end + static_cast<std::size_t>(max_shift + margin) * nb);
  float* phases = ws_.alloc_zero(static_cast<std::size_t>(in_channels_) * s * row_len);
  for (int ic = 0; ic < in_channels_; ++ic) {
    for (int ph = 0; ph < s; ++ph) {
      const float* xs = x + (static_cast<std::size_t>(ic) * len + ph) * nb;
      float* row = phases + (static_cast<std::size_t>(ic) * s + ph) * row_len +
                   static_cast<std::size_t>(margin) * nb;
      // One frame copies single floats: a copy of nb floats per position
      // would become a library call per position.
      if (nb == 1) {
        for (int m = 0; m * s + ph < len; ++m) row[m] = xs[static_cast<std::size_t>(m) * s];
      } else {
        for (int m = 0; m * s + ph < len; ++m) {
          std::copy_n(xs + static_cast<std::size_t>(m) * s * nb, nb,
                      row + static_cast<std::size_t>(m) * nb);
        }
      }
    }
  }
  taps_.clear();
  for (int k = 0; k < kernel_; ++k) {
    const int off = k - padding_;  // x index at ol == 0
    const int lo = off < 0 ? std::min(out_len, (-off + s - 1) / s) : 0;
    const int hi = off < len ? std::min(out_len, (len - 1 - off) / s + 1) : 0;
    const int shift = floor_div(off, s);
    const int ph = off - shift * s;
    taps_.push_back({static_cast<int>(lo * nb), static_cast<int>(std::max(lo, hi) * nb),
                     static_cast<std::size_t>(ph) * row_len +
                         static_cast<std::size_t>(shift + margin) * nb});
  }
  i32v iota;
  for (int i = 0; i < kLanes; ++i) iota[i] = i;
  f32v neg_zero;
  kern::splat(neg_zero, -0.0f);
  const std::size_t kc = static_cast<std::size_t>(in_channels_) * kernel_;
  for (int oc0 = 0; oc0 < out_channels_; oc0 += kOcTile) {
    const OcTile t = oc_tile(packed, bias_.value.data(), oc0, out_channels_, kc);
    float* yb = y + static_cast<std::size_t>(oc0) * n_out;
    for (std::size_t g0 = 0;; g0 += kLanes) {
      g0 = std::min(g0, g_end - kLanes);
      const int e0 = static_cast<int>(g0);
      const i32v lane = iota + e0;
      f32v acc[kOcTile];
#pragma GCC unroll 8
      for (int j = 0; j < kOcTile; ++j) kern::splat(acc[j], t.b[j]);
      for (int ic = 0; ic < in_channels_; ++ic) {
        const float* rows = phases + static_cast<std::size_t>(ic) * s * row_len + g0;
        const std::size_t wo = static_cast<std::size_t>(ic) * kernel_;
        f32v part[kOcTile];
#pragma GCC unroll 8
        for (int j = 0; j < kOcTile; ++j) part[j] = f32v{};
        for (int k = 0; k < kernel_; ++k) {
          const Tap& tap = taps_[static_cast<std::size_t>(k)];
          if (tap.hi <= e0 || tap.lo >= e0 + kLanes) continue;  // no valid lane
          f32v xv;
          kern::load(xv, rows + tap.src);
          if (tap.lo <= e0 && e0 + kLanes <= tap.hi) {
#pragma GCC unroll 8
            for (int j = 0; j < kOcTile; ++j) part[j] += t.w[(wo + k) * kOcTile + j] * xv;
          } else {
            const i32v valid = (lane >= tap.lo) & (lane < tap.hi);
#pragma GCC unroll 8
            for (int j = 0; j < kOcTile; ++j) {
              part[j] += valid ? t.w[(wo + k) * kOcTile + j] * xv : neg_zero;
            }
          }
        }
#pragma GCC unroll 8
        for (int j = 0; j < kOcTile; ++j) acc[j] += part[j];
      }
      const std::size_t n_store = std::min<std::size_t>(kLanes, n_out - g0);
      for (int j = 0; j < t.n; ++j) {
        std::memcpy(yb + j * n_out + g0, &acc[j], n_store * sizeof(float));
      }
      if (g0 + kLanes == g_end) break;
    }
  }
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
