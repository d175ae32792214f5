// Deterministic compute microkernels for the DSP and NN hot paths.
//
// Determinism contract: every kernel accumulates each OUTPUT ELEMENT in the
// same serial order as the naive scalar loop it replaces (row-major, k
// ascending, float/double accumulators of the same width). Restructuring is
// only allowed ACROSS independent output elements — e.g. the k-outer /
// output-inner conv loop — never within one element's reduction, so results
// are bitwise-identical to the references at any thread count and (with
// -ffp-contract=off, set project-wide) at any optimization level.
//
// The forward products are register tiles (DESIGN §6): a block of outputs
// lives in vector accumulators across the whole reduction, and each vector
// lane is one output element that takes its terms in the reference order —
// bias or +0 first, then multiply and add, one term at a time. The vectors
// are GCC's generic vector types below, with no intrinsics and no FMA, so
// every lane width gives the same bits.
//
// Kernels take raw pointers; callers own shape validation and aliasing
// rules (inputs must not alias outputs unless a kernel says otherwise).
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstring>
#include <vector>

namespace m2ai::kern {

// Float lanes per vector: the target's register width, 32 bytes with AVX
// and 16 without. A generic vector wider than the target's registers is
// not split into register pairs by GCC 12 but kept in stack temporaries, so
// 32-byte tiles made a generic (SSE2) build's predict 1.6x slower than the
// loops they replaced. The tiles are written for both widths. Every
// translation unit that includes this header is built with the project's
// one -march, so all of them see the same kLanes (kern/backend_fast.cpp,
// the one with its own ISA flags, does not include it).
#ifdef __AVX__
inline constexpr int kLanes = 8;
#else
inline constexpr int kLanes = 4;
#endif
using f32v = float __attribute__((vector_size(kLanes * sizeof(float))));
using i32v = int __attribute__((vector_size(kLanes * sizeof(int))));
using f64v = double __attribute__((vector_size(kLanes * sizeof(float))));  // kLanes / 2
using f32x4 = float __attribute__((vector_size(16)));

// Unaligned loads and stores through memcpy, which compiles to one vector
// (or scalar) move and is defined for any float pointer. They, and splat,
// pass vectors by reference: a 32-byte vector passed or returned by value
// has another ABI with AVX than without, which GCC warns about.
template <class V>
inline void load(V& v, const void* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class V>
inline void store(void* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}
// Every lane of v becomes s; V may also be plain float. (No arithmetic
// makes the broadcast: +0 + s is not s for s = -0.)
template <class V>
inline void splat(V& v, float s) {
  if constexpr (sizeof(V) == 32) {
    v = V{s, s, s, s, s, s, s, s};
  } else if constexpr (sizeof(V) == 16) {
    v = V{s, s, s, s};
  } else {
    v = s;
  }
}

// y[r] = (bias ? bias[r] : 0) + sum_k w[r*cols + k] * x[k], k ascending.
// Matches the naive Dense loop bit for bit. The nest is k-outer / row-inner,
// so the rows' independent accumulator chains run side by side (and
// vectorize) instead of one latency-bound chain per row; y must not alias w
// or x. Dense's one-frame path keeps it: at 48x120 this column walk beat
// both interleaved per-row chains and a transpose plus a one-row gemm_bias.
inline void gemv(const float* w, const float* x, const float* bias, float* y,
                 int rows, int cols) {
  for (int r = 0; r < rows; ++r) y[r] = bias != nullptr ? bias[r] : 0.0f;
  for (int k = 0; k < cols; ++k) {
    const float xk = x[k];
    const float* wk = w + k;
    for (int r = 0; r < rows; ++r) y[r] += wk[static_cast<std::size_t>(r) * cols] * xk;
  }
}

namespace detail {
// One gemv_frames tile: rows wr[0..8) of w (a block of fewer than 8 rows
// repeats its last row) times the frames [f, f + lanes) of x. V is a lane
// vector, or float for one frame.
template <class V>
inline void gemv_frames_tile(const float* const* wr, const float* b, int nr,
                             const float* __restrict x, float* __restrict y, int cols,
                             std::size_t nf, std::size_t f) {
  V acc[8];
  for (int j = 0; j < 8; ++j) splat(acc[j], b[j]);
  for (int k = 0; k < cols; ++k) {
    V xv;
    load(xv, x + static_cast<std::size_t>(k) * nf + f);
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) acc[j] += wr[j][k] * xv;
  }
  for (int j = 0; j < nr; ++j) store(y + static_cast<std::size_t>(j) * nf + f, acc[j]);
}
}  // namespace detail

// gemv over a frame-minor batch: y[r*frames + f] = (bias ? bias[r] : 0) +
// sum_k w[r*cols + k] * x[k*frames + f], k ascending — gemv's per-element
// order for every frame f. A tile is 8 rows x kLanes frames: eight
// accumulators, one per row, hold kLanes frames each across all k, and each
// k costs one load of x's row and eight weight broadcasts. Frames left over
// run as one 4-frame tile (when kLanes is 8) and then one at a time; a block
// of fewer than 8 rows repeats its last row in the spare accumulators and
// stores only its own. y must not alias w, x or bias.
inline void gemv_frames(const float* __restrict w, const float* __restrict x,
                        const float* __restrict bias, float* __restrict y, int rows,
                        int cols, int frames) {
  const std::size_t nf = static_cast<std::size_t>(frames);
  for (int r0 = 0; r0 < rows; r0 += 8) {
    const int nr = rows - r0 < 8 ? rows - r0 : 8;
    const float* wr[8];
    float b[8];
    for (int j = 0; j < 8; ++j) {
      const int r = r0 + (j < nr ? j : nr - 1);
      wr[j] = w + static_cast<std::size_t>(r) * cols;
      b[j] = bias != nullptr ? bias[r] : 0.0f;
    }
    float* yr = y + static_cast<std::size_t>(r0) * nf;
    std::size_t f = 0;
    for (; f + kLanes <= nf; f += kLanes) {
      detail::gemv_frames_tile<f32v>(wr, b, nr, x, yr, cols, nf, f);
    }
    if (kLanes > 4 && f + 4 <= nf) {
      detail::gemv_frames_tile<f32x4>(wr, b, nr, x, yr, cols, nf, f);
      f += 4;
    }
    for (; f < nf; ++f) detail::gemv_frames_tile<float>(wr, b, nr, x, yr, cols, nf, f);
  }
}

namespace detail {
// Transposes the L x L block v (L lanes per vector) in registers: row i
// in, column i out. Interleave pairs of rows, then pairs of pairs (then, for
// 8 lanes, the 128-bit halves): the SSE / AVX unpack-shuffle ladder. A
// template, so that only the ladder of the build's lane width is compiled.
template <class V, int L>
inline void transpose_block(V (&v)[L]) {
  if constexpr (L == 8) {
    V t[8], s[8];
    for (int i = 0; i < 8; i += 2) {
      t[i] = __builtin_shufflevector(v[i], v[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
      t[i + 1] = __builtin_shufflevector(v[i], v[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
    }
    for (int i = 0; i < 8; i += 4) {
      for (int h = 0; h < 2; ++h) {
        s[i + 2 * h] = __builtin_shufflevector(t[i + h], t[i + h + 2], 0, 1, 8, 9, 4, 5, 12, 13);
        s[i + 2 * h + 1] =
            __builtin_shufflevector(t[i + h], t[i + h + 2], 2, 3, 10, 11, 6, 7, 14, 15);
      }
    }
    for (int c = 0; c < 4; ++c) {
      v[c] = __builtin_shufflevector(s[c], s[c + 4], 0, 1, 2, 3, 8, 9, 10, 11);
      v[c + 4] = __builtin_shufflevector(s[c], s[c + 4], 4, 5, 6, 7, 12, 13, 14, 15);
    }
  } else {
    static_assert(L == 4);
    const V t0 = __builtin_shufflevector(v[0], v[1], 0, 4, 1, 5);
    const V t1 = __builtin_shufflevector(v[0], v[1], 2, 6, 3, 7);
    const V t2 = __builtin_shufflevector(v[2], v[3], 0, 4, 1, 5);
    const V t3 = __builtin_shufflevector(v[2], v[3], 2, 6, 3, 7);
    v[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
    v[1] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
    v[2] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
    v[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
  }
}
}  // namespace detail

// at[c*rows + r] = row(r)[c] for r < rows, c < cols: the rows, given by a
// row-pointer callback, become columns. It only moves values. Square blocks
// of kLanes go through registers (row loads, shuffles, column stores), and
// the last block of each axis starts kLanes from its end, so it overlaps
// its neighbour and rewrites some values with themselves instead of falling
// back to a scalar tail. Shapes under kLanes on either axis copy one value
// at a time, k-outer.
template <class Row>
inline void transpose_rows(const Row& row, int rows, int cols, float* at) {
  const std::size_t nr = static_cast<std::size_t>(rows);
  if (rows < kLanes || cols < kLanes) {
    for (int c = 0; c < cols; ++c) {
      float* atc = at + static_cast<std::size_t>(c) * nr;
      for (int r = 0; r < rows; ++r) atc[r] = row(r)[c];
    }
    return;
  }
  for (int r0 = 0;; r0 += kLanes) {
    if (r0 > rows - kLanes) r0 = rows - kLanes;
    const float* src[kLanes];
    for (int i = 0; i < kLanes; ++i) src[i] = row(r0 + i);
    for (int c0 = 0;; c0 += kLanes) {
      if (c0 > cols - kLanes) c0 = cols - kLanes;
      f32v v[kLanes];
      for (int i = 0; i < kLanes; ++i) load(v[i], src[i] + c0);
      detail::transpose_block(v);
      for (int c = 0; c < kLanes; ++c) {
        store(at + static_cast<std::size_t>(c0 + c) * nr + r0, v[c]);
      }
      if (c0 + kLanes == cols) break;
    }
    if (r0 + kLanes == rows) break;
  }
}

// at[k*rows + r] = a[r*cols + k]: the [cols, rows] operand gemm_bias needs
// to compute y = a x + b with gemv's per-element order.
inline void transpose(const float* a, int rows, int cols, float* at) {
  transpose_rows([a, cols](int r) { return a + static_cast<std::size_t>(r) * cols; }, rows,
                 cols, at);
}

// Backward of y = W x + b with gradient accumulation, replicating the naive
// row loop exactly: per row r (optionally skipping g[r] == 0 rows, as the
// LSTM BPTT loop does), bias_g[r] += g[r], then for k ascending
// wg[r,k] += g[r]*x[k] and dx[k] += g[r]*w[r,k] — both updates inside the
// same k iteration, matching the reference interleaving.
inline void gemv_backward_acc(const float* w, float* wg, const float* x,
                              const float* g, float* bias_g, float* dx,
                              int rows, int cols, bool skip_zero_rows) {
  for (int r = 0; r < rows; ++r) {
    const float gr = g[r];
    if (skip_zero_rows && gr == 0.0f) continue;
    bias_g[r] += gr;
    const float* wr = w + static_cast<std::size_t>(r) * cols;
    float* wgr = wg + static_cast<std::size_t>(r) * cols;
    for (int k = 0; k < cols; ++k) {
      wgr[k] += gr * x[k];
      dx[k] += gr * wr[k];
    }
  }
}

// C[i,j] = sum_k A[i,k] * B[k,j] (C is fully overwritten). The loop nest is
// k-outer / j-inner so the compiler can vectorize over j, but each C[i,j]
// still receives its k terms in ascending order — bitwise-identical to the
// naive i/j/k triple loop with a scalar accumulator.
inline void gemm(const float* a, const float* b, float* c, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    float* ci = c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) ci[j] = 0.0f;
    const float* ai = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float av = ai[kk];
      const float* bk = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bk[j];
    }
  }
}

// GEMM with a per-column bias: C[i,j] = (bias ? bias[j] : 0) + sum_k A[i,k] *
// B[k,j]. Each output element starts from its bias and accumulates k
// ascending — exactly gemv's per-element order — so batching B gemv calls
// with the same weight matrix into one gemm_bias call (A = stacked inputs,
// B = transposed weights) is bitwise-identical to the B separate gemv calls.
// Per row of C, 8 * kLanes outputs (64 with AVX) stay in eight
// accumulators across all k — eight independent add chains, so the loop is
// bound by the adds' issue rate rather than their latency; the columns left
// over run kLanes at a time in one accumulator, then one at a time. C must
// not alias A, B or bias.
inline void gemm_bias(const float* __restrict a, const float* __restrict b,
                      const float* __restrict bias, float* __restrict c, int m, int k,
                      int n) {
  const std::size_t nn = static_cast<std::size_t>(n);
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * k;
    float* ci = c + static_cast<std::size_t>(i) * nn;
    std::size_t j = 0;
    for (; j + 8 * kLanes <= nn; j += 8 * kLanes) {
      f32v acc[8];
      for (int q = 0; q < 8; ++q) {
        if (bias != nullptr) {
          load(acc[q], bias + j + kLanes * q);
        } else {
          acc[q] = f32v{};
        }
      }
      for (int kk = 0; kk < k; ++kk) {
        const float av = ai[kk];
        const float* bk = b + static_cast<std::size_t>(kk) * nn + j;
#pragma GCC unroll 8
        for (int q = 0; q < 8; ++q) {
          f32v bv;
          load(bv, bk + kLanes * q);
          acc[q] += av * bv;
        }
      }
      for (int q = 0; q < 8; ++q) store(ci + j + kLanes * q, acc[q]);
    }
    for (; j + kLanes <= nn; j += kLanes) {
      f32v acc = {};
      if (bias != nullptr) load(acc, bias + j);
      for (int kk = 0; kk < k; ++kk) {
        f32v bv;
        load(bv, b + static_cast<std::size_t>(kk) * nn + j);
        acc += ai[kk] * bv;
      }
      store(ci + j, acc);
    }
    for (; j < nn; ++j) {
      float acc = bias != nullptr ? bias[j] : 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += ai[kk] * b[static_cast<std::size_t>(kk) * nn + j];
      ci[j] = acc;
    }
  }
}

// One input-channel row of a strided/padded 1-D convolution:
//   partial[ol] += w[k] * x[ol*stride - padding + k]
// over exactly the taps that land inside [0, len). The k-outer / ol-inner
// ordering turns the per-output bounds tests of the naive loop into two
// integer bounds per tap, and each partial[ol] still accumulates its valid
// k's in ascending order — bitwise-identical to the naive per-element loop.
// `partial` must be zeroed (or hold the running per-channel partial sums the
// caller wants to extend) before the first call for an output row.
// nn::Conv1d runs its own register tiles with this per-element order; the
// kernel stays in the backend table for kern::measure_micro.
inline void conv1d_row_acc(const float* x, int len, const float* w, int kernel,
                           int stride, int padding, float* partial, int out_len) {
  for (int k = 0; k < kernel; ++k) {
    const int off = k - padding;  // x index at ol == 0
    int ol_lo = 0;
    if (off < 0) ol_lo = (-off + stride - 1) / stride;
    const int max_pos = len - 1 - off;
    if (max_pos < 0) continue;
    const int ol_hi = max_pos / stride + 1 < out_len ? max_pos / stride + 1 : out_len;
    const float wk = w[k];
    const float* xs = x + off;
    for (int ol = ol_lo; ol < ol_hi; ++ol) {
      partial[ol] += wk * xs[static_cast<std::size_t>(ol) * stride];
    }
  }
}

// MUSIC noise-subspace projection scan (Eq. 12 denominator):
//   denom[bin] = sum over noise vectors u_k (k ascending) of
//                |sum_i conj(un[k*n + i]) * steer[bin*n + i]|^2
// with the inner product accumulated i-ascending — the same order as the
// per-bin column()/inner() reference, minus its per-(bin, k) allocations.
//
// The bin-major complex table is first split into real and imaginary
// tables with bins innermost (re[i*bins + bin]), so a tile of 8 bins rides
// the lanes of 8 / (kLanes / 2) double vectors. Per bin and k the tile computes what std::complex
// does: conj(u) * a as (ur*ar - ui'*ai, ur*ai + ui'*ar) with ui' = -ui, s
// from {+0, +0} by component-wise adds, d from +0 plus s.re*s.re + s.im*s.im
// (std::norm). Only where a product's parts are both NaN does std::complex
// differ — it then calls __muldc3 to recover infinities — and such a NaN
// reaches the bin's sum, so every NaN bin is recomputed by the scalar loop.
// The last block of bins starts at 8 from the end (it recomputes a few bins
// with the same bits); fewer than 8 bins run the scalar loop.
inline void noise_projection(const std::complex<double>* un, int num_noise,
                             const std::complex<double>* steer, int num_bins,
                             int n, double* denom) {
  const auto scalar_bin = [&](int bin) {
    const std::complex<double>* a = steer + static_cast<std::size_t>(bin) * n;
    double d = 0.0;
    for (int k = 0; k < num_noise; ++k) {
      const std::complex<double>* u = un + static_cast<std::size_t>(k) * n;
      std::complex<double> s{0.0, 0.0};
      for (int i = 0; i < n; ++i) s += std::conj(u[i]) * a[i];
      d += std::norm(s);
    }
    denom[bin] = d;
  };
  if (num_bins < 8) {
    for (int bin = 0; bin < num_bins; ++bin) scalar_bin(bin);
    return;
  }
  const std::size_t nb = static_cast<std::size_t>(num_bins);
  thread_local std::vector<double> table;
  table.resize(2 * static_cast<std::size_t>(n) * nb);
  double* re = table.data();
  double* im = re + static_cast<std::size_t>(n) * nb;
  for (std::size_t bin = 0; bin < nb; ++bin) {
    for (int i = 0; i < n; ++i) {
      const std::complex<double> v = steer[bin * static_cast<std::size_t>(n) + i];
      re[static_cast<std::size_t>(i) * nb + bin] = v.real();
      im[static_cast<std::size_t>(i) * nb + bin] = v.imag();
    }
  }
  constexpr int kPer = kLanes / 2;  // doubles per vector
  constexpr int kVecs = 8 / kPer;   // vectors per 8-bin tile
  for (std::size_t b0 = 0;; b0 += 8) {
    if (b0 > nb - 8) b0 = nb - 8;
    f64v d[kVecs] = {};
    for (int k = 0; k < num_noise; ++k) {
      const std::complex<double>* u = un + static_cast<std::size_t>(k) * n;
      f64v sr[kVecs] = {}, si[kVecs] = {};
      for (int i = 0; i < n; ++i) {
        const double ur = u[i].real(), ui = -u[i].imag();
        const double* ri = re + static_cast<std::size_t>(i) * nb + b0;
        const double* ii = im + static_cast<std::size_t>(i) * nb + b0;
        for (int h = 0; h < kVecs; ++h) {
          f64v ar, ai;
          load(ar, ri + kPer * h);
          load(ai, ii + kPer * h);
          sr[h] += ur * ar - ui * ai;
          si[h] += ur * ai + ui * ar;
        }
      }
      for (int h = 0; h < kVecs; ++h) d[h] += sr[h] * sr[h] + si[h] * si[h];
    }
    for (int h = 0; h < kVecs; ++h) store(denom + b0 + kPer * h, d[h]);
    if (b0 + 8 == nb) break;
  }
  for (int bin = 0; bin < num_bins; ++bin) {
    if (std::isnan(denom[bin])) scalar_bin(bin);
  }
}

}  // namespace m2ai::kern
