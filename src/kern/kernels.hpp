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
// Kernels take raw pointers; callers own shape validation and aliasing
// rules (inputs must not alias outputs unless a kernel says otherwise).
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>

namespace m2ai::kern {

// y[r] = (bias ? bias[r] : 0) + sum_k w[r*cols + k] * x[k], k ascending.
// Matches the naive Dense loop bit for bit. The nest is k-outer / row-inner,
// so the rows' independent accumulator chains run side by side (and
// vectorize) instead of one latency-bound chain per row; y must not alias w
// or x.
inline void gemv(const float* w, const float* x, const float* bias, float* y,
                 int rows, int cols) {
  for (int r = 0; r < rows; ++r) y[r] = bias != nullptr ? bias[r] : 0.0f;
  for (int k = 0; k < cols; ++k) {
    const float xk = x[k];
    const float* wk = w + k;
    for (int r = 0; r < rows; ++r) y[r] += wk[static_cast<std::size_t>(r) * cols] * xk;
  }
}

// gemv over a frame-minor batch: y[r*frames + f] = (bias ? bias[r] : 0) +
// sum_k w[r*cols + k] * x[k*frames + f], k ascending — gemv's per-element
// order for every frame f. Four rows share each pass over x's row k, and the
// frame loop is innermost, so it vectorizes across frames. With one frame
// the frame loop is a scalar step: call gemv then. y must not alias w, x or
// bias (restrict spares the frame loop a runtime overlap test per pass).
inline void gemv_frames(const float* __restrict w, const float* __restrict x,
                        const float* __restrict bias, float* __restrict y, int rows,
                        int cols, int frames) {
  const std::size_t nf = static_cast<std::size_t>(frames);
  for (int r0 = 0; r0 < rows; r0 += 4) {
    const int nr = rows - r0 < 4 ? rows - r0 : 4;
    float* y0 = y + static_cast<std::size_t>(r0) * nf;
    for (int j = 0; j < nr; ++j) {
      const float b = bias != nullptr ? bias[r0 + j] : 0.0f;
      for (std::size_t f = 0; f < nf; ++f) y0[j * nf + f] = b;
    }
    const float* w0 = w + static_cast<std::size_t>(r0) * cols;
    for (int k = 0; k < cols; ++k) {
      const float* xk = x + static_cast<std::size_t>(k) * nf;
      if (nr == 4) {
        const float a0 = w0[k], a1 = w0[cols + k], a2 = w0[2 * cols + k],
                    a3 = w0[3 * static_cast<std::size_t>(cols) + k];
        for (std::size_t f = 0; f < nf; ++f) {
          const float xv = xk[f];
          y0[f] += a0 * xv;
          y0[nf + f] += a1 * xv;
          y0[2 * nf + f] += a2 * xv;
          y0[3 * nf + f] += a3 * xv;
        }
      } else {
        for (int j = 0; j < nr; ++j) {
          const float a = w0[static_cast<std::size_t>(j) * cols + k];
          for (std::size_t f = 0; f < nf; ++f) y0[j * nf + f] += a * xk[f];
        }
      }
    }
  }
}

// at[k*rows + r] = a[r*cols + k]: the [cols, rows] operand gemm_bias needs
// to compute y = a x + b with gemv's per-element order. k-outer, so the
// writes run contiguously and only the reads stride.
inline void transpose(const float* a, int rows, int cols, float* at) {
  for (int k = 0; k < cols; ++k) {
    float* atk = at + static_cast<std::size_t>(k) * rows;
    for (int r = 0; r < rows; ++r) atk[r] = a[static_cast<std::size_t>(r) * cols + k];
  }
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
inline void gemm_bias(const float* a, const float* b, const float* bias, float* c,
                      int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    float* ci = c + static_cast<std::size_t>(i) * n;
    if (bias != nullptr) {
      for (int j = 0; j < n; ++j) ci[j] = bias[j];
    } else {
      for (int j = 0; j < n; ++j) ci[j] = 0.0f;
    }
    const float* ai = a + static_cast<std::size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const float av = ai[kk];
      const float* bk = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) ci[j] += av * bk[j];
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
// nn::Conv1d runs its own de-strided loop nest with this per-element order;
// the kernel stays in the backend table for kern::measure_micro.
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
inline void noise_projection(const std::complex<double>* un, int num_noise,
                             const std::complex<double>* steer, int num_bins,
                             int n, double* denom) {
  for (int bin = 0; bin < num_bins; ++bin) {
    const std::complex<double>* a = steer + static_cast<std::size_t>(bin) * n;
    double d = 0.0;
    for (int k = 0; k < num_noise; ++k) {
      const std::complex<double>* u = un + static_cast<std::size_t>(k) * n;
      std::complex<double> s{0.0, 0.0};
      for (int i = 0; i < n; ++i) s += std::conj(u[i]) * a[i];
      d += std::norm(s);
    }
    denom[bin] = d;
  }
}

}  // namespace m2ai::kern
