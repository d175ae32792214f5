// FAST kernel backend. This translation unit is compiled with its own flag
// set (see src/CMakeLists.txt): -mavx2 -mfma when the compiler supports them,
// plus -ffp-contract=fast -ftree-slp-vectorize — deliberately overriding the
// project-wide determinism pins FOR THIS FILE ONLY. Nothing here is
// bitwise-reproducible and nothing here may be called from training code;
// results are epsilon-equivalent to kernels.hpp (tests/test_kern_backend.cpp).
//
// Because the whole TU may be built with AVX2/FMA code generation, none of
// its kernels may execute on a CPU without those ISAs — dispatch
// (backend.cpp) only activates this table when fast_backend_supported(),
// which does the runtime CPUID check. fast_backend_supported() itself is
// called before any vector instruction can run, so it must stay free of
// floating-point work.

#include "kern/backend.hpp"

#include <complex>
#include <cstddef>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define M2AI_FAST_AVX2 1
#else
#define M2AI_FAST_AVX2 0
#endif

namespace m2ai::kern {
namespace {

#if M2AI_FAST_AVX2

inline float hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_movehdup_ps(s));
  return _mm_cvtss_f32(s);
}

void fast_gemv(const float* w, const float* x, const float* bias, float* y,
               int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* wr = w + static_cast<std::size_t>(r) * cols;
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    int k = 0;
    for (; k + 32 <= cols; k += 32) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(wr + k), _mm256_loadu_ps(x + k), acc0);
      acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(wr + k + 8), _mm256_loadu_ps(x + k + 8), acc1);
      acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(wr + k + 16), _mm256_loadu_ps(x + k + 16), acc2);
      acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(wr + k + 24), _mm256_loadu_ps(x + k + 24), acc3);
    }
    for (; k + 8 <= cols; k += 8) {
      acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(wr + k), _mm256_loadu_ps(x + k), acc0);
    }
    acc0 = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
    float acc = hsum256(acc0);
    for (; k < cols; ++k) acc += wr[k] * x[k];
    y[r] = (bias != nullptr ? bias[r] : 0.0f) + acc;
  }
}

// Register-blocked GEMM + bias: 4 ymm accumulators span a 32-wide j block
// held in registers across the whole k loop (one broadcast-FMA per A
// element), with an outer k-panel loop keeping the touched B panel inside
// L1/L2 for large k.
void fast_gemm_bias(const float* a, const float* b, const float* bias, float* c,
                    int m, int k, int n) {
  constexpr int kJB = 32;        // j-block: 4 ymm registers
  constexpr int kKPanel = 512;   // k-panel: B panel of 512x32 floats = 64 KiB
  for (int i = 0; i < m; ++i) {
    const float* ai = a + static_cast<std::size_t>(i) * k;
    float* ci = c + static_cast<std::size_t>(i) * n;
    int j0 = 0;
    for (; j0 + kJB <= n; j0 += kJB) {
      __m256 acc0, acc1, acc2, acc3;
      if (bias != nullptr) {
        acc0 = _mm256_loadu_ps(bias + j0);
        acc1 = _mm256_loadu_ps(bias + j0 + 8);
        acc2 = _mm256_loadu_ps(bias + j0 + 16);
        acc3 = _mm256_loadu_ps(bias + j0 + 24);
      } else {
        acc0 = acc1 = acc2 = acc3 = _mm256_setzero_ps();
      }
      for (int k0 = 0; k0 < k; k0 += kKPanel) {
        const int k1 = k0 + kKPanel < k ? k0 + kKPanel : k;
        for (int kk = k0; kk < k1; ++kk) {
          const __m256 av = _mm256_broadcast_ss(ai + kk);
          const float* bk = b + static_cast<std::size_t>(kk) * n + j0;
          acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk), acc0);
          acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + 8), acc1);
          acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + 16), acc2);
          acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + 24), acc3);
        }
      }
      _mm256_storeu_ps(ci + j0, acc0);
      _mm256_storeu_ps(ci + j0 + 8, acc1);
      _mm256_storeu_ps(ci + j0 + 16, acc2);
      _mm256_storeu_ps(ci + j0 + 24, acc3);
    }
    for (; j0 + 8 <= n; j0 += 8) {
      __m256 acc = bias != nullptr ? _mm256_loadu_ps(bias + j0) : _mm256_setzero_ps();
      for (int kk = 0; kk < k; ++kk) {
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(ai + kk),
                              _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * n + j0),
                              acc);
      }
      _mm256_storeu_ps(ci + j0, acc);
    }
    for (; j0 < n; ++j0) {
      float acc = bias != nullptr ? bias[j0] : 0.0f;
      for (int kk = 0; kk < k; ++kk) acc += ai[kk] * b[static_cast<std::size_t>(kk) * n + j0];
      ci[j0] = acc;
    }
  }
}

void fast_conv1d_row_acc(const float* x, int len, const float* w, int kernel,
                         int stride, int padding, float* partial, int out_len) {
  for (int k = 0; k < kernel; ++k) {
    const int off = k - padding;
    int ol_lo = 0;
    if (off < 0) ol_lo = (-off + stride - 1) / stride;
    const int max_pos = len - 1 - off;
    if (max_pos < 0) continue;
    const int ol_hi = max_pos / stride + 1 < out_len ? max_pos / stride + 1 : out_len;
    const float wk = w[k];
    const float* xs = x + off;
    int ol = ol_lo;
    const __m256 wv = _mm256_set1_ps(wk);
    if (stride == 1) {
      for (; ol + 8 <= ol_hi; ol += 8) {
        const __m256 p = _mm256_loadu_ps(partial + ol);
        _mm256_storeu_ps(partial + ol,
                         _mm256_fmadd_ps(wv, _mm256_loadu_ps(xs + ol), p));
      }
    } else {
      // Strided taps (the model's pseudo branch is stride 2/3/5): gather 8
      // stride-spaced inputs per step. Lane j reads xs[(ol+j)*stride], which
      // ol_hi already bounds, so the gather never over-reads.
      const __m256i idx = _mm256_mullo_epi32(
          _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7), _mm256_set1_epi32(stride));
      for (; ol + 8 <= ol_hi; ol += 8) {
        const __m256 p = _mm256_loadu_ps(partial + ol);
        const __m256 xv = _mm256_i32gather_ps(
            xs + static_cast<std::size_t>(ol) * stride, idx, 4);
        _mm256_storeu_ps(partial + ol, _mm256_fmadd_ps(wv, xv, p));
      }
    }
    for (; ol < ol_hi; ++ol) {
      partial[ol] += wk * xs[static_cast<std::size_t>(ol) * stride];
    }
  }
}

// Two complex<double> lanes per ymm: with u = [re0,im0,re1,im1] and a
// likewise, conj(u)*a has real parts ur*ar + ui*ai (u*a summed in pairs) and
// imaginary parts ur*ai - ui*ar (u * swap(a), sign-flipped on odd lanes,
// summed in pairs).
void fast_noise_projection(const std::complex<double>* un, int num_noise,
                           const std::complex<double>* steer, int num_bins,
                           int n, double* denom) {
  const __m256d sign = _mm256_set_pd(-1.0, 1.0, -1.0, 1.0);  // [1,-1,1,-1] in memory order
  for (int bin = 0; bin < num_bins; ++bin) {
    const double* a = reinterpret_cast<const double*>(steer + static_cast<std::size_t>(bin) * n);
    double d = 0.0;
    for (int k = 0; k < num_noise; ++k) {
      const double* u = reinterpret_cast<const double*>(un + static_cast<std::size_t>(k) * n);
      __m256d acc_re = _mm256_setzero_pd();
      __m256d acc_im = _mm256_setzero_pd();
      int i = 0;
      for (; i + 2 <= n; i += 2) {
        const __m256d uv = _mm256_loadu_pd(u + 2 * i);
        const __m256d av = _mm256_loadu_pd(a + 2 * i);
        acc_re = _mm256_fmadd_pd(uv, av, acc_re);
        const __m256d asw = _mm256_permute_pd(av, 0b0101);
        acc_im = _mm256_fmadd_pd(_mm256_mul_pd(uv, sign), asw, acc_im);
      }
      double re_lanes[4], im_lanes[4];
      _mm256_storeu_pd(re_lanes, acc_re);
      _mm256_storeu_pd(im_lanes, acc_im);
      double re = re_lanes[0] + re_lanes[1] + re_lanes[2] + re_lanes[3];
      double im = im_lanes[0] + im_lanes[1] + im_lanes[2] + im_lanes[3];
      for (; i < n; ++i) {
        const double ur = u[2 * i], ui = u[2 * i + 1];
        const double ar = a[2 * i], ai = a[2 * i + 1];
        re += ur * ar + ui * ai;
        im += ur * ai - ui * ar;
      }
      d += re * re + im * im;
    }
    denom[bin] = d;
  }
}

#else  // !M2AI_FAST_AVX2

// Generic fast build (compiler lacked -mavx2/-mfma, or non-x86 target): the
// same loop nests as the reference, but written out locally so THIS TU's
// flags (-ffp-contract=fast -ftree-slp-vectorize) apply — calling the
// kernels.hpp inline functions could link against a determinism-pinned copy
// from another TU. Runs on any CPU, so fast_backend_supported() is true.

void fast_gemv(const float* w, const float* x, const float* bias, float* y,
               int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    const float* wr = w + static_cast<std::size_t>(r) * cols;
    float acc = bias != nullptr ? bias[r] : 0.0f;
    for (int k = 0; k < cols; ++k) acc += wr[k] * x[k];
    y[r] = acc;
  }
}

void fast_gemm_bias(const float* a, const float* b, const float* bias, float* c,
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

void fast_conv1d_row_acc(const float* x, int len, const float* w, int kernel,
                         int stride, int padding, float* partial, int out_len) {
  for (int k = 0; k < kernel; ++k) {
    const int off = k - padding;
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

void fast_noise_projection(const std::complex<double>* un, int num_noise,
                           const std::complex<double>* steer, int num_bins,
                           int n, double* denom) {
  for (int bin = 0; bin < num_bins; ++bin) {
    const std::complex<double>* a = steer + static_cast<std::size_t>(bin) * n;
    double d = 0.0;
    for (int k = 0; k < num_noise; ++k) {
      const std::complex<double>* u = un + static_cast<std::size_t>(k) * n;
      double re = 0.0, im = 0.0;
      for (int i = 0; i < n; ++i) {
        const double ur = u[i].real(), ui = u[i].imag();
        const double ar = a[i].real(), ai = a[i].imag();
        re += ur * ar + ui * ai;
        im += ur * ai - ui * ar;
      }
      d += re * re + im * im;
    }
    denom[bin] = d;
  }
}

#endif  // M2AI_FAST_AVX2

}  // namespace

const Backend& fast_backend() {
  static const Backend kFast{
      "fast",
      &fast_gemv,
      &fast_gemm_bias,
      &fast_conv1d_row_acc,
      &fast_noise_projection,
  };
  return kFast;
}

bool fast_backend_supported() {
#if M2AI_FAST_AVX2
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;
#endif
}

}  // namespace m2ai::kern
