// The NN stack's float exp, sigmoid and tanh (DESIGN §6): the LSTM gates, the
// cell's tanh and the softmax.
//
// Each function is one fixed sequence of single-precision +, -, *, / (each
// exactly rounded), compares, selects and integer bit operations: no libm
// call, no std::fma, no data-dependent branch. Under the project-wide
// -ffp-contract=off nothing fuses, so a scalar call, a loop GCC vectorizes,
// -O2 or -O3 and any -march give the same bits on any host — the bits no
// longer depend on the C library's expf/tanhf. The block functions at the end
// are the loops the vectorizer runs across gate values.
//
// Measured against a double reference over all 2^32 bit patterns, wherever
// the reference is a normal float, the largest errors are 0.991 ulp for exp,
// 2.481 for sigmoid and 1.331 for tanh (the MathFn tests in test_lstm check
// a sparser sweep against 1.0, 2.5 and 1.5). exp flushes results below
// FLT_MIN to +0 and overflows to +inf; NaN passes through every function.
#pragma once

#include <bit>
#include <cstdint>

namespace m2ai::nn::math {

namespace detail {
// c ? a : b as a bit mask. A plain ?: whose arms compute something is left a
// branch by GCC's if-conversion on targets without masked vector ops (the
// arms' float operations may trap), which stops the loop vectorizer.
inline float select(bool c, float a, float b) {
  const std::uint32_t m = 0u - static_cast<std::uint32_t>(c);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                              (std::bit_cast<std::uint32_t>(b) & ~m));
}
}  // namespace detail

// e^x by Cody–Waite range reduction: x = n·ln2 + r with n = round(x·log2 e)
// (the 1.5·2^23 shifter rounds to nearest even, no conversion of an
// unbounded value) and |r| ≤ ln2/2, ln2 split in two so n·ln2_hi is exact;
// e^r by a degree-7 polynomial (Cephes expf); 2^n as two exact exponent-bit
// factors 2^⌊n/2⌋·2^⌈n/2⌉, so n = -126 and n = 128 need no special case.
inline float exp(float x) {
  // Below kLo ≈ ln(FLT_MIN) the result would be subnormal and is flushed
  // to +0; above kHi every result overflows, so the clamp only keeps n in
  // [-126, 128] (and maps NaN to a finite value before the int conversion).
  constexpr float kLo = -87.33654475f;
  constexpr float kHi = 88.8f;
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kShifter = 12582912.0f;  // 1.5 · 2^23
  constexpr float kLn2Hi = 0.693359375f;   // 9 significant bits
  constexpr float kLn2Lo = -2.12194440e-4f;
  float xc = detail::select(x < kHi, x, kHi);
  xc = detail::select(xc > kLo, xc, kLo);
  const float k = (xc * kLog2e + kShifter) - kShifter;
  const float r = (xc - k * kLn2Hi) - k * kLn2Lo;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  float y = p * (r * r) + r + 1.0f;
  const std::int32_t n = static_cast<std::int32_t>(k);
  const std::int32_t n_lo = n >> 1;  // arithmetic shift: ⌊n/2⌋
  const std::int32_t n_hi = n - n_lo;
  y *= std::bit_cast<float>(static_cast<std::uint32_t>(n_lo + 127) << 23);
  y *= std::bit_cast<float>(static_cast<std::uint32_t>(n_hi + 127) << 23);
  y = detail::select(x < kLo, 0.0f, y);
  return detail::select(x == x, y, x);
}

// 1 / (1 + e^-x): exactly 0 from x = -88.7228 down (e^-x overflows), and
// exactly 1 from x = 16.636 up (1 + e^-x rounds to 1).
inline float sigmoid(float x) { return 1.0f / (1.0f + math::exp(-x)); }

// tanh on |x|, sign restored from x's bits (so tanh(-0) = -0 and tanh is odd
// bitwise). |x| < 0.625: a + a·z·P(z), z = a², an odd polynomial (Cephes
// tanhf); otherwise 1 - 2/(e^{2a} + 1), which is exactly 1 from a = 9.0109
// up (where the correctly rounded tanh reaches 1) and for a = inf.
inline float tanh(float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const float a = std::bit_cast<float>(bits & 0x7fffffffu);
  const float z = a * a;
  float p = -5.70498872745e-3f;
  p = p * z + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const float small = p * z * a + a;
  const float large = 1.0f - 2.0f / (math::exp(a + a) + 1.0f);
  const float t = detail::select(a < 0.625f, small, large);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(t) | (bits & 0x80000000u));
}

// y[i] = f(x[i]) for i in [0, n). y may equal x (in place); other overlap is
// not allowed. Each element gets exactly the scalar function's bits.
inline void exp(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] = math::exp(x[i]);
}
inline void sigmoid(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] = math::sigmoid(x[i]);
}
inline void tanh(const float* x, float* y, int n) {
  for (int i = 0; i < n; ++i) y[i] = math::tanh(x[i]);
}

}  // namespace m2ai::nn::math
