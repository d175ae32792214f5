#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kern/backend.hpp"
#include "nn/gradcheck.hpp"
#include "nn/math.hpp"

namespace m2ai::nn {
namespace {

std::vector<Tensor> random_sequence(int t_len, int dim, util::Rng& rng) {
  std::vector<Tensor> seq;
  for (int t = 0; t < t_len; ++t) {
    Tensor x({dim});
    x.randomize_normal(rng, 1.0f);
    seq.push_back(std::move(x));
  }
  return seq;
}

double sequence_half_square(const std::vector<Tensor>& outputs) {
  double s = 0.0;
  for (const Tensor& y : outputs) {
    for (std::size_t i = 0; i < y.size(); ++i) s += 0.5 * y[i] * y[i];
  }
  return s;
}

TEST(Lstm, OutputShapes) {
  util::Rng rng(1);
  Lstm lstm(3, 5, rng);
  const auto outputs = lstm.forward(random_sequence(7, 3, rng), false);
  ASSERT_EQ(outputs.size(), 7u);
  for (const Tensor& h : outputs) EXPECT_EQ(h.size(), 5u);
}

TEST(Lstm, HiddenStateBounded) {
  // h = o * tanh(c) keeps |h| < 1.
  util::Rng rng(2);
  Lstm lstm(4, 8, rng);
  const auto outputs = lstm.forward(random_sequence(20, 4, rng), false);
  for (const Tensor& h : outputs) {
    for (std::size_t i = 0; i < h.size(); ++i) EXPECT_LT(std::abs(h[i]), 1.0f);
  }
}

TEST(Lstm, RejectsWrongInputSize) {
  util::Rng rng(3);
  Lstm lstm(4, 4, rng);
  std::vector<Tensor> bad{Tensor({3})};
  EXPECT_THROW(lstm.forward(bad, false), std::invalid_argument);
}

TEST(Lstm, BackwardRequiresMatchingLength) {
  util::Rng rng(4);
  Lstm lstm(2, 3, rng);
  lstm.forward(random_sequence(4, 2, rng), true);
  std::vector<Tensor> grads(3, Tensor({3}));
  EXPECT_THROW(lstm.backward(grads), std::logic_error);
}

TEST(Lstm, BackwardRejectsWrongSizeGradNamingTheStep) {
  util::Rng rng(4);
  Lstm lstm(2, 3, rng);
  lstm.forward(random_sequence(4, 2, rng), true);
  std::vector<Tensor> grads(4, Tensor({3}));
  grads[1] = Tensor({2});
  try {
    lstm.backward(grads);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("Lstm::backward"), std::string::npos) << msg;
    EXPECT_NE(msg.find("grad_outputs[1] has 2 values, expected 3"), std::string::npos)
        << msg;
  }
  // Every step is checked before any gradient is accumulated.
  for (Param* p : lstm.params()) EXPECT_EQ(p->grad.l2_norm(), 0.0f) << p->name;
}

// The per-gate scalar loop forward() replaced: z_j = b_j + sum_k W[j,k] *
// [x; h_prev]_k (k ascending), gates [i; f; g; o], then c and h, with scalar
// calls of the repo's math functions where forward() runs block loops.
std::vector<Tensor> naive_lstm_forward(Lstm& lstm, const std::vector<Tensor>& xs) {
  const int in = lstm.input_size(), hid = lstm.hidden_size(), joint = in + hid;
  const Tensor& w = lstm.params()[0]->value;
  const Tensor& b = lstm.params()[1]->value;
  std::vector<float> h(static_cast<std::size_t>(hid), 0.0f), c(h), xh(static_cast<std::size_t>(joint));
  std::vector<float> z(4 * static_cast<std::size_t>(hid));
  std::vector<Tensor> out;
  for (const Tensor& x : xs) {
    for (int k = 0; k < in; ++k) xh[static_cast<std::size_t>(k)] = x[static_cast<std::size_t>(k)];
    for (int u = 0; u < hid; ++u) xh[static_cast<std::size_t>(in + u)] = h[static_cast<std::size_t>(u)];
    for (int j = 0; j < 4 * hid; ++j) {
      float acc = b[static_cast<std::size_t>(j)];
      for (int k = 0; k < joint; ++k) {
        acc += w[static_cast<std::size_t>(j) * joint + k] * xh[static_cast<std::size_t>(k)];
      }
      z[static_cast<std::size_t>(j)] = acc;
    }
    Tensor h_t({hid});
    for (int u = 0; u < hid; ++u) {
      const std::size_t i = static_cast<std::size_t>(u);
      const std::size_t n = static_cast<std::size_t>(hid);
      const float ig = math::sigmoid(z[i]);
      const float fg = math::sigmoid(z[n + i]);
      const float gg = math::tanh(z[2 * n + i]);
      const float og = math::sigmoid(z[3 * n + i]);
      c[i] = fg * c[i] + ig * gg;
      h[i] = og * math::tanh(c[i]);
      h_t[i] = h[i];
    }
    out.push_back(std::move(h_t));
  }
  return out;
}

TEST(Lstm, ForwardBitwiseMatchesNaiveGateLoop) {
  const kern::BackendKind saved = kern::active_backend_kind();
  kern::set_backend(kern::BackendKind::kReference);
  util::Rng rng(15);
  // The model's layer-1 shape (48 -> 32) and an odd one.
  for (const auto& [in, hid] : {std::pair{48, 32}, std::pair{5, 7}}) {
    Lstm lstm(in, hid, rng);
    lstm.params()[1]->value.randomize_normal(rng, 1.0f);
    const auto xs = random_sequence(9, in, rng);
    const auto want = naive_lstm_forward(lstm, xs);
    for (const bool train : {false, true}) {
      const auto got = lstm.forward(xs, train);
      lstm.clear_cache();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t t = 0; t < got.size(); ++t) {
        EXPECT_EQ(0, std::memcmp(got[t].data(), want[t].data(), got[t].size() * sizeof(float)))
            << in << "->" << hid << " train " << train << " step " << t;
      }
    }
  }
  kern::set_backend(saved);
}

TEST(Lstm, BpttGradCheck) {
  util::Rng rng(5);
  Lstm lstm(3, 4, rng);
  const auto inputs = random_sequence(5, 3, rng);
  auto loss_fn = [&]() {
    lstm.clear_cache();
    const auto outputs = lstm.forward(inputs, true);
    const double loss = sequence_half_square(outputs);
    lstm.backward(outputs);  // dL/dh_t = h_t
    return loss;
  };
  const auto result = check_param_gradients(loss_fn, lstm.params(), 1e-3, 3e-2);
  EXPECT_TRUE(result.ok) << "max rel err " << result.max_rel_error;
}

TEST(Lstm, InputGradientsFlowToEarlySteps) {
  util::Rng rng(6);
  Lstm lstm(2, 6, rng);
  const auto inputs = random_sequence(8, 2, rng);
  const auto outputs = lstm.forward(inputs, true);
  // Loss only on the LAST step: gradient must still reach step 0.
  std::vector<Tensor> grads(8, Tensor({6}));
  grads.back() = outputs.back();
  const auto gin = lstm.backward(grads);
  ASSERT_EQ(gin.size(), 8u);
  EXPECT_GT(gin.front().l2_norm(), 0.0f);
}

TEST(Lstm, MemoryDistinguishesEarlyInputs) {
  // The defining LSTM property (Sec. IV-B.2): the final state depends on an
  // input seen many steps earlier.
  util::Rng rng(7);
  Lstm lstm(1, 8, rng);
  std::vector<Tensor> seq_a, seq_b;
  for (int t = 0; t < 12; ++t) {
    seq_a.push_back(Tensor::from({t == 0 ? 2.0f : 0.1f}));
    seq_b.push_back(Tensor::from({t == 0 ? -2.0f : 0.1f}));
  }
  const auto ha = lstm.forward(seq_a, false);
  const auto hb = lstm.forward(seq_b, false);
  Tensor diff = ha.back();
  diff.add_scaled(hb.back(), -1.0f);
  EXPECT_GT(diff.l2_norm(), 0.01f);
}

TEST(Lstm, ForgetBiasStartsAtOne) {
  util::Rng rng(8);
  Lstm lstm(2, 4, rng);
  const Tensor& bias = lstm.params()[1]->value;
  for (int h = 0; h < 4; ++h) {
    EXPECT_FLOAT_EQ(bias.at(4 + h), 1.0f);  // forget-gate block
    EXPECT_FLOAT_EQ(bias.at(h), 0.0f);      // input-gate block
  }
}

TEST(Lstm, TrainForwardClearsStaleCacheFromAbandonedStep) {
  // Regression: an abandoned train_step (e.g. an exception between forward
  // and backward) used to leave its StepCaches behind, so the next backward
  // paired gradients with the wrong timesteps (or threw on the length
  // mismatch). A training-mode forward must start from a clean cache.
  util::Rng rng(11);
  Lstm lstm(3, 4, rng);
  util::Rng ref_rng(11);
  Lstm ref(3, 4, ref_rng);
  util::Rng data_rng(12);
  const auto inputs = random_sequence(5, 3, data_rng);

  // Reference gradients from a clean forward/backward pair.
  const auto ref_outputs = ref.forward(inputs, true);
  ref.backward(ref_outputs);

  lstm.forward(inputs, true);  // abandoned: no backward consumes this cache
  const auto outputs = lstm.forward(inputs, true);
  const auto grad_inputs = lstm.backward(outputs);  // must not mispair or throw
  ASSERT_EQ(grad_inputs.size(), 5u);

  const auto lhs = lstm.params();
  const auto rhs = ref.params();
  for (std::size_t p = 0; p < lhs.size(); ++p) {
    ASSERT_EQ(lhs[p]->grad.size(), rhs[p]->grad.size());
    for (std::size_t i = 0; i < lhs[p]->grad.size(); ++i) {
      EXPECT_FLOAT_EQ(lhs[p]->grad[i], rhs[p]->grad[i]) << "param " << p << " idx " << i;
    }
  }
}

TEST(Lstm, DeterministicForSeed) {
  util::Rng rng_a(9), rng_b(9);
  Lstm a(3, 4, rng_a), b(3, 4, rng_b);
  util::Rng data_rng(10);
  const auto inputs = random_sequence(4, 3, data_rng);
  const auto ha = a.forward(inputs, false);
  const auto hb = b.forward(inputs, false);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(ha[t][i], hb[t][i]);
  }
}

// ---- nn/math.hpp: the repo's float exp, sigmoid and tanh. ----

// |got - want| in units of the float ulp at the double reference `want`, or
// -1 where the reference is not a normal float (outside the contract).
double ulp_error(float got, double want) {
  const double a = std::fabs(want);
  if (!(a >= std::numeric_limits<float>::min()) || a > std::numeric_limits<float>::max()) {
    return -1.0;
  }
  if (std::isnan(got)) return HUGE_VAL;
  int e = 0;
  std::frexp(want, &e);  // |want| in [2^(e-1), 2^e)
  return std::fabs(static_cast<double>(got) - want) / std::ldexp(1.0, e - 24);
}

TEST(MathFn, ErrorBoundsOverBitPatternSweep) {
  // Every 2053rd bit pattern (2.1M floats, both signs, every exponent). The
  // full 2^32 sweep reads 0.991, 2.481 and 1.331 ulp (DESIGN §6).
  double max_exp = 0.0, max_sig = 0.0, max_tanh = 0.0;
  for (std::uint64_t u = 0; u <= 0xffffffffull; u += 2053) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(u));
    if (std::isnan(x)) {
      ASSERT_TRUE(std::isnan(math::exp(x)) && std::isnan(math::sigmoid(x)) &&
                  std::isnan(math::tanh(x)))
          << std::hexfloat << x;
      continue;
    }
    const double xd = x;
    max_exp = std::max(max_exp, ulp_error(math::exp(x), std::exp(xd)));
    max_sig = std::max(max_sig, ulp_error(math::sigmoid(x), 1.0 / (1.0 + std::exp(-xd))));
    max_tanh = std::max(max_tanh, ulp_error(math::tanh(x), std::tanh(xd)));
  }
  EXPECT_LE(max_exp, 1.0);
  EXPECT_LE(max_sig, 2.5);
  EXPECT_LE(max_tanh, 1.5);
}

TEST(MathFn, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(math::exp(0.0f), 1.0f);
  EXPECT_EQ(math::exp(-0.0f), 1.0f);
  EXPECT_EQ(math::exp(inf), inf);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(math::exp(-inf)), 0u);  // +0
  EXPECT_EQ(math::sigmoid(0.0f), 0.5f);
  EXPECT_EQ(math::sigmoid(inf), 1.0f);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(math::sigmoid(-inf)), 0u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(math::tanh(0.0f)), 0u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(math::tanh(-0.0f)), 0x80000000u);
  EXPECT_EQ(math::tanh(inf), 1.0f);
  EXPECT_EQ(math::tanh(-inf), -1.0f);
  for (const float q : {nan, -nan}) {
    EXPECT_TRUE(std::isnan(math::exp(q)));
    EXPECT_TRUE(std::isnan(math::sigmoid(q)));
    EXPECT_TRUE(std::isnan(math::tanh(q)));
  }
}

// Where each function saturates: `at` is the first float that gives the
// saturated value, and every float beyond it (scanned for 2^16 steps, then
// at powers of two up to FLT_MAX) gives it too.
void expect_saturates_from(float (*f)(float), float at, float value, const char* what) {
  const float toward = at > 0.0f ? std::numeric_limits<float>::infinity()
                                 : -std::numeric_limits<float>::infinity();
  EXPECT_NE(f(std::nextafter(at, -toward)), value) << what;
  float x = at;
  for (int i = 0; i < (1 << 16); ++i, x = std::nextafter(x, toward)) {
    ASSERT_EQ(f(x), value) << what << " at " << std::hexfloat << x;
  }
  for (float y = at; std::isfinite(y); y *= 2.0f) ASSERT_EQ(f(y), value) << what << " at " << y;
  EXPECT_EQ(f(std::numeric_limits<float>::max() * (at > 0.0f ? 1.0f : -1.0f)), value) << what;
}

TEST(MathFn, SaturationThresholds) {
  const float inf = std::numeric_limits<float>::infinity();
  // tanh reaches 1 where the correctly rounded tanh does (9.0109).
  expect_saturates_from(math::tanh, 0x1.205968p+3f, 1.0f, "tanh = 1");
  expect_saturates_from(math::tanh, -0x1.205968p+3f, -1.0f, "tanh = -1");
  // sigmoid is 1 once 1 + e^-x rounds to 1 (16.636), and 0 once e^-x
  // overflows (-88.7228).
  expect_saturates_from(math::sigmoid, 0x1.0a2b24p+4f, 1.0f, "sigmoid = 1");
  expect_saturates_from(math::sigmoid, -0x1.62e43p+6f, 0.0f, "sigmoid = 0");
  // exp overflows where the correctly rounded expf does (88.7228), and
  // flushes to +0 below ln(FLT_MIN).
  expect_saturates_from(math::exp, 0x1.62e43p+6f, inf, "exp = inf");
  expect_saturates_from(math::exp, std::nextafter(-87.33654475f, -inf), 0.0f, "exp = 0");
}

TEST(MathFn, TanhIsOddBitwise) {
  util::Rng rng(21);
  for (int i = 0; i < 20000; ++i) {
    const float x = static_cast<float>(rng.normal() * (i % 2 == 0 ? 0.5 : 6.0));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(math::tanh(-x)),
              std::bit_cast<std::uint32_t>(math::tanh(x)) ^ 0x80000000u)
        << std::hexfloat << x;
  }
}

// Both tanh branches, the exp clamps, signed zeros, infinities and NaN.
constexpr float kMathSpecials[] = {
    0.0f,   -0.0f,  std::numeric_limits<float>::infinity(), -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::quiet_NaN(),
    0.624f, 0.625f, 9.02f, 88.8f, -87.4f, -100.0f, 200.0f};

// Inputs for the block tests: normals with every fifth value a special.
std::vector<float> math_inputs(int n, util::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        i % 5 == 4 ? kMathSpecials[static_cast<std::size_t>(i / 5) % std::size(kMathSpecials)]
                   : static_cast<float>(rng.normal() * 4.0);
  }
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), [](float x, float y) {
    return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
  });
}

TEST(MathFn, BlockLoopEqualsScalarCallsBitwise) {
  // The scalar reference goes through a volatile function pointer, so it is
  // an out-of-line call per element, never the vectorized loop.
  using Scalar = float (*)(float);
  using Block = void (*)(const float*, float*, int);
  struct Fn {
    Scalar scalar;
    Block block;
    const char* name;
  };
  const Fn fns[] = {{math::exp, math::exp, "exp"},
                    {math::sigmoid, math::sigmoid, "sigmoid"},
                    {math::tanh, math::tanh, "tanh"}};
  util::Rng rng(22);
  for (const Fn& fn : fns) {
    Scalar volatile scalar = fn.scalar;
    for (const int n : {0, 1, 3, 7, 8, 15, 16, 17, 31, 32, 33, 64, 67, 128}) {
      const std::vector<float> x = math_inputs(n, rng);
      std::vector<float> want(x.size());
      for (std::size_t i = 0; i < x.size(); ++i) want[i] = scalar(x[i]);
      std::vector<float> got(x.size(), -1.0f);
      fn.block(x.data(), got.data(), n);
      EXPECT_TRUE(same_bits(got, want)) << fn.name << " n=" << n;
      std::vector<float> in_place = x;
      fn.block(in_place.data(), in_place.data(), n);
      EXPECT_TRUE(same_bits(in_place, want)) << fn.name << " in place n=" << n;
    }
  }
}

TEST(MathFn, GridHashIsPinned) {
  // FNV-1a 64 over the output bits on x = i/128, i in [-12800, 12800], plus
  // the specials. Nothing here calls libm, so this constant is the same under
  // -O2, -O3, generic and -march=native builds on any host.
  std::vector<float> x;
  for (int i = -12800; i <= 12800; ++i) x.push_back(static_cast<float>(i) / 128.0f);
  x.insert(x.end(), std::begin(kMathSpecials), std::end(kMathSpecials));
  const int n = static_cast<int>(x.size());
  std::vector<float> y(x.size());
  std::uint64_t h = 1469598103934665603ull;
  using Block = void (*)(const float*, float*, int);
  const Block blocks[] = {math::exp, math::sigmoid, math::tanh};
  for (const Block block : blocks) {
    block(x.data(), y.data(), n);
    for (const float v : y) {
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      for (int b = 0; b < 4; ++b) h = (h ^ ((bits >> (8 * b)) & 0xffu)) * 1099511628211ull;
    }
  }
  EXPECT_EQ(h, 0xbe298d1a7534c7d4ull) << std::hex << h;
}

}  // namespace
}  // namespace m2ai::nn
