#include "nn/lstm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "kern/backend.hpp"
#include "nn/gradcheck.hpp"

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
// [x; h_prev]_k (k ascending), gates [i; f; g; o], then c and h.
std::vector<Tensor> naive_lstm_forward(Lstm& lstm, const std::vector<Tensor>& xs) {
  const int in = lstm.input_size(), hid = lstm.hidden_size(), joint = in + hid;
  const Tensor& w = lstm.params()[0]->value;
  const Tensor& b = lstm.params()[1]->value;
  const auto sigmoid = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
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
      const float ig = sigmoid(z[i]);
      const float fg = sigmoid(z[n + i]);
      const float gg = std::tanh(z[2 * n + i]);
      const float og = sigmoid(z[3 * n + i]);
      c[i] = fg * c[i] + ig * gg;
      h[i] = og * std::tanh(c[i]);
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

}  // namespace
}  // namespace m2ai::nn
