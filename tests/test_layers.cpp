#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kern/backend.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/gradcheck.hpp"
#include "nn/pool.hpp"
#include "nn/softmax.hpp"

namespace m2ai::nn {
namespace {

Tensor random_tensor(std::vector<int> shape, util::Rng& rng) {
  Tensor t(std::move(shape));
  t.randomize_normal(rng, 1.0f);
  return t;
}

// Scalar pseudo-loss: sum of squares / 2 -> grad is the output itself.
double half_square(const Tensor& y) {
  double s = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) s += 0.5 * y[i] * y[i];
  return s;
}

TEST(Dense, ForwardKnownValues) {
  util::Rng rng(1);
  Dense layer(2, 2, rng);
  auto params = layer.params();
  // W = [[1, 2], [3, 4]], b = [0.5, -0.5].
  params[0]->value[0] = 1;
  params[0]->value[1] = 2;
  params[0]->value[2] = 3;
  params[0]->value[3] = 4;
  params[1]->value[0] = 0.5f;
  params[1]->value[1] = -0.5f;
  const Tensor y = layer.forward(Tensor::from({1.0f, 1.0f}), false);
  EXPECT_FLOAT_EQ(y.at(0), 3.5f);
  EXPECT_FLOAT_EQ(y.at(1), 6.5f);
}

TEST(Dense, FlattensHigherRankInput) {
  util::Rng rng(2);
  Dense layer(6, 3, rng);
  Tensor x({2, 3});
  EXPECT_EQ(layer.forward(x, false).size(), 3u);
}

TEST(Dense, RejectsWrongSize) {
  util::Rng rng(3);
  Dense layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor({3}), false), std::invalid_argument);
}

TEST(Dense, GradCheck) {
  util::Rng rng(4);
  Dense layer(5, 3, rng);
  const Tensor x = random_tensor({5}, rng);
  auto loss_fn = [&]() {
    layer.clear_cache();
    const Tensor y = layer.forward(x, true);
    const double loss = half_square(y);
    layer.backward(y);
    return loss;
  };
  const auto result = check_param_gradients(loss_fn, layer.params());
  EXPECT_TRUE(result.ok) << "max rel err " << result.max_rel_error;
}

TEST(Dense, InputGradCheck) {
  util::Rng rng(5);
  Dense layer(4, 4, rng);
  const Tensor x = random_tensor({4}, rng);
  layer.clear_cache();
  const Tensor y = layer.forward(x, true);
  const Tensor gin = layer.backward(y);
  auto run = [&](const Tensor& input) {
    return half_square(layer.forward(input, false));
  };
  const auto result = check_input_gradient(run, x, gin);
  EXPECT_TRUE(result.ok) << "max rel err " << result.max_rel_error;
}

TEST(Dense, LifoCacheSupportsWeightSharing) {
  util::Rng rng(6);
  Dense layer(3, 2, rng);
  const Tensor x1 = random_tensor({3}, rng);
  const Tensor x2 = random_tensor({3}, rng);
  const Tensor y1 = layer.forward(x1, true);
  const Tensor y2 = layer.forward(x2, true);
  // Pop in reverse order without error; grads accumulate across pops.
  layer.backward(y2);
  layer.backward(y1);
  EXPECT_GT(layer.params()[0]->grad.l2_norm(), 0.0f);
  EXPECT_THROW(layer.backward(y1), std::logic_error);  // cache exhausted
}

TEST(Conv1d, OutputLengthFormula) {
  util::Rng rng(7);
  Conv1d conv(1, 1, 3, 2, 1, rng);
  EXPECT_EQ(conv.output_length(10), 5);
  Conv1d conv2(1, 1, 7, 2, 3, rng);
  EXPECT_EQ(conv2.output_length(180), 90);
}

TEST(Conv1d, IdentityKernel) {
  util::Rng rng(8);
  Conv1d conv(1, 1, 1, 1, 0, rng);
  conv.params()[0]->value[0] = 1.0f;  // single weight
  conv.params()[1]->value[0] = 0.0f;
  Tensor x({1, 5});
  for (int i = 0; i < 5; ++i) x.at(0, i) = static_cast<float>(i);
  const Tensor y = conv.forward(x, false);
  for (int i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(y.at(0, i), static_cast<float>(i));
}

TEST(Conv1d, KnownConvolution) {
  util::Rng rng(9);
  Conv1d conv(1, 1, 3, 1, 1, rng);
  auto* w = conv.params()[0];
  w->value[0] = 1.0f;
  w->value[1] = 0.0f;
  w->value[2] = -1.0f;
  conv.params()[1]->value[0] = 0.0f;
  Tensor x({1, 4});
  x.at(0, 0) = 1;
  x.at(0, 1) = 2;
  x.at(0, 2) = 4;
  x.at(0, 3) = 8;
  const Tensor y = conv.forward(x, false);
  // Padded input: 0 1 2 4 8 0 ; y[i] = x[i-1] - x[i+1].
  EXPECT_FLOAT_EQ(y.at(0, 0), -2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), -3.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), -6.0f);
  EXPECT_FLOAT_EQ(y.at(0, 3), 4.0f);
}

TEST(Conv1d, GradCheck) {
  util::Rng rng(10);
  Conv1d conv(2, 3, 3, 2, 1, rng);
  const Tensor x = random_tensor({2, 9}, rng);
  auto loss_fn = [&]() {
    conv.clear_cache();
    const Tensor y = conv.forward(x, true);
    const double loss = half_square(y);
    conv.backward(y);
    return loss;
  };
  const auto result = check_param_gradients(loss_fn, conv.params());
  EXPECT_TRUE(result.ok) << "max rel err " << result.max_rel_error;
}

TEST(Conv1d, InputGradCheck) {
  util::Rng rng(11);
  Conv1d conv(2, 2, 3, 1, 1, rng);
  const Tensor x = random_tensor({2, 6}, rng);
  conv.clear_cache();
  const Tensor y = conv.forward(x, true);
  const Tensor gin = conv.backward(y);
  auto run = [&](const Tensor& input) {
    return half_square(conv.forward(input, false));
  };
  const auto result = check_input_gradient(run, x, gin);
  EXPECT_TRUE(result.ok) << "max rel err " << result.max_rel_error;
}

// The per-element loop Conv1d::forward replaced: exact tap bounds (no
// zero-padded taps), each input channel's taps summed k-ascending from +0,
// then bias + the channel partials in ic order.
Tensor naive_conv1d(Conv1d& conv, const Tensor& x, int kernel, int stride,
                    int padding) {
  const Tensor& w = conv.params()[0]->value;
  const Tensor& b = conv.params()[1]->value;
  const int in_ch = x.dim(0), len = x.dim(1), out_ch = conv.out_channels();
  const int out_len = conv.output_length(len);
  Tensor y({out_ch, out_len});
  for (int oc = 0; oc < out_ch; ++oc) {
    for (int ol = 0; ol < out_len; ++ol) {
      float acc = b[static_cast<std::size_t>(oc)];
      for (int ic = 0; ic < in_ch; ++ic) {
        float part = 0.0f;
        for (int k = 0; k < kernel; ++k) {
          const int pos = ol * stride - padding + k;
          if (pos < 0 || pos >= len) continue;
          part += w[(static_cast<std::size_t>(oc) * in_ch + ic) * kernel + k] * x.at(ic, pos);
        }
        acc += part;
      }
      y.at(oc, ol) = acc;
    }
  }
  return y;
}

TEST(Conv1d, ForwardBitwiseMatchesNaivePerElementLoop) {
  const kern::BackendKind saved = kern::active_backend_kind();
  // {in, out, kernel, stride, padding, len}: CONV-E1/E2/E3 and CONV-F at the
  // model's shapes, then stride > kernel, padding >= kernel - 1 (outputs with
  // no valid tap), output length 1, one input channel, and out_channels that
  // are not a multiple of the loop's channel block.
  const int shapes[][6] = {{6, 8, 7, 2, 3, 180}, {8, 12, 5, 3, 1, 90},
                           {12, 16, 5, 5, 0, 30}, {6, 8, 2, 1, 0, 4},
                           {3, 5, 2, 4, 1, 17},   {2, 3, 3, 1, 4, 5},
                           {3, 2, 5, 1, 0, 5},    {2, 6, 4, 3, 1, 3},
                           {1, 4, 3, 2, 1, 11},   {1, 1, 1, 1, 0, 1}};
  std::vector<kern::BackendKind> backends{kern::BackendKind::kReference};
  if (kern::fast_backend_supported()) backends.push_back(kern::BackendKind::kFast);
  util::Rng rng(12);
  for (const auto& s : shapes) {
    Conv1d conv(s[0], s[1], s[2], s[3], s[4], rng);
    conv.params()[1]->value.randomize_normal(rng, 1.0f);
    // An infinite tap-0 weight makes a zero-padded tap visible: it would add
    // inf * 0 = NaN to outputs whose tap 0 falls outside the input.
    conv.params()[0]->value[0] = std::numeric_limits<float>::infinity();
    Tensor x = random_tensor({s[0], s[5]}, rng);
    for (std::size_t i = 0; i < x.size(); i += 3) x[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    const Tensor want = naive_conv1d(conv, x, s[2], s[3], s[4]);
    for (const kern::BackendKind be : backends) {
      kern::set_backend(be);
      for (const bool train : {false, true}) {
        const Tensor got = conv.forward(x, train);
        conv.clear_cache();
        ASSERT_EQ(got.shape(), want.shape());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
            << "shape {" << s[0] << "," << s[1] << "," << s[2] << "," << s[3] << ","
            << s[4] << "," << s[5] << "} backend " << kern::active_backend_name()
            << " train " << train;
      }
    }
  }
  kern::set_backend(saved);
}

// The pre-vectorization Conv1d::backward, restated: per (oc, ic, ol) with
// ol ascending, skip a zero gradient, then walk the output's valid taps
// k-ascending, adding into the weight gradient and the input gradient.
// Returns the input gradient; the weight and bias gradients accumulate into
// `wg` and `bg`.
Tensor naive_conv1d_backward(const Tensor& w, const Tensor& x, const Tensor& g, int kernel,
                             int stride, int padding, Tensor& wg, Tensor& bg) {
  const int in_ch = x.dim(0), len = x.dim(1), out_ch = g.dim(0), out_len = g.dim(1);
  Tensor gi({in_ch, len});
  for (int oc = 0; oc < out_ch; ++oc) {
    float bias_acc = 0.0f;
    for (int ol = 0; ol < out_len; ++ol) bias_acc += g.at(oc, ol);
    bg[static_cast<std::size_t>(oc)] += bias_acc;
    for (int ic = 0; ic < in_ch; ++ic) {
      const std::size_t row = (static_cast<std::size_t>(oc) * in_ch + ic) * kernel;
      for (int ol = 0; ol < out_len; ++ol) {
        const float go = g.at(oc, ol);
        if (go == 0.0f) continue;
        const int start = ol * stride - padding;
        const int k_lo = start < 0 ? -start : 0;
        const int k_hi = std::min(kernel, len - start);
        for (int k = k_lo; k < k_hi; ++k) {
          wg[row + k] += go * x.at(ic, start + k);
          gi.at(ic, start + k) += go * w[row + k];
        }
      }
    }
  }
  return gi;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Conv1d, BackwardBitwiseMatchesNaivePerElementLoop) {
  // {in, out, kernel, stride, padding, len}: CONV-E1/E2/E3 and CONV-F at the
  // model's shapes with 3 tags, then stride > kernel, stride 1, padding >=
  // kernel - 1 (outputs with no valid tap), output length 1, one channel.
  const int shapes[][6] = {{3, 8, 7, 2, 3, 180}, {8, 12, 5, 3, 1, 90}, {12, 16, 5, 5, 0, 30},
                           {3, 8, 2, 1, 0, 4},   {3, 5, 2, 4, 1, 17},  {2, 3, 3, 1, 2, 9},
                           {2, 3, 3, 1, 4, 5},   {3, 2, 5, 1, 0, 5},   {2, 6, 4, 3, 1, 3},
                           {1, 4, 3, 2, 1, 11},  {1, 1, 1, 1, 0, 1}};
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(23);
  for (const auto& s : shapes) {
    const int kernel = s[2], stride = s[3], padding = s[4], len = s[5];
    Conv1d conv(s[0], s[1], kernel, stride, padding, rng);
    Tensor& w = conv.params()[0]->value;
    Tensor& wg = conv.params()[0]->grad;
    Tensor& bg = conv.params()[1]->grad;
    // Accumulate on top of non-zero gradients. The first and last taps'
    // weight gradients start at -0: a padded edge tap would add go * 0 = +0
    // for a positive go and flip them to +0.
    wg.randomize_normal(rng, 1.0f);
    bg.randomize_normal(rng, 1.0f);
    for (std::size_t i = 0; i < wg.size(); i += static_cast<std::size_t>(kernel)) {
      wg[i] = -0.0f;
      wg[i + static_cast<std::size_t>(kernel) - 1] = -0.0f;
    }
    // An infinite tap-0 weight: a padded or unskipped term would add
    // inf * 0 = NaN to the input gradient.
    w[0] = kInf;
    Tensor want_wg = wg, want_bg = bg;
    const int calls = 4;
    std::vector<Tensor> xs, gs;
    for (int c = 0; c < calls; ++c) {
      Tensor x = random_tensor({s[0], len}, rng);
      for (std::size_t i = 0; i < x.size(); i += 5) x[i] = (i % 2 == 0) ? 0.0f : -0.0f;
      Tensor g = random_tensor({s[1], conv.output_length(len)}, rng);
      for (std::size_t i = 0; i < g.size(); i += 3) g[i] = (i % 2 == 0) ? 0.0f : -0.0f;
      // Zero every gradient whose taps read input column p, then make that
      // column infinite: a term added for a zero gradient would put
      // inf * 0 = NaN into the weight gradient. A trailing column no tap
      // reads (stride > kernel) is NaN.
      const int p = len / 2;
      for (int oc = 0; oc < g.dim(0); ++oc) {
        for (int ol = 0; ol < g.dim(1); ++ol) {
          const int start = ol * stride - padding;
          if (p >= start && p < start + kernel) g.at(oc, ol) = (oc + ol) % 2 ? -0.0f : 0.0f;
        }
      }
      x.at(0, p) = kInf;
      const int last_read = (g.dim(1) - 1) * stride - padding + kernel - 1;
      if (last_read < len - 1) x.at(s[0] - 1, len - 1) = kNan;
      conv.forward(x, /*train=*/true);
      xs.push_back(std::move(x));
      gs.push_back(std::move(g));
    }
    // LIFO, as Sequential replays a sequence's frames.
    for (int c = calls - 1; c >= 0; --c) {
      const Tensor want_gi =
          naive_conv1d_backward(w, xs[c], gs[c], kernel, stride, padding, want_wg, want_bg);
      const Tensor got_gi = conv.backward(gs[c]);
      const std::string where = "shape {" + std::to_string(s[0]) + "," + std::to_string(s[1]) +
                                "," + std::to_string(kernel) + "," + std::to_string(stride) +
                                "," + std::to_string(padding) + "," + std::to_string(len) +
                                "} call " + std::to_string(c);
      EXPECT_TRUE(same_bits(got_gi, want_gi)) << where << " input gradient";
      EXPECT_TRUE(same_bits(wg, want_wg)) << where << " weight gradient";
      EXPECT_TRUE(same_bits(bg, want_bg)) << where << " bias gradient";
    }
  }
}

// Frame-minor batches ([C, L, B], frame index innermost) run every frame
// through the per-element order of a single-frame call. Shapes are the model
// layers' (CONV-E1/E2/E3 and CONV-F with 6 tags) and the edge geometries of
// the single-frame tests: stride > kernel, stride 1, padding >= kernel - 1
// (outputs with no valid tap), output length 1.
constexpr int kBatchShapes[][6] = {{6, 8, 7, 2, 3, 180}, {8, 12, 5, 3, 1, 90},
                                   {12, 16, 5, 5, 0, 30}, {6, 8, 2, 1, 0, 4},
                                   {3, 5, 2, 4, 1, 17},   {2, 3, 3, 1, 2, 9},
                                   {2, 3, 3, 1, 4, 5},    {3, 2, 5, 1, 0, 5},
                                   {2, 6, 4, 3, 1, 3},    {1, 1, 1, 1, 0, 1}};
// Batches below 8 run Conv1d's position-lane tile (with masked edge taps);
// 8 and more its frame-lane tile, whose last lane group overlaps unless the
// batch is a multiple of 8. Dense's gemv_frames has 8-frame, 4-frame and
// single-frame tiles, and each size below mixes them differently.
constexpr int kBatchSizes[] = {1, 2, 3, 7, 8, 9, 16, 20, 23};

Tensor stack(const std::vector<Tensor>& frames) {
  std::vector<const Tensor*> ptrs;
  for (const Tensor& f : frames) ptrs.push_back(&f);
  return stack_frames(ptrs);
}

std::string shape_name(const int s[6], int batch) {
  std::string out = "shape {";
  for (int i = 0; i < 6; ++i) out += std::to_string(s[i]) + (i < 5 ? "," : "}");
  return out + " B=" + std::to_string(batch);
}

TEST(Conv1d, BatchForwardEqualsPerFrameLoopBitwise) {
  util::Rng rng(31);
  for (const auto& s : kBatchShapes) {
    Conv1d conv(s[0], s[1], s[2], s[3], s[4], rng);
    conv.params()[1]->value.randomize_normal(rng, 1.0f);
    conv.params()[0]->value[0] = std::numeric_limits<float>::infinity();
    for (const int batch : kBatchSizes) {
      std::vector<Tensor> xs;
      for (int f = 0; f < batch; ++f) {
        Tensor x = random_tensor({s[0], s[5]}, rng);
        for (std::size_t i = static_cast<std::size_t>(f) % 3; i < x.size(); i += 3) {
          x[i] = (i % 2 == 0) ? 0.0f : -0.0f;
        }
        xs.push_back(std::move(x));
      }
      for (const bool train : {false, true}) {
        const Tensor got = conv.forward(stack(xs), train);
        conv.clear_cache();
        ASSERT_EQ(got.shape(), (std::vector<int>{s[1], conv.output_length(s[5]), batch}));
        for (int f = 0; f < batch; ++f) {
          EXPECT_TRUE(same_bits(frame_of(got, f), naive_conv1d(conv, xs[f], s[2], s[3], s[4])))
              << shape_name(s, batch) << " frame " << f << " train " << train;
        }
      }
    }
  }
}

// One backward over a batch leaves the parameter gradients of B per-frame
// backward calls popped LIFO (frame B-1 first), and each frame's input
// gradient; a first layer (InputGrad::kSkip) leaves the same parameter
// gradients and returns no input gradient.
TEST(Conv1d, BatchBackwardEqualsLifoPerFrameLoopBitwise) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  util::Rng rng(37);
  for (const auto& s : kBatchShapes) {
    const int kernel = s[2], stride = s[3], padding = s[4], len = s[5];
    for (const Conv1d::InputGrad mode : {Conv1d::InputGrad::kCompute, Conv1d::InputGrad::kSkip}) {
      for (const int batch : kBatchSizes) {
        Conv1d conv(s[0], s[1], kernel, stride, padding, rng, mode);
        Tensor& w = conv.params()[0]->value;
        Tensor& wg = conv.params()[0]->grad;
        Tensor& bg = conv.params()[1]->grad;
        // As in BackwardBitwiseMatchesNaivePerElementLoop: -0 edge-tap
        // gradients, an infinite tap-0 weight, ±0 output gradients, and
        // non-finite inputs that only zero-gradient rows read.
        wg.randomize_normal(rng, 1.0f);
        bg.randomize_normal(rng, 1.0f);
        for (std::size_t i = 0; i < wg.size(); i += static_cast<std::size_t>(kernel)) {
          wg[i] = -0.0f;
          wg[i + static_cast<std::size_t>(kernel) - 1] = -0.0f;
        }
        w[0] = kInf;
        const int out_len = conv.output_length(len);
        std::vector<Tensor> xs, gs;
        for (int f = 0; f < batch; ++f) {
          Tensor x = random_tensor({s[0], len}, rng);
          for (std::size_t i = 0; i < x.size(); i += 5) x[i] = (i % 2 == 0) ? 0.0f : -0.0f;
          Tensor g = random_tensor({s[1], out_len}, rng);
          for (std::size_t i = static_cast<std::size_t>(f) % 3; i < g.size(); i += 3) {
            g[i] = (i % 2 == 0) ? 0.0f : -0.0f;
          }
          const int p = (len / 2 + f) % len;
          for (int oc = 0; oc < s[1]; ++oc) {
            for (int ol = 0; ol < out_len; ++ol) {
              const int start = ol * stride - padding;
              if (p >= start && p < start + kernel) g.at(oc, ol) = (oc + ol) % 2 ? -0.0f : 0.0f;
            }
          }
          x.at(0, p) = kInf;
          const int last_read = (out_len - 1) * stride - padding + kernel - 1;
          if (last_read < len - 1) x.at(s[0] - 1, len - 1) = kNan;
          xs.push_back(std::move(x));
          gs.push_back(std::move(g));
        }
        Tensor want_wg = wg, want_bg = bg;
        std::vector<Tensor> want_gi(static_cast<std::size_t>(batch));
        for (int f = batch - 1; f >= 0; --f) {
          want_gi[static_cast<std::size_t>(f)] =
              naive_conv1d_backward(w, xs[f], gs[f], kernel, stride, padding, want_wg, want_bg);
        }
        conv.forward(stack(xs), /*train=*/true);
        const Tensor got_gi = conv.backward(stack(gs));
        const std::string where = shape_name(s, batch) +
                                  (mode == Conv1d::InputGrad::kSkip ? " skip" : " compute");
        EXPECT_TRUE(same_bits(wg, want_wg)) << where << " weight gradient";
        EXPECT_TRUE(same_bits(bg, want_bg)) << where << " bias gradient";
        if (mode == Conv1d::InputGrad::kSkip) {
          EXPECT_EQ(got_gi.size(), 0u) << where;
          continue;
        }
        ASSERT_EQ(got_gi.shape(), (std::vector<int>{s[0], len, batch})) << where;
        for (int f = 0; f < batch; ++f) {
          EXPECT_TRUE(same_bits(frame_of(got_gi, f), want_gi[static_cast<std::size_t>(f)]))
              << where << " input gradient, frame " << f;
        }
      }
    }
  }
}

// The per-frame Dense loops, restated: gemv's y = b + sum_k w x (k
// ascending) and gemv_backward_acc's per-row bias, weight and input
// gradient updates.
Tensor naive_dense(const Tensor& w, const Tensor& b, const Tensor& x) {
  const int out = b.dim(0), in = static_cast<int>(x.size());
  Tensor y({out});
  for (int o = 0; o < out; ++o) {
    float acc = b[static_cast<std::size_t>(o)];
    for (int k = 0; k < in; ++k) acc += w[static_cast<std::size_t>(o) * in + k] * x[k];
    y[static_cast<std::size_t>(o)] = acc;
  }
  return y;
}

Tensor naive_dense_backward(const Tensor& w, const Tensor& x, const Tensor& g, Tensor& wg,
                            Tensor& bg) {
  const int out = static_cast<int>(g.size()), in = static_cast<int>(x.size());
  Tensor dx({in});
  for (int o = 0; o < out; ++o) {
    const float go = g[static_cast<std::size_t>(o)];
    bg[static_cast<std::size_t>(o)] += go;
    for (int k = 0; k < in; ++k) {
      wg[static_cast<std::size_t>(o) * in + k] += go * x[k];
      dx[k] += go * w[static_cast<std::size_t>(o) * in + k];
    }
  }
  return dx;
}

TEST(Dense, BatchEqualsPerFrameLoopsBitwise) {
  const struct BackendGuard {
    kern::BackendKind saved = kern::active_backend_kind();
    ~BackendGuard() { kern::set_backend(saved); }
  } guard;
  kern::set_backend(kern::BackendKind::kReference);
  util::Rng rng(43);
  // {in, out}: the merge FC and the head at the paper's sizes, then row
  // counts that are not a multiple of the kernel's four-row block.
  for (const auto& [in, out] : {std::pair{120, 48}, std::pair{32, 12}, std::pair{5, 3},
                                std::pair{7, 6}, std::pair{1, 1}}) {
    for (const int batch : kBatchSizes) {
      Dense layer(in, out, rng);
      Tensor& w = layer.params()[0]->value;
      Tensor& b = layer.params()[1]->value;
      b.randomize_normal(rng, 1.0f);
      layer.params()[0]->grad.randomize_normal(rng, 1.0f);
      layer.params()[1]->grad.randomize_normal(rng, 1.0f);
      std::vector<Tensor> xs, gs;
      for (int f = 0; f < batch; ++f) {
        Tensor x = random_tensor({in}, rng);
        for (std::size_t i = static_cast<std::size_t>(f) % 2; i < x.size(); i += 4) {
          x[i] = (i % 3 == 0) ? 0.0f : -0.0f;
        }
        Tensor g = random_tensor({out}, rng);
        for (std::size_t i = 0; i < g.size(); i += 3) g[i] = (i % 2 == 0) ? 0.0f : -0.0f;
        xs.push_back(std::move(x));
        gs.push_back(std::move(g));
      }
      const std::string where =
          "dense " + std::to_string(in) + "->" + std::to_string(out) + " B=" + std::to_string(batch);
      for (const bool train : {false, true}) {
        const Tensor y = layer.forward(stack(xs), train);
        ASSERT_EQ(y.shape(), (std::vector<int>{out, batch})) << where;
        for (int f = 0; f < batch; ++f) {
          EXPECT_TRUE(same_bits(frame_of(y, f), naive_dense(w, b, xs[f])))
              << where << " frame " << f << " train " << train;
        }
      }
      Tensor want_wg = layer.params()[0]->grad, want_bg = layer.params()[1]->grad;
      std::vector<Tensor> want_dx(static_cast<std::size_t>(batch));
      for (int f = batch - 1; f >= 0; --f) {
        want_dx[static_cast<std::size_t>(f)] =
            naive_dense_backward(w, xs[f], gs[f], want_wg, want_bg);
      }
      const Tensor dx = layer.backward(stack(gs));
      EXPECT_TRUE(same_bits(layer.params()[0]->grad, want_wg)) << where << " weight gradient";
      EXPECT_TRUE(same_bits(layer.params()[1]->grad, want_bg)) << where << " bias gradient";
      ASSERT_EQ(dx.shape(), (std::vector<int>{in, batch})) << where;
      for (int f = 0; f < batch; ++f) {
        EXPECT_TRUE(same_bits(frame_of(dx, f), want_dx[static_cast<std::size_t>(f)]))
            << where << " input gradient, frame " << f;
      }
    }
  }
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor y = relu.forward(Tensor::from({-1.0f, 0.0f, 2.0f}), false);
  EXPECT_FLOAT_EQ(y.at(0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(1), 0.0f);
  EXPECT_FLOAT_EQ(y.at(2), 2.0f);
}

TEST(ReLU, BackwardMasksNegatives) {
  ReLU relu;
  const Tensor x = Tensor::from({-1.0f, 3.0f});
  relu.forward(x, true);
  const Tensor g = relu.backward(Tensor::from({5.0f, 7.0f}));
  EXPECT_FLOAT_EQ(g.at(0), 0.0f);
  EXPECT_FLOAT_EQ(g.at(1), 7.0f);
}

TEST(MaxPool1d, ForwardSelectsMax) {
  MaxPool1d pool(2);
  Tensor x({1, 4});
  x.at(0, 0) = 1;
  x.at(0, 1) = 5;
  x.at(0, 2) = 2;
  x.at(0, 3) = 0;
  const Tensor y = pool.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);
}

TEST(MaxPool1d, BackwardRoutesToArgmax) {
  MaxPool1d pool(2);
  Tensor x({1, 4});
  x.at(0, 1) = 5;
  x.at(0, 2) = 2;
  pool.forward(x, true);
  Tensor g({1, 2});
  g.at(0, 0) = 1.0f;
  g.at(0, 1) = 2.0f;
  const Tensor gin = pool.backward(g);
  EXPECT_FLOAT_EQ(gin.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gin.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(gin.at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(gin.at(0, 3), 0.0f);
}

TEST(Dropout, InferenceIsIdentity) {
  Dropout drop(0.5, util::Rng(12));
  const Tensor x = Tensor::from({1, 2, 3});
  const Tensor y = drop.forward(x, false);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainDropsAndRescales) {
  Dropout drop(0.5, util::Rng(13));
  Tensor x({10000});
  x.fill(1.0f);
  const Tensor y = drop.forward(x, true);
  int zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(y[i], 2.0f);  // inverted dropout scale 1/(1-0.5)
    }
    sum += y[i];
  }
  EXPECT_NEAR(zeros / 10000.0, 0.5, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.06);  // expectation preserved
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop(0.5, util::Rng(14));
  Tensor x({100});
  x.fill(1.0f);
  const Tensor y = drop.forward(x, true);
  Tensor g({100});
  g.fill(1.0f);
  const Tensor gin = drop.backward(g);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(gin[i], y[i]);  // same positions dropped / scaled
  }
}

// A batch [N, B] draws frame 0's mask first, element order within a frame:
// the draws, the masks and the backward of B single-frame calls.
TEST(Dropout, BatchDrawsPerFrameMasksInFrameOrder) {
  for (const int batch : kBatchSizes) {
    Dropout batched(0.3, util::Rng(15));
    Dropout single(0.3, util::Rng(15));
    util::Rng rng(16);
    std::vector<Tensor> xs, gs;
    for (int f = 0; f < batch; ++f) {
      xs.push_back(random_tensor({37}, rng));
      gs.push_back(random_tensor({37}, rng));
    }
    const Tensor y = batched.forward(stack(xs), true);
    std::vector<Tensor> want_y;
    for (int f = 0; f < batch; ++f) want_y.push_back(single.forward(xs[f], true));
    const Tensor gin = batched.backward(stack(gs));
    for (int f = batch - 1; f >= 0; --f) {
      const Tensor want_gin = single.backward(gs[f]);
      EXPECT_TRUE(same_bits(frame_of(gin, f), want_gin)) << "B=" << batch << " frame " << f;
      EXPECT_TRUE(same_bits(frame_of(y, f), want_y[static_cast<std::size_t>(f)]))
          << "B=" << batch << " frame " << f;
    }
  }
}

}  // namespace
}  // namespace m2ai::nn
