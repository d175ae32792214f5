// Equivalence suite for the dual-mode kernel backends.
//
// The fast backend (SIMD/FMA, its own translation-unit flags) is allowed to
// reorder within-element accumulation, so its results are compared to the
// reference within a relative epsilon — at 1x1, prime, non-multiple-of-
// vector-width, and empty shapes, so every vector-tail path is exercised.
// Two properties ARE bitwise and tested as such: gemm_bias under the
// reference backend equals stacked gemv calls (each output row depends on
// its input row alone), and predict_batch equals per-sequence predict under
// the reference backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "kern/backend.hpp"
#include "kern/kernels.hpp"
#include "nn/lstm.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace m2ai {
namespace {

// Every test that switches the process-global backend restores the previous
// one so test order can't leak a fast backend into bitwise suites.
struct BackendGuard {
  kern::BackendKind saved = kern::active_backend_kind();
  ~BackendGuard() { kern::set_backend(saved); }
};

std::vector<float> random_floats(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Relative-epsilon comparison with an absolute floor: inputs are unit-normal
// so accumulated sums are O(sqrt(k)) and FMA/lane reordering perturbs them
// at a few ulps of the largest intermediate.
void expect_close(float ref, float fast, const std::string& where) {
  EXPECT_NEAR(ref, fast, 5e-4f * std::max(1.0f, std::abs(ref))) << where;
}

void expect_close(double ref, double fast, const std::string& where) {
  EXPECT_NEAR(ref, fast, 1e-9 * std::max(1.0, std::abs(ref))) << where;
}

TEST(KernBackend, DispatchDefaultsToReferenceAndSwitchesAtomically) {
  BackendGuard guard;
  EXPECT_EQ(kern::set_backend(kern::BackendKind::kReference),
            kern::BackendKind::kReference);
  EXPECT_STREQ(kern::active().name, "ref");
  EXPECT_EQ(kern::active().gemv, kern::reference_backend().gemv);

  const kern::BackendKind got = kern::set_backend(kern::BackendKind::kFast);
  if (kern::fast_backend_supported()) {
    EXPECT_EQ(got, kern::BackendKind::kFast);
    EXPECT_STREQ(kern::active().name, "fast");
    EXPECT_EQ(kern::active().gemm_bias, kern::fast_backend().gemm_bias);
  } else {
    // CPUID fallback: a fast request on an unsupported host degrades to ref.
    EXPECT_EQ(got, kern::BackendKind::kReference);
    EXPECT_STREQ(kern::active().name, "ref");
  }
  EXPECT_EQ(kern::active_backend_kind(), got);
}

TEST(KernBackend, SetByNameParsesAndRejects) {
  BackendGuard guard;
  EXPECT_EQ(kern::set_backend_by_name("ref"), kern::BackendKind::kReference);
  EXPECT_EQ(kern::set_backend_by_name("reference"), kern::BackendKind::kReference);
  const kern::BackendKind fast = kern::set_backend_by_name("fast");
  EXPECT_EQ(fast, kern::fast_backend_supported() ? kern::BackendKind::kFast
                                                 : kern::BackendKind::kReference);
  EXPECT_THROW(kern::set_backend_by_name("int8"), std::invalid_argument);
  EXPECT_THROW(kern::set_backend_by_name("avx9000"), std::invalid_argument);
  EXPECT_THROW(kern::set_backend_by_name(""), std::invalid_argument);
}

// M2AI_KERN_BACKEND regression: an unknown value must not throw out of
// static init or silently keep a stale backend — it logs a warning and
// falls back to the reference, and apply_env_backend() reports the kind
// actually active.
TEST(KernBackend, EnvOverrideAppliesValidValuesAndRejectsUnknown) {
  BackendGuard guard;

  ASSERT_EQ(setenv("M2AI_KERN_BACKEND", "bogus-simd", 1), 0);
  kern::set_backend(kern::BackendKind::kFast);  // poison: fallback must undo it
  EXPECT_EQ(kern::apply_env_backend(), kern::BackendKind::kReference);
  EXPECT_EQ(kern::active_backend_kind(), kern::BackendKind::kReference);

  ASSERT_EQ(setenv("M2AI_KERN_BACKEND", "fast", 1), 0);
  EXPECT_EQ(kern::apply_env_backend(),
            kern::fast_backend_supported() ? kern::BackendKind::kFast
                                           : kern::BackendKind::kReference);

  // A backend name this build does not have is one more unknown value: it
  // warns and falls back like any typo.
  ASSERT_EQ(setenv("M2AI_KERN_BACKEND", "int8", 1), 0);
  kern::set_backend(kern::BackendKind::kFast);
  const util::LogLevel saved_level = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  testing::internal::CaptureStderr();
  EXPECT_EQ(kern::apply_env_backend(), kern::BackendKind::kReference);
  const std::string warning = testing::internal::GetCapturedStderr();
  util::set_log_level(saved_level);
  EXPECT_NE(warning.find("unknown M2AI_KERN_BACKEND value 'int8'"), std::string::npos)
      << warning;
  EXPECT_EQ(kern::active_backend_kind(), kern::BackendKind::kReference);

  ASSERT_EQ(setenv("M2AI_KERN_BACKEND", "ref", 1), 0);
  EXPECT_EQ(kern::apply_env_backend(), kern::BackendKind::kReference);

  // Unset: apply is a no-op and reports whatever is already active.
  ASSERT_EQ(unsetenv("M2AI_KERN_BACKEND"), 0);
  kern::set_backend(kern::BackendKind::kReference);
  EXPECT_EQ(kern::apply_env_backend(), kern::BackendKind::kReference);
}

TEST(KernBackend, GemvEquivalence) {
  if (!kern::fast_backend_supported()) GTEST_SKIP() << "no fast backend";
  const kern::Backend& fast = kern::fast_backend();
  util::Rng rng(101);
  // 1x1, primes, multiples and non-multiples of the 8-lane width, empty.
  const int shapes[][2] = {{1, 1},  {3, 5},   {7, 13},   {8, 8},
                           {31, 17}, {33, 65}, {128, 96}, {5, 0}};
  for (const auto& s : shapes) {
    const int rows = s[0], cols = s[1];
    const auto w = random_floats(static_cast<std::size_t>(rows) * cols, rng);
    const auto x = random_floats(static_cast<std::size_t>(cols), rng);
    const auto b = random_floats(static_cast<std::size_t>(rows), rng);
    for (const bool with_bias : {true, false}) {
      std::vector<float> y_ref(static_cast<std::size_t>(rows), -7.0f);
      std::vector<float> y_fast(static_cast<std::size_t>(rows), 7.0f);
      const float* bias = with_bias ? b.data() : nullptr;
      kern::gemv(w.data(), x.data(), bias, y_ref.data(), rows, cols);
      fast.gemv(w.data(), x.data(), bias, y_fast.data(), rows, cols);
      for (int r = 0; r < rows; ++r) {
        expect_close(y_ref[static_cast<std::size_t>(r)],
                     y_fast[static_cast<std::size_t>(r)],
                     std::to_string(rows) + "x" + std::to_string(cols) + " r=" +
                         std::to_string(r));
      }
    }
  }
}

TEST(KernBackend, GemmBiasEquivalence) {
  if (!kern::fast_backend_supported()) GTEST_SKIP() << "no fast backend";
  const kern::Backend& fast = kern::fast_backend();
  util::Rng rng(102);
  const int shapes[][3] = {{1, 1, 1},    {3, 5, 7},  {13, 11, 17},
                           {8, 64, 128}, {2, 0, 3},  {4, 4, 4},
                           {5, 9, 33},   {1, 7, 40}};
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    const auto a = random_floats(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_floats(static_cast<std::size_t>(k) * n, rng);
    const auto bias = random_floats(static_cast<std::size_t>(n), rng);
    for (const bool with_bias : {true, false}) {
      std::vector<float> c_ref(static_cast<std::size_t>(m) * n, -7.0f);
      std::vector<float> c_fast(c_ref.size(), 7.0f);
      const float* bp = with_bias ? bias.data() : nullptr;
      kern::gemm_bias(a.data(), b.data(), bp, c_ref.data(), m, k, n);
      fast.gemm_bias(a.data(), b.data(), bp, c_fast.data(), m, k, n);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        expect_close(c_ref[i], c_fast[i],
                     std::to_string(m) + "x" + std::to_string(k) + "x" +
                         std::to_string(n) + " i=" + std::to_string(i));
      }
    }
  }
}

// The contract the batched serving path relies on: under the reference
// backend, one gemm_bias over stacked inputs is BITWISE-identical to the
// per-row gemv calls it replaces.
TEST(KernBackend, ReferenceGemmBiasBitwiseMatchesStackedGemv) {
  util::Rng rng(103);
  const int shapes[][3] = {{1, 1, 1}, {3, 5, 7}, {8, 64, 128}, {13, 11, 17}};
  for (const auto& s : shapes) {
    const int batch = s[0], in = s[1], out = s[2];
    // gemv takes W as [out, in]; gemm_bias takes its transpose [in, out].
    const auto w = random_floats(static_cast<std::size_t>(out) * in, rng);
    std::vector<float> wt(static_cast<std::size_t>(in) * out);
    for (int j = 0; j < out; ++j) {
      for (int k = 0; k < in; ++k) {
        wt[static_cast<std::size_t>(k) * out + j] =
            w[static_cast<std::size_t>(j) * in + k];
      }
    }
    const auto bias = random_floats(static_cast<std::size_t>(out), rng);
    const auto x = random_floats(static_cast<std::size_t>(batch) * in, rng);

    std::vector<float> c(static_cast<std::size_t>(batch) * out);
    kern::gemm_bias(x.data(), wt.data(), bias.data(), c.data(), batch, in, out);
    std::vector<float> y(static_cast<std::size_t>(out));
    for (int i = 0; i < batch; ++i) {
      kern::gemv(w.data(), x.data() + static_cast<std::size_t>(i) * in,
                 bias.data(), y.data(), out, in);
      for (int j = 0; j < out; ++j) {
        ASSERT_EQ(y[static_cast<std::size_t>(j)],
                  c[static_cast<std::size_t>(i) * out + j])
            << "sample " << i << " out " << j;
      }
    }
  }
}

TEST(KernBackend, Conv1dRowEquivalence) {
  if (!kern::fast_backend_supported()) GTEST_SKIP() << "no fast backend";
  const kern::Backend& fast = kern::fast_backend();
  util::Rng rng(104);
  // {len, kernel, stride, padding}: the model's layers, a kernel longer
  // than the input, stride 1 (the vectorized path), and 1x1.
  const int shapes[][4] = {{180, 7, 2, 3}, {60, 5, 3, 1}, {25, 5, 5, 0},
                           {4, 7, 1, 3},   {1, 1, 1, 0},  {17, 3, 1, 1},
                           {90, 9, 1, 4}};
  for (const auto& s : shapes) {
    const int len = s[0], kernel = s[1], stride = s[2], padding = s[3];
    const int out_len = (len + 2 * padding - kernel) / stride + 1;
    ASSERT_GT(out_len, 0);
    const auto x = random_floats(static_cast<std::size_t>(len), rng);
    const auto w = random_floats(static_cast<std::size_t>(kernel), rng);
    std::vector<float> p_ref(static_cast<std::size_t>(out_len), 0.0f);
    std::vector<float> p_fast(p_ref);
    kern::conv1d_row_acc(x.data(), len, w.data(), kernel, stride, padding,
                         p_ref.data(), out_len);
    fast.conv1d_row_acc(x.data(), len, w.data(), kernel, stride, padding,
                        p_fast.data(), out_len);
    for (int ol = 0; ol < out_len; ++ol) {
      expect_close(p_ref[static_cast<std::size_t>(ol)],
                   p_fast[static_cast<std::size_t>(ol)],
                   "len=" + std::to_string(len) + " k=" + std::to_string(kernel) +
                       " s=" + std::to_string(stride) + " ol=" + std::to_string(ol));
    }
  }
}

TEST(KernBackend, NoiseProjectionEquivalence) {
  if (!kern::fast_backend_supported()) GTEST_SKIP() << "no fast backend";
  const kern::Backend& fast = kern::fast_backend();
  util::Rng rng(105);
  // {bins, n, num_noise}: the paper's 180x4, 1x1, odd n (vector tail), and
  // an empty noise subspace.
  const int shapes[][3] = {{180, 4, 2}, {1, 1, 1}, {7, 3, 2},
                           {13, 5, 4},  {5, 2, 0}, {31, 6, 3}};
  for (const auto& s : shapes) {
    const int bins = s[0], n = s[1], num_noise = s[2];
    std::vector<std::complex<double>> un(static_cast<std::size_t>(num_noise) * n);
    std::vector<std::complex<double>> steer(static_cast<std::size_t>(bins) * n);
    for (auto& v : un) v = {rng.normal(), rng.normal()};
    for (auto& v : steer) v = {rng.normal(), rng.normal()};
    std::vector<double> d_ref(static_cast<std::size_t>(bins), -1.0);
    std::vector<double> d_fast(static_cast<std::size_t>(bins), 1.0);
    kern::noise_projection(un.data(), num_noise, steer.data(), bins, n,
                           d_ref.data());
    fast.noise_projection(un.data(), num_noise, steer.data(), bins, n,
                          d_fast.data());
    for (int bin = 0; bin < bins; ++bin) {
      expect_close(d_ref[static_cast<std::size_t>(bin)],
                   d_fast[static_cast<std::size_t>(bin)],
                   std::to_string(bins) + "x" + std::to_string(n) + "x" +
                       std::to_string(num_noise) + " bin=" + std::to_string(bin));
    }
  }
}

std::vector<std::vector<nn::Tensor>> random_sequences(int batch, int t_len,
                                                      int features,
                                                      util::Rng& rng) {
  std::vector<std::vector<nn::Tensor>> seqs(static_cast<std::size_t>(batch));
  for (auto& seq : seqs) {
    for (int t = 0; t < t_len; ++t) {
      nn::Tensor x({features});
      for (std::size_t i = 0; i < x.size(); ++i) {
        x[i] = static_cast<float>(rng.normal());
      }
      seq.push_back(std::move(x));
    }
  }
  return seqs;
}

// A batch of sequences, each through the evaluation forward on its own:
// the fast gate GEMM stays within the kernel tolerance of the reference.
TEST(KernBackend, LstmForwardBatchCloseToReferenceUnderFast) {
  if (!kern::fast_backend_supported()) GTEST_SKIP() << "no fast backend";
  BackendGuard guard;
  util::Rng rng(108);
  nn::Lstm lstm(6, 8, rng);
  const auto seqs = random_sequences(4, 5, 6, rng);
  for (std::size_t b = 0; b < seqs.size(); ++b) {
    kern::set_backend(kern::BackendKind::kReference);
    const auto ref = lstm.forward(seqs[b], /*train=*/false);
    kern::set_backend(kern::BackendKind::kFast);
    const auto fast = lstm.forward(seqs[b], /*train=*/false);
    ASSERT_EQ(ref.size(), fast.size());
    for (std::size_t t = 0; t < ref.size(); ++t) {
      for (std::size_t u = 0; u < ref[t].size(); ++u) {
        expect_close(ref[t][u], fast[t][u],
                     "seq " + std::to_string(b) + " t " + std::to_string(t));
      }
    }
  }
}

core::FrameSequence random_frames(int t_len, util::Rng& rng) {
  core::FrameSequence frames;
  for (int t = 0; t < t_len; ++t) {
    core::SpectrumFrame f;
    f.has_pseudo = true;
    f.has_aux = true;
    f.pseudo = nn::Tensor({6, 180});
    f.pseudo.randomize_uniform(rng, 0.0f, 1.0f);
    f.aux = nn::Tensor({6, 4});
    f.aux.randomize_uniform(rng, 0.0f, 1.0f);
    frames.push_back(std::move(f));
  }
  return frames;
}

TEST(KernBackend, PredictBatchMatchesPredict) {
  BackendGuard guard;
  core::ModelConfig model;
  core::M2AINetwork net(model, core::FeatureMode::kM2AI, 6, 4, 12);
  util::Rng rng(109);
  // Mixed sequence lengths.
  std::vector<core::FrameSequence> sequences;
  for (const int t_len : {4, 6, 4, 5, 6}) {
    sequences.push_back(random_frames(t_len, rng));
  }
  std::vector<const core::FrameSequence*> batch;
  for (const auto& s : sequences) batch.push_back(&s);

  // Reference backend: labels AND the underlying math are identical, so the
  // comparison is exact.
  kern::set_backend(kern::BackendKind::kReference);
  const std::vector<int> batched = net.predict_batch(batch);
  ASSERT_EQ(batched.size(), sequences.size());
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    EXPECT_EQ(batched[i], net.predict(sequences[i])) << "sample " << i;
  }

  if (!kern::fast_backend_supported()) return;
  // Fast backend: epsilon math, so assert label equality only where the
  // reference top-2 margin is comfortably wider than the kernel tolerance.
  kern::set_backend(kern::BackendKind::kFast);
  const std::vector<int> fast = net.predict_batch(batch);
  kern::set_backend(kern::BackendKind::kReference);
  for (std::size_t i = 0; i < sequences.size(); ++i) {
    const std::vector<double> proba = net.predict_proba(sequences[i]);
    std::vector<double> sorted(proba);
    std::sort(sorted.begin(), sorted.end(), std::greater<double>());
    if (sorted.size() > 1 && sorted[0] - sorted[1] < 1e-4) continue;
    EXPECT_EQ(fast[i], batched[i]) << "sample " << i;
  }
}

}  // namespace
}  // namespace m2ai
