#include "core/model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "kern/backend.hpp"
#include "kern/kernels.hpp"
#include "nn/gradcheck.hpp"
#include "nn/optimizer.hpp"
#include "per_frame_network.hpp"

namespace m2ai::core {
namespace {

constexpr int kTags = 3;
constexpr int kAntennas = 4;
constexpr int kClasses = 5;

SpectrumFrame random_frame(FeatureMode mode, util::Rng& rng) {
  SpectrumFrame f;
  f.has_pseudo = (mode == FeatureMode::kM2AI || mode == FeatureMode::kMusicOnly);
  f.has_aux = (mode != FeatureMode::kMusicOnly);
  if (f.has_pseudo) {
    f.pseudo = nn::Tensor({kTags, 180});
    f.pseudo.randomize_uniform(rng, 0.0f, 1.0f);
  }
  if (f.has_aux) {
    f.aux = nn::Tensor({kTags, kAntennas});
    f.aux.randomize_uniform(rng, 0.0f, 1.0f);
  }
  return f;
}

Sample random_sample(FeatureMode mode, int t_len, int label, util::Rng& rng) {
  Sample s;
  s.label = label;
  for (int t = 0; t < t_len; ++t) s.frames.push_back(random_frame(mode, rng));
  return s;
}

ModelConfig small_model() {
  ModelConfig m;
  m.lstm_hidden = 8;
  m.merge_features = 12;
  m.dropout = 0.0;  // deterministic for grad checks
  return m;
}

class AllArchitectures : public ::testing::TestWithParam<NetworkArch> {};

TEST_P(AllArchitectures, TrainStepAndPredictRun) {
  util::Rng rng(1);
  ModelConfig m = small_model();
  m.arch = GetParam();
  M2AINetwork net(m, FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  const Sample s = random_sample(FeatureMode::kM2AI, 6, 2, rng);
  const auto step = net.train_step(s);
  EXPECT_GT(step.loss, 0.0);
  EXPECT_GE(step.predicted, 0);
  EXPECT_LT(step.predicted, kClasses);
  const int pred = net.predict(s.frames);
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, kClasses);
}

TEST_P(AllArchitectures, GradientsAccumulate) {
  util::Rng rng(2);
  ModelConfig m = small_model();
  m.arch = GetParam();
  M2AINetwork net(m, FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  const Sample s = random_sample(FeatureMode::kM2AI, 4, 1, rng);
  net.train_step(s);
  double grad_norm = 0.0;
  for (nn::Param* p : net.params()) grad_norm += p->grad.l2_norm();
  EXPECT_GT(grad_norm, 0.0);
}

// predict_proba is exactly frame_features per frame, then
// predict_proba_from_features: the split the serving path runs on its DSP
// workers (the CNN as each frame closes, the rest as each window closes)
// must not move a bit under the reference backend.
TEST_P(AllArchitectures, FeaturesThenPredictEqualsPredictProbaBatchBitwise) {
  struct BackendGuard {
    kern::BackendKind saved = kern::active_backend_kind();
    ~BackendGuard() { kern::set_backend(saved); }
  } guard;
  kern::set_backend(kern::BackendKind::kReference);
  util::Rng rng(7);
  ModelConfig m;
  m.arch = GetParam();
  M2AINetwork net(m, FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  for (const int t_len : {20, 7, 6, 4, 1}) {
    const Sample x = random_sample(FeatureMode::kM2AI, t_len, 0, rng);
    const std::vector<double> want = net.predict_proba(x.frames);
    FeatureSequence features;
    for (const SpectrumFrame& f : x.frames) features.push_back(net.frame_features(f));
    const std::vector<double> got = net.predict_proba_from_features(features);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[c], want[c]) << "T=" << t_len << ", class " << c;
    }
  }
}

// train_step runs each sequence's CNN, merge and head as one frame-minor
// batch. Its loss, prediction and every parameter gradient must equal the
// per-frame loop it replaced (tests/per_frame_network.hpp), bit for bit,
// with dropout on, over two accumulating steps and sequences of one frame
// (the serving shape) and several, in every feature mode that changes the
// branches.
TEST_P(AllArchitectures, TrainStepMatchesPerFrameRestatementBitwise) {
  for (const FeatureMode mode :
       {FeatureMode::kM2AI, FeatureMode::kMusicOnly, FeatureMode::kFftOnly}) {
    for (const int t_len : {1, 7}) {
      util::Rng rng(static_cast<std::uint64_t>(40 + t_len));
      ModelConfig m = small_model();
      m.arch = GetParam();
      m.dropout = 0.25;
      M2AINetwork net(m, mode, kTags, kAntennas, kClasses);
      net.reseed_dropout(util::Rng(77));
      testing::PerFrameNetwork ref(net, mode, kTags, kAntennas, kClasses, util::Rng(77));
      const std::string where = std::string(feature_mode_name(mode)) + " T=" +
                                std::to_string(t_len);
      for (int step = 0; step < 2; ++step) {
        const Sample s = random_sample(mode, t_len, step + 1, rng);
        const M2AINetwork::StepResult got = net.train_step(s);
        const M2AINetwork::StepResult want = ref.train_step(s);
        EXPECT_EQ(got.loss, want.loss) << where << " step " << step;
        EXPECT_EQ(got.predicted, want.predicted) << where << " step " << step;
      }
      const std::vector<nn::Param*> got = net.params();
      const std::vector<nn::Param*> want = ref.params();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t p = 0; p < got.size(); ++p) {
        ASSERT_EQ(got[p]->grad.size(), want[p]->grad.size());
        EXPECT_EQ(0, std::memcmp(got[p]->grad.data(), want[p]->grad.data(),
                                 got[p]->grad.size() * sizeof(float)))
            << where << " gradient of param " << p << " (" << got[p]->name << ")";
      }
    }
  }
}

// Inference runs each sequence's CNN and head once, as a batch:
// predict_proba equals the per-frame, per-step loop, and equals per-frame
// frame_features (the serving path's one-frame batch) followed by
// predict_proba_from_features — the identity behind serving's agreement with
// offline labels. Paper-sized engine, sequences of 20, 7, 6, 4 and 1 frames.
TEST_P(AllArchitectures, SequenceBatchEqualsPerFrameInferenceBitwise) {
  struct BackendGuard {
    kern::BackendKind saved = kern::active_backend_kind();
    ~BackendGuard() { kern::set_backend(saved); }
  } guard;
  kern::set_backend(kern::BackendKind::kReference);
  for (const FeatureMode mode :
       {FeatureMode::kM2AI, FeatureMode::kMusicOnly, FeatureMode::kRssiOnly}) {
    util::Rng rng(8);
    ModelConfig m;
    m.arch = GetParam();
    M2AINetwork net(m, mode, kTags, kAntennas, kClasses);
    testing::PerFrameNetwork ref(net, mode, kTags, kAntennas, kClasses, util::Rng(1));
    for (const int t_len : {20, 7, 6, 4, 1}) {
      const Sample x = random_sample(mode, t_len, 0, rng);
      const std::vector<double> batch = net.predict_proba(x.frames);
      FeatureSequence features;
      for (const SpectrumFrame& f : x.frames) features.push_back(net.frame_features(f));
      const std::vector<double> served = net.predict_proba_from_features(features);
      const std::vector<double> want = ref.predict_proba(x.frames);
      ASSERT_EQ(batch.size(), want.size());
      ASSERT_EQ(served.size(), want.size());
      for (std::size_t c = 0; c < want.size(); ++c) {
        EXPECT_EQ(batch[c], want[c]) << feature_mode_name(mode) << " T=" << t_len << " class " << c;
        EXPECT_EQ(served[c], want[c]) << feature_mode_name(mode) << " T=" << t_len << " class " << c;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Archs, AllArchitectures,
                         ::testing::Values(NetworkArch::kCnnLstm,
                                           NetworkArch::kCnnOnly,
                                           NetworkArch::kLstmOnly));

class AllFeatureModes : public ::testing::TestWithParam<FeatureMode> {};

TEST_P(AllFeatureModes, NetworkAdaptsInputShape) {
  util::Rng rng(3);
  M2AINetwork net(small_model(), GetParam(), kTags, kAntennas, kClasses);
  const Sample s = random_sample(GetParam(), 5, 0, rng);
  const auto step = net.train_step(s);
  EXPECT_TRUE(std::isfinite(step.loss));
  EXPECT_GT(net.num_parameters(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Modes, AllFeatureModes,
                         ::testing::Values(FeatureMode::kM2AI, FeatureMode::kMusicOnly,
                                           FeatureMode::kFftOnly,
                                           FeatureMode::kPhaseOnly,
                                           FeatureMode::kRssiOnly));

TEST(M2AINetwork, PredictProbaNormalized) {
  util::Rng rng(4);
  M2AINetwork net(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  const Sample s = random_sample(FeatureMode::kM2AI, 4, 0, rng);
  const auto probs = net.predict_proba(s.frames);
  ASSERT_EQ(probs.size(), static_cast<std::size_t>(kClasses));
  double total = 0.0;
  for (double p : probs) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(M2AINetwork, EmptySampleRejected) {
  M2AINetwork net(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  Sample s;
  EXPECT_THROW(net.train_step(s), std::invalid_argument);
}

TEST(M2AINetwork, FullGradCheckTinyModel) {
  // End-to-end analytic-vs-numeric gradients through conv branches, merge,
  // stacked LSTM, and head on a 2-step sequence.
  util::Rng rng(5);
  ModelConfig m = small_model();
  m.lstm_hidden = 4;
  m.merge_features = 6;
  M2AINetwork net(m, FeatureMode::kM2AI, 2, 3, 3);

  SpectrumFrame f1, f2;
  for (SpectrumFrame* f : {&f1, &f2}) {
    f->has_pseudo = true;
    f->has_aux = true;
    f->pseudo = nn::Tensor({2, 180});
    f->pseudo.randomize_uniform(rng, 0.0f, 1.0f);
    f->aux = nn::Tensor({2, 3});
    f->aux.randomize_uniform(rng, 0.0f, 1.0f);
  }
  Sample s;
  s.label = 1;
  s.frames = {f1, f2};

  auto loss_fn = [&]() { return net.train_step(s).loss; };
  // Wide epsilon: the loss is float32, so small perturbations drown in
  // rounding noise on a network this deep; ReLU kinks additionally break
  // the max-error criterion on a few components. Require broad agreement.
  const auto result = nn::check_param_gradients(loss_fn, net.params(), 1e-2, 8e-2);
  EXPECT_GT(result.fraction_within, 0.9)
      << "fraction " << result.fraction_within << ", max rel err "
      << result.max_rel_error;
}

// Integer-derived floats in [-1, 1) with at most 24 significant bits, so the
// values are exact on every host (no libm, no float rounding on the way in).
struct BitsLcg {
  std::uint32_t state;
  float next() {
    state = state * 1664525u + 1013904223u;
    return static_cast<float>(static_cast<std::int32_t>(state) >> 8) * 0x1p-23f;
  }
};

struct BitsHash {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  void add(const float* v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint32_t u;
      std::memcpy(&u, &v[i], sizeof u);
      h = (h ^ u) * 1099511628211ull;
    }
  }
};

// Pins the bits of frame_features (CNN branches + merge, eval mode) and of
// the gemv / gemm_bias kernels at the model's shapes across commits: a
// loop-order change that reorders any element's sum changes the hash. These
// paths call no libm function, so the constant does not depend on the host's
// libm; weights and inputs come from an integer generator for the same reason.
TEST(GoldenBits, FrameFeaturesGemvAndGemmBiasMatchPinnedHash) {
  const kern::BackendKind saved = kern::active_backend_kind();
  kern::set_backend(kern::BackendKind::kReference);
  BitsLcg gen{12345u};
  BitsHash hash;

  ModelConfig model;  // merge 48, LSTM 2 x 32: the paper's engine
  M2AINetwork net(model, FeatureMode::kM2AI, 6, 4, 12);
  for (nn::Param* p : net.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) p->value[i] = 0.25f * gen.next();
  }
  for (int t = 0; t < 4; ++t) {
    SpectrumFrame f;
    f.has_pseudo = f.has_aux = true;
    f.pseudo = nn::Tensor({6, 180});
    f.aux = nn::Tensor({6, 4});
    for (nn::Tensor* x : {&f.pseudo, &f.aux}) {
      for (std::size_t i = 0; i < x->size(); ++i) (*x)[i] = gen.next();
    }
    const nn::Tensor y = net.frame_features(f);
    ASSERT_EQ(y.size(), 48u);
    hash.add(y.data(), y.size());
  }

  // {rows, cols}: the merge FC, the two LSTM gate blocks and the head.
  for (const auto& [rows, cols] : {std::pair{48, 120}, std::pair{128, 80},
                                   std::pair{128, 64}, std::pair{12, 32}}) {
    std::vector<float> w(static_cast<std::size_t>(rows) * cols), wt(w.size());
    std::vector<float> x(8 * static_cast<std::size_t>(cols)), b(static_cast<std::size_t>(rows));
    for (float& v : w) v = gen.next();
    for (float& v : x) v = gen.next();
    for (float& v : b) v = gen.next();
    for (int r = 0; r < rows; ++r) {
      for (int k = 0; k < cols; ++k) {
        wt[static_cast<std::size_t>(k) * rows + r] = w[static_cast<std::size_t>(r) * cols + k];
      }
    }
    std::vector<float> y(8 * static_cast<std::size_t>(rows));
    kern::gemv(w.data(), x.data(), b.data(), y.data(), rows, cols);
    hash.add(y.data(), static_cast<std::size_t>(rows));
    for (const int m : {1, 8}) {
      kern::gemm_bias(x.data(), wt.data(), b.data(), y.data(), m, cols, rows);
      hash.add(y.data(), static_cast<std::size_t>(m) * rows);
    }
  }
  kern::set_backend(saved);
  EXPECT_EQ(hash.h, 0xaaf0026d2e5505c9ull) << std::hex << hash.h;
}

TEST(M2AINetwork, LearnsToSeparateSyntheticClasses) {
  // Two classes with distinct pseudospectrum peak locations must be
  // separable within a few epochs.
  util::Rng rng(6);
  ModelConfig m = small_model();
  M2AINetwork net(m, FeatureMode::kM2AI, kTags, kAntennas, 2);

  auto make_class_sample = [&](int label) {
    Sample s;
    s.label = label;
    for (int t = 0; t < 4; ++t) {
      SpectrumFrame f;
      f.has_pseudo = true;
      f.has_aux = true;
      f.pseudo = nn::Tensor({kTags, 180});
      f.aux = nn::Tensor({kTags, kAntennas});
      const int peak = label == 0 ? 45 : 135;
      for (int tag = 0; tag < kTags; ++tag) {
        for (int b = 0; b < 180; ++b) {
          const double d = b - peak;
          f.pseudo.at(tag, b) = static_cast<float>(
              std::exp(-d * d / 50.0) + 0.05 * rng.uniform());
        }
        for (int a = 0; a < kAntennas; ++a) {
          f.aux.at(tag, a) = static_cast<float>(0.5 + 0.1 * rng.normal());
        }
      }
      s.frames.push_back(std::move(f));
    }
    return s;
  };

  std::vector<Sample> train;
  for (int i = 0; i < 20; ++i) train.push_back(make_class_sample(i % 2));

  nn::Adam opt(3e-3);
  const auto params = net.params();
  for (int epoch = 0; epoch < 20; ++epoch) {
    for (const Sample& s : train) {
      net.train_step(s);
      nn::clip_gradient_norm(params, 5.0);
      opt.step(params);
    }
  }
  int correct = 0;
  for (int i = 0; i < 10; ++i) {
    const Sample s = make_class_sample(i % 2);
    if (net.predict(s.frames) == s.label) ++correct;
  }
  EXPECT_GE(correct, 9);
}

}  // namespace
}  // namespace m2ai::core
