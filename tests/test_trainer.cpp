// Trainer-level regressions: batch-size-invariant gradient scaling (the
// accumulated batch gradient must be divided by the number of samples that
// actually contributed before clip+step), the LR-schedule breakpoint clamp
// (epochs=1 must train its single epoch at the full learning rate), and the
// data-parallel determinism guarantee (checkpoints and telemetry identical
// at any thread count, including random-crop and dropout paths).
#include "core/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

#include "nn/optimizer.hpp"
#include "obs/telemetry.hpp"
#include "par/parallel_for.hpp"
#include "per_frame_network.hpp"
#include "util/rng.hpp"

namespace m2ai::core {
namespace {

constexpr int kTags = 2;
constexpr int kAntennas = 4;
constexpr int kClasses = 3;

Sample make_sample(int label, std::uint64_t seed) {
  util::Rng rng(seed);
  Sample sample;
  sample.label = label;
  for (int t = 0; t < 6; ++t) {
    SpectrumFrame f;
    f.has_pseudo = true;
    f.has_aux = true;
    f.pseudo = nn::Tensor({kTags, 180});
    f.pseudo.randomize_uniform(rng, 0.0f, 1.0f);
    f.aux = nn::Tensor({kTags, kAntennas});
    f.aux.randomize_uniform(rng, 0.0f, 1.0f);
    sample.frames.push_back(std::move(f));
  }
  return sample;
}

ModelConfig small_model() {
  ModelConfig model;
  model.lstm_hidden = 8;
  model.merge_features = 12;
  model.dropout = 0.0;  // dropout would break run-to-run comparability
  return model;
}

TrainConfig plain_train(int batch_size, int epochs = 1) {
  TrainConfig config;
  config.batch_size = batch_size;
  config.epochs = epochs;
  config.lr_schedule = false;
  config.crop_frames = 0;
  return config;
}

std::vector<float> snapshot_params(M2AINetwork& network) {
  std::vector<float> values;
  for (const nn::Param* p : network.params()) {
    for (std::size_t i = 0; i < p->value.size(); ++i) values.push_back(p->value[i]);
  }
  return values;
}

void expect_params_near(M2AINetwork& a, M2AINetwork& b, float tol) {
  const auto va = snapshot_params(a);
  const auto vb = snapshot_params(b);
  ASSERT_EQ(va.size(), vb.size());
  float max_diff = 0.0f;
  for (std::size_t i = 0; i < va.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(va[i] - vb[i]));
  }
  EXPECT_LE(max_diff, tol);
}

// With N copies of one sample and batch_size=N, the accumulated gradient is
// N*g; normalized by N it must reproduce the batch_size=1 single-sample
// step. EXPECT tolerance (not equality) because ((g+g)+g)+g)/4 rounds
// differently than g in float.
TEST(Trainer, StepIsBatchSizeInvariant) {
  M2AINetwork net_b4(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  M2AINetwork net_b1(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);

  const Sample sample = make_sample(1, 21);
  {
    Trainer trainer(net_b4, plain_train(/*batch_size=*/4));
    trainer.run_epoch({sample, sample, sample, sample});  // one step of mean grad
  }
  {
    Trainer trainer(net_b1, plain_train(/*batch_size=*/1));
    trainer.run_epoch({sample});  // one step of the same grad
  }
  expect_params_near(net_b4, net_b1, 1e-5f);
}

// 5 samples at batch_size=4 take two steps: a full batch of 4 and a partial
// batch of 1. Both must be normalized by their own sample count, so the
// trajectory matches two batch_size=1 steps on the same sample.
TEST(Trainer, PartialFinalBatchIsNormalizedByItsOwnCount) {
  M2AINetwork net_partial(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  M2AINetwork net_single(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);

  const Sample sample = make_sample(2, 22);
  {
    Trainer trainer(net_partial, plain_train(/*batch_size=*/4));
    trainer.run_epoch({sample, sample, sample, sample, sample});
  }
  {
    Trainer trainer(net_single, plain_train(/*batch_size=*/1));
    trainer.run_epoch({sample, sample});
  }
  expect_params_near(net_partial, net_single, 1e-4f);
}

// Regression for the integer-math breakpoints: epochs * 85 / 100 == 0 for
// epochs=1 used to put the only epoch straight into the 0.09x regime.
TEST(Trainer, SingleEpochBudgetTrainsAtFullLearningRate) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::training().clear();

  M2AINetwork net(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  TrainConfig config = plain_train(/*batch_size=*/2, /*epochs=*/1);
  config.lr_schedule = true;
  Trainer trainer(net, config);
  trainer.fit({make_sample(0, 23), make_sample(1, 24)});

  const auto epochs = obs::training().snapshot();
  ASSERT_EQ(epochs.size(), 1u);
  EXPECT_DOUBLE_EQ(epochs[0].learning_rate, config.learning_rate);

  obs::training().clear();
  obs::set_enabled(was_enabled);
}

// With epochs=3 the clamped breakpoints are 60% -> 1 and 85% -> 2, giving
// the full three-stage schedule lr, 0.3*lr, 0.09*lr.
TEST(Trainer, ThreeEpochBudgetWalksTheFullSchedule) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::training().clear();

  M2AINetwork net(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  TrainConfig config = plain_train(/*batch_size=*/2, /*epochs=*/3);
  config.lr_schedule = true;
  Trainer trainer(net, config);
  trainer.fit({make_sample(0, 25), make_sample(2, 26)});

  const auto epochs = obs::training().snapshot();
  ASSERT_EQ(epochs.size(), 3u);
  EXPECT_DOUBLE_EQ(epochs[0].learning_rate, config.learning_rate);
  EXPECT_DOUBLE_EQ(epochs[1].learning_rate, config.learning_rate * 0.3);
  EXPECT_DOUBLE_EQ(epochs[2].learning_rate, config.learning_rate * 0.09);

  obs::training().clear();
  obs::set_enabled(was_enabled);
}

// The clamp only rescues tiny budgets: at epochs=5 the integer breakpoints
// (3 and 4) are already >= 1 and must be left exactly as before.
TEST(Trainer, LargerBudgetBreakpointsUnchanged) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::training().clear();

  M2AINetwork net(small_model(), FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  TrainConfig config = plain_train(/*batch_size=*/2, /*epochs=*/5);
  config.lr_schedule = true;
  Trainer trainer(net, config);
  trainer.fit({make_sample(0, 27), make_sample(1, 28)});

  // epochs=5: 60% -> 3, 85% -> 4 (no clamping involved).
  const auto epochs = obs::training().snapshot();
  ASSERT_EQ(epochs.size(), 5u);
  EXPECT_DOUBLE_EQ(epochs[2].learning_rate, config.learning_rate);
  EXPECT_DOUBLE_EQ(epochs[3].learning_rate, config.learning_rate * 0.3);
  EXPECT_DOUBLE_EQ(epochs[4].learning_rate, config.learning_rate * 0.09);

  obs::training().clear();
  obs::set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Data-parallel determinism: the replica-sharded trainer must produce the
// SAME bytes as the serial path at any thread count.

// RAII thread-count override so a failing test cannot leak its setting.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) : saved_(par::num_threads()) {
    par::set_num_threads(n);
  }
  ~ScopedThreads() { par::set_num_threads(saved_); }

 private:
  int saved_;
};

Sample make_sample_frames(int label, int t_len, std::uint64_t seed) {
  util::Rng rng(seed);
  Sample sample;
  sample.label = label;
  for (int t = 0; t < t_len; ++t) {
    SpectrumFrame f;
    f.has_pseudo = true;
    f.has_aux = true;
    f.pseudo = nn::Tensor({kTags, 180});
    f.pseudo.randomize_uniform(rng, 0.0f, 1.0f);
    f.aux = nn::Tensor({kTags, kAntennas});
    f.aux.randomize_uniform(rng, 0.0f, 1.0f);
    sample.frames.push_back(std::move(f));
  }
  return sample;
}

// Mixed-length set so the random-crop branch fires for some samples (8
// frames > crop) and not others (4 frames), exercising the crop RNG's
// draw-order invariance.
std::vector<Sample> mixed_training_set() {
  std::vector<Sample> train;
  for (int i = 0; i < 10; ++i) {
    train.push_back(make_sample_frames(i % kClasses, i % 3 == 0 ? 4 : 8,
                                       1000 + static_cast<std::uint64_t>(i)));
  }
  return train;
}

std::vector<unsigned char> param_bytes(M2AINetwork& network) {
  std::vector<unsigned char> bytes;
  for (const nn::Param* p : network.params()) {
    const auto* raw = reinterpret_cast<const unsigned char*>(p->value.data());
    bytes.insert(bytes.end(), raw, raw + p->value.size() * sizeof(float));
  }
  return bytes;
}

// One full fit() at the given thread count; dropout > 0 and crop_frames > 0
// so both per-sample RNG streams are exercised. Returns the checkpoint
// bytes and the telemetry records.
std::pair<std::vector<unsigned char>, std::vector<obs::EpochRecord>> train_at(
    int threads) {
  ScopedThreads t(threads);
  obs::training().clear();
  ModelConfig model = small_model();
  model.dropout = 0.25;  // stochastic path must also be thread-count-invariant
  M2AINetwork net(model, FeatureMode::kM2AI, kTags, kAntennas, kClasses);
  TrainConfig config = plain_train(/*batch_size=*/4, /*epochs=*/3);
  config.crop_frames = 6;
  config.lr_schedule = true;
  Trainer trainer(net, config);
  trainer.fit(mixed_training_set());
  return {param_bytes(net), obs::training().snapshot()};
}

TEST(TrainerParallel, CheckpointBitwiseIdenticalAcrossThreadCounts) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto serial = train_at(1);
  const auto parallel = train_at(4);
  ASSERT_EQ(serial.first.size(), parallel.first.size());
  EXPECT_EQ(0, std::memcmp(serial.first.data(), parallel.first.data(),
                           serial.first.size()))
      << "trained checkpoints differ between --threads 1 and --threads 4";
  obs::training().clear();
  obs::set_enabled(was_enabled);
}

TEST(TrainerParallel, EpochTelemetryIdenticalAcrossThreadCounts) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto serial = train_at(1);
  const auto parallel = train_at(4);
  ASSERT_EQ(serial.second.size(), parallel.second.size());
  for (std::size_t e = 0; e < serial.second.size(); ++e) {
    const obs::EpochRecord& a = serial.second[e];
    const obs::EpochRecord& b = parallel.second[e];
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.loss, b.loss) << "epoch " << e;  // bitwise, not approximately
    EXPECT_EQ(a.train_accuracy, b.train_accuracy) << "epoch " << e;
    EXPECT_EQ(a.grad_norm, b.grad_norm) << "epoch " << e;
    EXPECT_EQ(a.learning_rate, b.learning_rate) << "epoch " << e;
  }
  // The parallelism fields are the one legitimate difference: the 4-thread
  // run must report the wider replica fan-out (batch_size 4 -> 4 replicas).
  EXPECT_EQ(serial.second.front().replicas, 1);
  EXPECT_EQ(parallel.second.front().replicas, 4);
  obs::training().clear();
  obs::set_enabled(was_enabled);
}

TEST(TrainerParallel, ReplicaBusySecondsRecorded) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto run = train_at(2);
  for (const obs::EpochRecord& e : run.second) {
    EXPECT_GT(e.replica_busy_seconds, 0.0);
  }
  obs::training().clear();
  obs::set_enabled(was_enabled);
}

// The trainer's unit of work, train_step + clip + optimizer step, run over a
// mixed-length set with dropout reseeded per sample: the sequence-batched
// network and the per-frame loop it replaced (tests/per_frame_network.hpp)
// must reach the same weights bit for bit, under Adam and under SGD.
TEST(TrainerGolden, SequenceBatchedStepsMatchPerFrameRestatementBitwise) {
  for (const bool adam : {true, false}) {
    ModelConfig model = small_model();
    model.dropout = 0.25;
    M2AINetwork net(model, FeatureMode::kM2AI, kTags, kAntennas, kClasses);
    testing::PerFrameNetwork ref(net, FeatureMode::kM2AI, kTags, kAntennas, kClasses,
                                 util::Rng(1));
    std::unique_ptr<nn::Optimizer> opt_net, opt_ref;
    if (adam) {
      opt_net = std::make_unique<nn::Adam>(3e-3);
      opt_ref = std::make_unique<nn::Adam>(3e-3);
    } else {
      opt_net = std::make_unique<nn::Sgd>(0.05, 0.9);
      opt_ref = std::make_unique<nn::Sgd>(0.05, 0.9);
    }
    std::vector<Sample> train = mixed_training_set();
    train.push_back(make_sample_frames(1, 1, 999));  // a one-frame sequence
    std::uint64_t seed = 500;
    for (int epoch = 0; epoch < 2; ++epoch) {
      for (const Sample& s : train) {
        net.reseed_dropout(util::Rng(seed));
        ref.reseed_dropout(util::Rng(seed));
        ++seed;
        const auto got = net.train_step(s);
        const auto want = ref.train_step(s);
        ASSERT_EQ(got.loss, want.loss) << "sample seed " << seed;
        EXPECT_EQ(nn::clip_gradient_norm(net.params(), 5.0),
                  nn::clip_gradient_norm(ref.params(), 5.0));
        opt_net->step(net.params());
        opt_ref->step(ref.params());
      }
    }
    const std::vector<nn::Param*> a = net.params();
    const std::vector<nn::Param*> b = ref.params();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t p = 0; p < a.size(); ++p) {
      EXPECT_EQ(0, std::memcmp(a[p]->value.data(), b[p]->value.data(),
                               a[p]->value.size() * sizeof(float)))
          << (adam ? "adam" : "sgd") << " param " << p << " (" << a[p]->name << ")";
    }
  }
}

// Pins the trained weights of a tiny fit across commits, once under Adam and
// once under SGD: the backward passes, gradient clipping and the optimizer
// steps must keep every element's sum order, and any reorder changes the
// hash. The LSTM gates and the softmax use the repo's own exp, sigmoid and
// tanh (nn/math.hpp), but unlike test_model's forward hash this one still
// depends on the host libm through Rng::normal's log, sin and cos (the
// weight init) and Adam's std::pow bias correction; the loss's std::log is
// reported but reaches no weight. It was taken with glibc 2.36 on x86-64.
TEST(TrainerGolden, TinyFitWeightsMatchPinnedHash) {
  ScopedThreads t(2);
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 over the float bits
  for (const bool adam : {true, false}) {
    ModelConfig model = small_model();
    model.dropout = 0.25;
    M2AINetwork net(model, FeatureMode::kM2AI, kTags, kAntennas, kClasses);
    TrainConfig config = plain_train(/*batch_size=*/4, /*epochs=*/2);
    config.crop_frames = 6;
    config.lr_schedule = true;
    config.use_adam = adam;
    Trainer trainer(net, config);
    trainer.fit(mixed_training_set());
    for (const unsigned char b : param_bytes(net)) h = (h ^ b) * 1099511628211ull;
  }
  EXPECT_EQ(h, 0xc2d157f1761051e9ull) << std::hex << h;
}

}  // namespace
}  // namespace m2ai::core
