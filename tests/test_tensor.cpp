#include "nn/tensor.hpp"

#include <gtest/gtest.h>

namespace m2ai::nn {
namespace {

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.shape_string(), "[2x3x4]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({5, 5});
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, RowMajorIndexing) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  Tensor u({2, 2, 2});
  u.at(1, 0, 1) = 3.0f;
  EXPECT_EQ(u[5], 3.0f);
}

TEST(Tensor, RejectsBadShape) {
  EXPECT_THROW(Tensor({0}), std::invalid_argument);
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, FromVector) {
  Tensor t = Tensor::from({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.rank(), 1);
  EXPECT_EQ(t.at(2), 3.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from({1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({2, 3});
  EXPECT_EQ(r.at(1, 0), 4.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, FlattenedIsRankOne) {
  Tensor t({3, 4});
  t.at(2, 1) = 9.0f;
  Tensor f = t.flattened();
  EXPECT_EQ(f.rank(), 1);
  EXPECT_EQ(f.at(9), 9.0f);
}

TEST(Tensor, AddScaledAndScale) {
  Tensor a = Tensor::from({1, 2, 3});
  Tensor b = Tensor::from({10, 20, 30});
  a.add_scaled(b, 0.1f);
  EXPECT_FLOAT_EQ(a.at(0), 2.0f);
  a.scale(2.0f);
  EXPECT_FLOAT_EQ(a.at(2), 12.0f);
  Tensor c({2});
  EXPECT_THROW(a.add_scaled(c, 1.0f), std::invalid_argument);
}

TEST(Tensor, Norms) {
  Tensor t = Tensor::from({3, -4});
  EXPECT_FLOAT_EQ(t.l2_norm(), 5.0f);
  EXPECT_FLOAT_EQ(t.max_abs(), 4.0f);
  EXPECT_FLOAT_EQ(t.sum(), -1.0f);
}

TEST(Tensor, RandomizeNormalStatistics) {
  util::Rng rng(3);
  Tensor t({10000});
  t.randomize_normal(rng, 2.0f);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sum2 += static_cast<double>(t[i]) * t[i];
  }
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.1);
  EXPECT_NEAR(sum2 / 10000.0, 4.0, 0.3);
}

TEST(Tensor, Concat) {
  Tensor a = Tensor::from({1, 2});
  Tensor b = Tensor::from({3, 4, 5});
  Tensor c = concat(a, b);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.at(4), 5.0f);
}

TEST(Tensor, StackFramesIsFrameMinorAndFrameOfInvertsIt) {
  Tensor a({2, 3});
  Tensor b({2, 3});
  for (int i = 0; i < 6; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<float>(i);
    b[static_cast<std::size_t>(i)] = static_cast<float>(10 + i);
  }
  const Tensor batch = stack_frames({&a, &b});
  EXPECT_EQ(batch.shape(), (std::vector<int>{2, 3, 2}));
  EXPECT_EQ(batch.at(1, 2, 0), 5.0f);  // element (1, 2) of frame 0
  EXPECT_EQ(batch.at(1, 2, 1), 15.0f);
  EXPECT_EQ(batch[1], 10.0f);  // frames are innermost
  for (int f = 0; f < 2; ++f) {
    const Tensor& want = f == 0 ? a : b;
    const Tensor got = frame_of(batch, f);
    EXPECT_EQ(got.shape(), want.shape());
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  }
  const Tensor c({3, 2});
  EXPECT_THROW(stack_frames({&a, &c}), std::invalid_argument);
  EXPECT_THROW(stack_frames({}), std::invalid_argument);
  EXPECT_THROW(frame_of(batch, 2), std::out_of_range);
}

// stack_frames moves 8x8 blocks; frame counts and per-frame sizes below and
// around 8 and its multiples reach the overlapping last blocks and the
// one-value-at-a-time path.
TEST(Tensor, StackFramesMatchesElementwiseCopyAtBlockTails) {
  const std::vector<std::vector<int>> shapes = {{1}, {7}, {3, 5}, {2, 13}, {6, 180}};
  for (const int n : {1, 7, 8, 9, 20, 23}) {
    for (const auto& shape : shapes) {
      std::vector<Tensor> frames;
      std::vector<const Tensor*> ptrs;
      frames.reserve(static_cast<std::size_t>(n));
      for (int f = 0; f < n; ++f) {
        Tensor t(shape);
        for (std::size_t i = 0; i < t.size(); ++i) {
          t[i] = static_cast<float>(f) * 10000.0f + static_cast<float>(i);
        }
        frames.push_back(std::move(t));
        ptrs.push_back(&frames.back());
      }
      const Tensor batch = stack_frames(ptrs);
      std::vector<int> want_shape = shape;
      want_shape.push_back(n);
      ASSERT_EQ(batch.shape(), want_shape);
      const std::size_t size = frames[0].size();
      for (std::size_t i = 0; i < size; ++i) {
        for (int f = 0; f < n; ++f) {
          ASSERT_EQ(batch[i * static_cast<std::size_t>(n) + static_cast<std::size_t>(f)],
                    frames[static_cast<std::size_t>(f)][i])
              << "n=" << n << " " << frames[0].shape_string() << " at " << i << ", frame " << f;
        }
      }
    }
  }
}

}  // namespace
}  // namespace m2ai::nn
