// Dense float tensor (row-major) — the data type of the learning engine.
// Rank is dynamic but small (1-3 in practice: feature vectors, CxL frames,
// CoutxCinxK conv kernels).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace m2ai::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);
  Tensor(std::initializer_list<int> shape) : Tensor(std::vector<int>(shape)) {}

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  static Tensor from(std::vector<float> values);  // rank-1

  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const { return shape_.at(static_cast<std::size_t>(i)); }
  int rank() const { return static_cast<int>(shape_.size()); }
  std::size_t size() const { return data_.size(); }
  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  float& at(int i) { return data_[index1(i)]; }
  float at(int i) const { return data_[index1(i)]; }
  float& at(int i, int j) { return data_[index2(i, j)]; }
  float at(int i, int j) const { return data_[index2(i, j)]; }
  float& at(int i, int j, int k) { return data_[index3(i, j, k)]; }
  float at(int i, int j, int k) const { return data_[index3(i, j, k)]; }

  void fill(float v);
  void zero() { fill(0.0f); }

  // Reshape preserving data; total size must match.
  Tensor reshaped(std::vector<int> shape) const;
  // Flatten to rank-1.
  Tensor flattened() const;

  // Element-wise helpers used by the optimizers and tests.
  void add_scaled(const Tensor& other, float scale);  // this += scale * other
  void scale(float s);
  float l2_norm() const;
  float sum() const;
  float max_abs() const;

  // Gaussian init with the given std (He/Xavier scaling chosen by callers).
  void randomize_normal(util::Rng& rng, float stddev);
  void randomize_uniform(util::Rng& rng, float lo, float hi);

  std::string shape_string() const;

 private:
  std::size_t index1(int i) const;
  std::size_t index2(int i, int j) const;
  std::size_t index3(int i, int j, int k) const;

  std::vector<int> shape_;
  std::vector<float> data_;
};

// Concatenate rank-1 tensors.
Tensor concat(const Tensor& a, const Tensor& b);

// Frame-minor batches (DESIGN §6): a batch of n same-shape frames has the
// frame's shape plus a trailing axis of n, so element i of frame f sits at
// [i * n + f] and every row of the frame becomes n times longer.
// stack_frames builds one from its frames; frame_of copies frame f back out.
Tensor stack_frames(const std::vector<const Tensor*>& frames);
Tensor frame_of(const Tensor& batch, int f);

}  // namespace m2ai::nn
