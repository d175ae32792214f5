#include "nn/tensor.hpp"

#include <cmath>
#include <numeric>
#include <sstream>

#include "kern/kernels.hpp"

namespace m2ai::nn {

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape)) {
  std::size_t total = 1;
  for (int d : shape_) {
    if (d <= 0) throw std::invalid_argument("Tensor: non-positive dimension");
    total *= static_cast<std::size_t>(d);
  }
  data_.assign(total, 0.0f);
}

Tensor Tensor::from(std::vector<float> values) {
  Tensor t({static_cast<int>(values.size())});
  t.data_ = std::move(values);
  return t;
}

std::size_t Tensor::index1(int i) const {
#ifndef NDEBUG
  if (rank() != 1 || i < 0 || i >= shape_[0]) throw std::out_of_range("Tensor::at(i)");
#endif
  return static_cast<std::size_t>(i);
}

std::size_t Tensor::index2(int i, int j) const {
#ifndef NDEBUG
  if (rank() != 2 || i < 0 || i >= shape_[0] || j < 0 || j >= shape_[1]) {
    throw std::out_of_range("Tensor::at(i,j)");
  }
#endif
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(shape_[1]) +
         static_cast<std::size_t>(j);
}

std::size_t Tensor::index3(int i, int j, int k) const {
#ifndef NDEBUG
  if (rank() != 3 || i < 0 || i >= shape_[0] || j < 0 || j >= shape_[1] || k < 0 ||
      k >= shape_[2]) {
    throw std::out_of_range("Tensor::at(i,j,k)");
  }
#endif
  return (static_cast<std::size_t>(i) * static_cast<std::size_t>(shape_[1]) +
          static_cast<std::size_t>(j)) *
             static_cast<std::size_t>(shape_[2]) +
         static_cast<std::size_t>(k);
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor Tensor::reshaped(std::vector<int> shape) const {
  Tensor out(std::move(shape));
  if (out.size() != size()) throw std::invalid_argument("Tensor::reshaped: size mismatch");
  out.data_ = data_;
  return out;
}

Tensor Tensor::flattened() const {
  return reshaped({static_cast<int>(size())});
}

void Tensor::add_scaled(const Tensor& other, float scale) {
  if (other.size() != size()) throw std::invalid_argument("Tensor::add_scaled: size mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Tensor::scale(float s) {
  for (float& v : data_) v *= s;
}

float Tensor::l2_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

float Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::abs(v));
  return m;
}

void Tensor::randomize_normal(util::Rng& rng, float stddev) {
  for (float& v : data_) v = static_cast<float>(rng.normal(0.0, stddev));
}

void Tensor::randomize_uniform(util::Rng& rng, float lo, float hi) {
  for (float& v : data_) v = static_cast<float>(rng.uniform(lo, hi));
}

std::string Tensor::shape_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) out << 'x';
    out << shape_[i];
  }
  out << ']';
  return out.str();
}

Tensor concat(const Tensor& a, const Tensor& b) {
  Tensor out({static_cast<int>(a.size() + b.size())});
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) out[a.size() + i] = b[i];
  return out;
}

Tensor stack_frames(const std::vector<const Tensor*>& frames) {
  if (frames.empty()) throw std::invalid_argument("stack_frames: no frames");
  std::vector<int> shape = frames[0]->shape();
  shape.push_back(static_cast<int>(frames.size()));
  Tensor out(std::move(shape));
  const std::size_t n = frames.size();
  std::vector<const float*> src(n);
  for (std::size_t f = 0; f < n; ++f) {
    if (!frames[f]->same_shape(*frames[0])) {
      throw std::invalid_argument("stack_frames: frame " + std::to_string(f) + " is " +
                                  frames[f]->shape_string() + ", frame 0 " +
                                  frames[0]->shape_string());
    }
    src[f] = frames[f]->data();
  }
  // Frame f's values become column f: a transpose of the [n, size] frame
  // rows, 8x8 blocks at a time.
  kern::transpose_rows([&src](int f) { return src[static_cast<std::size_t>(f)]; },
                       static_cast<int>(n), static_cast<int>(frames[0]->size()), out.data());
  return out;
}

Tensor frame_of(const Tensor& batch, int f) {
  const int n = batch.rank() > 0 ? batch.dim(batch.rank() - 1) : 0;
  if (f < 0 || f >= n) {
    throw std::out_of_range("frame_of: frame " + std::to_string(f) + " of " +
                            batch.shape_string());
  }
  std::vector<int> shape(batch.shape().begin(), batch.shape().end() - 1);
  if (shape.empty()) shape.push_back(1);
  Tensor out(std::move(shape));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = batch[i * static_cast<std::size_t>(n) + static_cast<std::size_t>(f)];
  }
  return out;
}

}  // namespace m2ai::nn
