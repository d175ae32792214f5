#include "nn/softmax.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/math.hpp"

namespace m2ai::nn {

Tensor softmax(const Tensor& logits) {
  Tensor p = logits.flattened();
  float* d = p.data();
  const std::size_t n = p.size();
  float mx = d[0];
  for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, d[i]);
  for (std::size_t i = 0; i < n; ++i) d[i] -= mx;
  math::exp(d, d, static_cast<int>(n));
  double z = 0.0;
  for (std::size_t i = 0; i < n; ++i) z += d[i];
  const float inv = static_cast<float>(1.0 / z);
  for (std::size_t i = 0; i < n; ++i) d[i] *= inv;
  return p;
}

LossAndGrad softmax_cross_entropy(const Tensor& logits, int label) {
  if (label < 0 || static_cast<std::size_t>(label) >= logits.size()) {
    throw std::out_of_range("softmax_cross_entropy: bad label");
  }
  LossAndGrad out;
  Tensor p = softmax(logits);
  out.loss = -std::log(std::max(1e-12, static_cast<double>(p[static_cast<std::size_t>(label)])));
  out.predicted = 0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    if (p[i] > p[static_cast<std::size_t>(out.predicted)]) {
      out.predicted = static_cast<int>(i);
    }
  }
  p[static_cast<std::size_t>(label)] -= 1.0f;
  out.grad_logits = std::move(p);
  return out;
}

}  // namespace m2ai::nn
