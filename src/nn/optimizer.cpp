#include "nn/optimizer.hpp"

#include <cmath>

namespace m2ai::nn {

double clip_gradient_norm(const std::vector<Param*>& params, double max_norm) {
  double total = 0.0;
  for (const Param* p : params) {
    const double n = p->grad.l2_norm();
    total += n * n;
  }
  total = std::sqrt(total);
  if (total > max_norm && total > 0.0) {
    const float scale = static_cast<float>(max_norm / total);
    for (Param* p : params) p->grad.scale(scale);
  }
  return total;
}

void zero_gradients(const std::vector<Param*>& params) {
  for (Param* p : params) p->grad.zero();
}

namespace {
// The optimizer state tensor of `p`, zero-initialized on first use. Looking
// up before constructing keeps the steady state free of throwaway Tensors
// (try_emplace would build its argument on every call).
Tensor& state_for(std::map<Param*, Tensor>& state, Param* p) {
  auto it = state.find(p);
  if (it == state.end()) it = state.emplace(p, Tensor(p->value.shape())).first;
  return it->second;
}
}  // namespace

void Sgd::step(const std::vector<Param*>& params) {
  for (Param* p : params) {
    Tensor& vel = state_for(velocity_, p);
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      float g = p->grad[i] + static_cast<float>(weight_decay_) * p->value[i];
      vel[i] = static_cast<float>(momentum_) * vel[i] - static_cast<float>(lr_) * g;
      p->value[i] += vel[i];
    }
    p->grad.zero();
  }
}

void Adam::step(const std::vector<Param*>& params) {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (Param* p : params) {
    Tensor& m = state_for(m_, p);
    Tensor& v = state_for(v_, p);
    // Vectorizes: this file is built with -fno-math-errno (src/CMakeLists.txt),
    // which drops std::sqrt's errno branch. vh is never negative, so the
    // correctly rounded square root is the same either way.
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const double g = p->grad[i] + weight_decay_ * p->value[i];
      m[i] = static_cast<float>(beta1_ * m[i] + (1.0 - beta1_) * g);
      v[i] = static_cast<float>(beta2_ * v[i] + (1.0 - beta2_) * g * g);
      const double mh = m[i] / bc1;
      const double vh = v[i] / bc2;
      p->value[i] -= static_cast<float>(lr_ * mh / (std::sqrt(vh) + eps_));
    }
    p->grad.zero();
  }
}

}  // namespace m2ai::nn
