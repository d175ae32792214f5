// Inverted dropout: active only when train=true; inference is a no-op.
//
// A rank-2 [N, B] input is a frame-minor batch (a Dense layer's batch
// output): the masks are drawn frame by frame, frame 0's N elements first,
// so the batch draws exactly what B single-frame calls would. Any other
// shape is one frame, drawn in element order.
#pragma once

#include <deque>

#include "nn/layer.hpp"

namespace m2ai::nn {

class Dropout : public Layer {
 public:
  Dropout(double rate, util::Rng rng) : rate_(rate), rng_(rng) {}

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void clear_cache() override { cache_.clear(); }
  void reseed(util::Rng& base) override { rng_ = base.fork(); }
  std::string name() const override { return "Dropout"; }

 private:
  double rate_;
  util::Rng rng_;
  std::deque<std::vector<float>> cache_;  // per-element keep scale
};

}  // namespace m2ai::nn
