// A simple layer stack with the same LIFO cache discipline as Layer, so a
// Sequential can itself be applied once per time step with shared weights,
// or once to a frame-minor batch of time steps.
#pragma once

#include <memory>
#include <string>

#include "nn/layer.hpp"

namespace m2ai::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
    return *this;
  }

  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
    return *this;
  }

  // Names this stack in the trace-span output ("cnn_pseudo", ...). Forward
  // and backward record latency under "<label>" / "<label>_bwd" when
  // observability is on; unlabeled stacks are never traced.
  Sequential& set_trace_label(std::string label);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;

  std::vector<Param*> params() override {
    std::vector<Param*> out;
    for (auto& layer : layers_) {
      for (Param* p : layer->params()) out.push_back(p);
    }
    return out;
  }

  void clear_cache() override {
    for (auto& layer : layers_) layer->clear_cache();
  }

  // Forwarded in layer order, so every stochastic sublayer forks from `base`
  // at a fixed position in the stream.
  void reseed(util::Rng& base) override {
    for (auto& layer : layers_) layer->reseed(base);
  }

  std::string name() const override { return "Sequential"; }
  std::size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::string trace_label_;
  std::string trace_label_bwd_;
};

}  // namespace m2ai::nn
