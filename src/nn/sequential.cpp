#include "nn/sequential.hpp"

#include "obs/trace.hpp"

namespace m2ai::nn {

Sequential& Sequential::set_trace_label(std::string label) {
  trace_label_ = std::move(label);
  trace_label_bwd_ = trace_label_.empty() ? "" : trace_label_ + "_bwd";
  return *this;
}

Tensor Sequential::forward(const Tensor& input, bool train) {
  obs::ScopedSpan span(trace_label_.empty() ? nullptr : trace_label_.c_str());
  if (layers_.empty()) return input;
  Tensor x = layers_.front()->forward(input, train);
  for (std::size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->forward(x, train);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  obs::ScopedSpan span(trace_label_bwd_.empty() ? nullptr
                                                : trace_label_bwd_.c_str());
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

}  // namespace m2ai::nn
