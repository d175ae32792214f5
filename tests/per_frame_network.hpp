// The pre-batching M2AINetwork, restated for the bitwise tests: the CNN
// branches and the merge run once per frame (t ascending), the head once per
// step, and a training backward pops every per-frame cache LIFO
// (t descending), discarding each branch's input gradient. Every layer is
// called one frame at a time, so this is the reference that
// M2AINetwork::train_step's and predict_proba's frame-minor batches must
// reproduce bit for bit.
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/model.hpp"
#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dropout.hpp"
#include "nn/softmax.hpp"

namespace m2ai::core::testing {

class PerFrameNetwork {
 public:
  // Mirrors `net`'s layers and copies its current weights. The merge dropout
  // draws from dropout_base.fork(), as net.reseed_dropout(dropout_base)
  // makes the network's own dropout do.
  PerFrameNetwork(M2AINetwork& net, FeatureMode mode, int tags, int antennas,
                  int classes, util::Rng dropout_base)
      : model_(net.model_config()), classes_(classes) {
    use_pseudo_ = mode == FeatureMode::kM2AI || mode == FeatureMode::kMusicOnly;
    use_aux_ = mode != FeatureMode::kMusicOnly;
    util::Rng init(1);  // every weight is overwritten from `net` below
    int flat = 0;
    if (model_.arch != NetworkArch::kLstmOnly) {
      if (use_pseudo_) {
        pseudo_.emplace<nn::Conv1d>(tags, 8, 7, 2, 3, init);
        pseudo_.emplace<nn::ReLU>();
        pseudo_.emplace<nn::Conv1d>(8, 12, 5, 3, 1, init);
        pseudo_.emplace<nn::ReLU>();
        pseudo_.emplace<nn::Conv1d>(12, 16, 5, 5, 0, init);
        pseudo_.emplace<nn::ReLU>();
        pseudo_shape_ = pseudo_.forward(nn::Tensor({tags, 180}), false).shape();
        flat += pseudo_shape_[0] * pseudo_shape_[1];
      }
      if (use_aux_) {
        aux_.emplace<nn::Conv1d>(tags, 8, std::min(2, antennas), 1, 0, init);
        aux_.emplace<nn::ReLU>();
        aux_shape_ = aux_.forward(nn::Tensor({tags, antennas}), false).shape();
        flat += aux_shape_[0] * aux_shape_[1];
      }
      merge_.emplace<nn::Dense>(flat, model_.merge_features, init);
      merge_.emplace<nn::ReLU>();
      if (model_.dropout > 0.0) merge_.emplace<nn::Dropout>(model_.dropout, dropout_base.fork());
    }
    int lstm_input = model_.merge_features;
    if (model_.arch == NetworkArch::kLstmOnly) {
      lstm_input = (use_pseudo_ ? tags * 180 : 0) + (use_aux_ ? tags * antennas : 0);
    }
    if (model_.arch != NetworkArch::kCnnOnly) {
      lstm1_ = std::make_unique<nn::Lstm>(lstm_input, model_.lstm_hidden, init);
      lstm2_ = std::make_unique<nn::Lstm>(model_.lstm_hidden, model_.lstm_hidden, init);
    }
    head_ = std::make_unique<nn::Dense>(
        model_.arch == NetworkArch::kCnnOnly ? model_.merge_features : model_.lstm_hidden,
        classes, init);
    const std::vector<nn::Param*> src = net.params();
    const std::vector<nn::Param*> dst = params();
    if (src.size() != dst.size()) throw std::logic_error("PerFrameNetwork: layer mismatch");
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i]->value = src[i]->value;
      dst[i]->grad = src[i]->grad;
    }
  }

  std::vector<nn::Param*> params() {
    std::vector<nn::Param*> out;
    for (nn::Sequential* s : {&pseudo_, &aux_, &merge_}) {
      for (nn::Param* p : s->params()) out.push_back(p);
    }
    for (nn::Lstm* l : {lstm1_.get(), lstm2_.get()}) {
      if (l == nullptr) continue;
      for (nn::Param* p : l->params()) out.push_back(p);
    }
    for (nn::Param* p : head_->params()) out.push_back(p);
    return out;
  }

  // As M2AINetwork::reseed_dropout: the merge dropout forks from `base`.
  void reseed_dropout(util::Rng base) {
    for (nn::Sequential* s : {&pseudo_, &aux_, &merge_}) s->reseed(base);
  }

  // Normalized per-class sums of the per-step softmax, t ascending.
  std::vector<double> predict_proba(const FrameSequence& frames) {
    std::vector<nn::Tensor> states;
    for (const SpectrumFrame& frame : frames) states.push_back(frame_input(frame, false));
    if (model_.arch != NetworkArch::kCnnOnly) {
      states = lstm2_->forward(lstm1_->forward(states, false), false);
    }
    std::vector<double> prob_sum(static_cast<std::size_t>(classes_), 0.0);
    for (const nn::Tensor& s : states) {
      const nn::Tensor probs = nn::softmax(head_->forward(s, false));
      for (int c = 0; c < classes_; ++c) {
        prob_sum[static_cast<std::size_t>(c)] += probs[static_cast<std::size_t>(c)];
      }
    }
    double total = 0.0;
    for (double p : prob_sum) total += p;
    if (total > 0.0) {
      for (double& p : prob_sum) p /= total;
    }
    return prob_sum;
  }

  M2AINetwork::StepResult train_step(const Sample& sample) {
    const std::size_t t_len = sample.frames.size();
    std::vector<nn::Tensor> states;
    for (const SpectrumFrame& frame : sample.frames) states.push_back(frame_input(frame, true));
    if (model_.arch != NetworkArch::kCnnOnly) {
      states = lstm2_->forward(lstm1_->forward(states, true), true);
    }
    M2AINetwork::StepResult result;
    std::vector<double> prob_sum(static_cast<std::size_t>(classes_), 0.0);
    std::vector<nn::Tensor> grad_logits(t_len);
    const float inv_t = 1.0f / static_cast<float>(t_len);
    for (std::size_t t = 0; t < t_len; ++t) {
      const nn::Tensor logits = head_->forward(states[t], true);
      auto lag = nn::softmax_cross_entropy(logits, sample.label);
      result.loss += lag.loss / static_cast<double>(t_len);
      const nn::Tensor probs = nn::softmax(logits);
      for (int c = 0; c < classes_; ++c) {
        prob_sum[static_cast<std::size_t>(c)] += probs[static_cast<std::size_t>(c)];
      }
      lag.grad_logits.scale(inv_t);
      grad_logits[t] = std::move(lag.grad_logits);
    }
    result.predicted = M2AINetwork::argmax_class(prob_sum);

    std::vector<nn::Tensor> grad_states(t_len);
    for (std::size_t t = t_len; t-- > 0;) grad_states[t] = head_->backward(grad_logits[t]);
    if (model_.arch != NetworkArch::kCnnOnly) {
      grad_states = lstm1_->backward(lstm2_->backward(grad_states));
    }
    if (model_.arch != NetworkArch::kLstmOnly) {
      for (std::size_t t = t_len; t-- > 0;) frame_backward(grad_states[t]);
    }
    return result;
  }

 private:
  nn::Tensor frame_input(const SpectrumFrame& frame, bool train) {
    nn::Tensor joined;
    if (model_.arch == NetworkArch::kLstmOnly) {
      if (use_pseudo_) joined = frame.pseudo.flattened();
      if (use_aux_) {
        joined = use_pseudo_ ? nn::concat(joined, frame.aux.flattened()) : frame.aux.flattened();
      }
      return joined;
    }
    if (use_pseudo_) joined = pseudo_.forward(frame.pseudo, train).flattened();
    if (use_aux_) {
      const nn::Tensor b = aux_.forward(frame.aux, train).flattened();
      joined = use_pseudo_ ? nn::concat(joined, b) : b;
    }
    return merge_.forward(joined, train);
  }

  void frame_backward(const nn::Tensor& grad) {
    const nn::Tensor joined = merge_.backward(grad);
    nn::Tensor gp, ga;
    std::size_t offset = 0;
    if (use_pseudo_) {
      gp = nn::Tensor(pseudo_shape_);
      for (std::size_t i = 0; i < gp.size(); ++i) gp[i] = joined[i];
      offset = gp.size();
    }
    if (use_aux_) {
      ga = nn::Tensor(aux_shape_);
      for (std::size_t i = 0; i < ga.size(); ++i) ga[i] = joined[offset + i];
      aux_.backward(ga);  // pushed last, popped first
    }
    if (use_pseudo_) pseudo_.backward(gp);
  }

  ModelConfig model_;
  int classes_;
  bool use_pseudo_ = false;
  bool use_aux_ = false;
  std::vector<int> pseudo_shape_, aux_shape_;
  nn::Sequential pseudo_, aux_, merge_;
  std::unique_ptr<nn::Lstm> lstm1_, lstm2_;
  std::unique_ptr<nn::Dense> head_;
};

}  // namespace m2ai::core::testing
