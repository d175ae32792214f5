#include "core/model.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv1d.hpp"
#include "nn/dropout.hpp"
#include "obs/trace.hpp"

namespace m2ai::core {

namespace {
// Flattened size of a Sequential's output for a zero input of `shape`.
int probe_output_size(nn::Sequential& net, std::vector<int> shape,
                      std::vector<int>* out_shape) {
  nn::Tensor probe(std::move(shape));
  const nn::Tensor out = net.forward(probe, /*train=*/false);
  if (out_shape) *out_shape = out.shape();
  return static_cast<int>(out.size());
}
}  // namespace

M2AINetwork::M2AINetwork(const ModelConfig& model, FeatureMode mode, int num_tags,
                         int num_antennas, int num_classes)
    : model_(model),
      mode_(mode),
      num_tags_(num_tags),
      num_antennas_(num_antennas),
      num_classes_(num_classes) {
  use_pseudo_ = (mode == FeatureMode::kM2AI || mode == FeatureMode::kMusicOnly);
  use_aux_ = (mode != FeatureMode::kMusicOnly);

  util::Rng rng(model_.seed);

  if (model_.arch != NetworkArch::kLstmOnly) {
    if (use_pseudo_) {
      // CONV-E1/E2/E3 (Fig. 6): reduce the 180-bin angle axis ~180->30->6.
      pseudo_branch_ = std::make_unique<nn::Sequential>();
      // No layer reads a branch's input gradient, so its first conv skips it.
      pseudo_branch_->emplace<nn::Conv1d>(num_tags_, 8, 7, 2, 3, rng,
                                          nn::Conv1d::InputGrad::kSkip);
      pseudo_branch_->emplace<nn::ReLU>();
      pseudo_branch_->emplace<nn::Conv1d>(8, 12, 5, 3, 1, rng);
      pseudo_branch_->emplace<nn::ReLU>();
      pseudo_branch_->emplace<nn::Conv1d>(12, 16, 5, 5, 0, rng);
      pseudo_branch_->emplace<nn::ReLU>();
      pseudo_flat_ = probe_output_size(*pseudo_branch_, {num_tags_, rf::kNumAngleBins},
                                       &pseudo_out_shape_);
      pseudo_branch_->set_trace_label("cnn_pseudo");
    }
    if (use_aux_) {
      // CONV-F (Fig. 6) over the short antenna axis.
      aux_branch_ = std::make_unique<nn::Sequential>();
      const int kernel = std::min(2, num_antennas_);
      aux_branch_->emplace<nn::Conv1d>(num_tags_, 8, kernel, 1, 0, rng,
                                       nn::Conv1d::InputGrad::kSkip);
      aux_branch_->emplace<nn::ReLU>();
      aux_flat_ = probe_output_size(*aux_branch_, {num_tags_, num_antennas_},
                                    &aux_out_shape_);
      aux_branch_->set_trace_label("cnn_aux");
    }
    merge_ = std::make_unique<nn::Sequential>();
    merge_->emplace<nn::Dense>(pseudo_flat_ + aux_flat_, model_.merge_features, rng);
    merge_->emplace<nn::ReLU>();
    if (model_.dropout > 0.0) {
      merge_->emplace<nn::Dropout>(model_.dropout, rng.fork());
    }
    merge_->set_trace_label("cnn_merge");
  }

  int lstm_input = 0;
  switch (model_.arch) {
    case NetworkArch::kCnnLstm:
      lstm_input = model_.merge_features;
      break;
    case NetworkArch::kLstmOnly:
      lstm_input = (use_pseudo_ ? num_tags_ * rf::kNumAngleBins : 0) +
                   (use_aux_ ? num_tags_ * num_antennas_ : 0);
      break;
    case NetworkArch::kCnnOnly:
      break;  // no LSTM
  }
  if (model_.arch != NetworkArch::kCnnOnly) {
    lstm1_ = std::make_unique<nn::Lstm>(lstm_input, model_.lstm_hidden, rng);
    lstm2_ = std::make_unique<nn::Lstm>(model_.lstm_hidden, model_.lstm_hidden, rng);
  }

  const int head_input = (model_.arch == NetworkArch::kCnnOnly)
                             ? model_.merge_features
                             : model_.lstm_hidden;
  head_ = std::make_unique<nn::Dense>(head_input, num_classes_, rng);
}

nn::Tensor M2AINetwork::raw_features(const SpectrumFrame& frame) const {
  nn::Tensor out;
  bool first = true;
  if (use_pseudo_) {
    out = frame.pseudo.flattened();
    first = false;
  }
  if (use_aux_) {
    out = first ? frame.aux.flattened() : nn::concat(out, frame.aux.flattened());
  }
  return out;
}

nn::Tensor M2AINetwork::cnn_features(const SpectrumFrame* frames, std::size_t n,
                                      bool train) {
  // One frame runs as itself; n frames run as one frame-minor batch.
  const auto run_branch = [&](nn::Sequential& branch, nn::Tensor SpectrumFrame::*field) {
    if (n == 1) return branch.forward(frames[0].*field, train);
    std::vector<const nn::Tensor*> parts(n);
    for (std::size_t t = 0; t < n; ++t) parts[t] = &(frames[t].*field);
    return branch.forward(nn::stack_frames(parts), train);
  };
  nn::Tensor pseudo, aux;
  if (use_pseudo_) pseudo = run_branch(*pseudo_branch_, &SpectrumFrame::pseudo);
  if (use_aux_) aux = run_branch(*aux_branch_, &SpectrumFrame::aux);
  // Flattening each branch output and concatenating them is row stacking:
  // [C, L, n] is [C*L, n] in memory, so the merge input is the pseudo rows
  // followed by the aux rows.
  const int flat = pseudo_flat_ + aux_flat_;
  nn::Tensor joined(n == 1 ? std::vector<int>{flat}
                           : std::vector<int>{flat, static_cast<int>(n)});
  std::copy(pseudo.data(), pseudo.data() + pseudo.size(), joined.data());
  std::copy(aux.data(), aux.data() + aux.size(), joined.data() + pseudo.size());
  return merge_->forward(joined, train);
}

void M2AINetwork::cnn_backward(const nn::Tensor& grad_features, std::size_t n) {
  const nn::Tensor grad_joined = merge_->backward(grad_features);
  // Split the stacked rows back into the branch outputs; the first conv of
  // each branch computes no input gradient.
  const auto branch_grad = [&](const std::vector<int>& frame_shape, std::size_t offset) {
    std::vector<int> shape = frame_shape;
    if (n > 1) shape.push_back(static_cast<int>(n));
    nn::Tensor g(std::move(shape));
    std::copy(grad_joined.data() + offset, grad_joined.data() + offset + g.size(), g.data());
    return g;
  };
  if (use_aux_) {
    aux_branch_->backward(branch_grad(aux_out_shape_, static_cast<std::size_t>(pseudo_flat_) * n));
  }
  if (use_pseudo_) pseudo_branch_->backward(branch_grad(pseudo_out_shape_, 0));
}

std::vector<nn::Tensor> M2AINetwork::sequence_features(const FrameSequence& frames,
                                                       bool train) {
  std::vector<nn::Tensor> feats;
  if (frames.empty()) return feats;
  if (model_.arch == NetworkArch::kLstmOnly) {
    feats.reserve(frames.size());
    for (const SpectrumFrame& frame : frames) feats.push_back(raw_features(frame));
    return feats;
  }
  return unstack_steps(cnn_features(frames.data(), frames.size(), train), frames.size());
}

nn::Tensor M2AINetwork::frame_features(const SpectrumFrame& frame) {
  return model_.arch == NetworkArch::kLstmOnly ? raw_features(frame)
                                               : cnn_features(&frame, 1, /*train=*/false);
}

nn::Tensor M2AINetwork::stack_steps(const std::vector<nn::Tensor>& steps) {
  if (steps.size() == 1) return steps[0];
  std::vector<const nn::Tensor*> parts(steps.size());
  for (std::size_t t = 0; t < steps.size(); ++t) parts[t] = &steps[t];
  return nn::stack_frames(parts);
}

std::vector<nn::Tensor> M2AINetwork::unstack_steps(const nn::Tensor& batch, std::size_t n) {
  if (n == 1) return {batch};
  std::vector<nn::Tensor> steps;
  steps.reserve(n);
  for (std::size_t t = 0; t < n; ++t) steps.push_back(nn::frame_of(batch, static_cast<int>(t)));
  return steps;
}

M2AINetwork::StepResult M2AINetwork::train_step(const Sample& sample) {
  const std::size_t t_len = sample.frames.size();
  if (t_len == 0) throw std::invalid_argument("M2AINetwork: empty sample");
  clear_caches();

  std::vector<nn::Tensor> states;
  {
    M2AI_OBS_SPAN("nn_forward");
    states = sequence_features(sample.frames, /*train=*/true);
    if (model_.arch != NetworkArch::kCnnOnly) {
      states = lstm2_->forward(lstm1_->forward(states, /*train=*/true), /*train=*/true);
    }
  }

  // Softmax head over every step at once ([H, T] -> [C, T]); the loss is
  // averaged over steps, and the softmax and loss still run per step.
  const std::vector<nn::Tensor> logits =
      unstack_steps(head_->forward(stack_steps(states), /*train=*/true), t_len);
  StepResult result;
  std::vector<double> prob_sum(static_cast<std::size_t>(num_classes_), 0.0);
  const float inv_t = 1.0f / static_cast<float>(t_len);
  std::vector<nn::Tensor> grad_logits(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    auto lag = nn::softmax_cross_entropy(logits[t], sample.label);
    result.loss += lag.loss / static_cast<double>(t_len);
    const nn::Tensor probs = nn::softmax(logits[t]);
    for (int c = 0; c < num_classes_; ++c) {
      prob_sum[static_cast<std::size_t>(c)] += probs[static_cast<std::size_t>(c)];
    }
    lag.grad_logits.scale(inv_t);
    grad_logits[t] = std::move(lag.grad_logits);
  }
  result.predicted = argmax_class(prob_sum);

  M2AI_OBS_SPAN("nn_backward");
  std::vector<nn::Tensor> grad_feats =
      unstack_steps(head_->backward(stack_steps(grad_logits)), t_len);
  if (model_.arch != NetworkArch::kCnnOnly) {
    grad_feats = lstm1_->backward(lstm2_->backward(grad_feats));
  }
  if (model_.arch != NetworkArch::kLstmOnly) cnn_backward(stack_steps(grad_feats), t_len);
  return result;
}

int M2AINetwork::argmax_class(const std::vector<double>& probs) {
  int best = 0;
  for (std::size_t c = 1; c < probs.size(); ++c) {
    if (probs[c] > probs[static_cast<std::size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

int M2AINetwork::predict(const FrameSequence& frames) {
  return argmax_class(predict_proba(frames));
}

std::vector<double> M2AINetwork::predict_proba(const FrameSequence& frames) {
  return predict_proba_from_features(sequence_features(frames, /*train=*/false));
}

std::vector<int> M2AINetwork::predict_batch(
    const std::vector<const FrameSequence*>& batch) {
  std::vector<int> labels;
  labels.reserve(batch.size());
  for (const FrameSequence* frames : batch) {
    if (frames == nullptr) {
      throw std::invalid_argument("M2AINetwork::predict_batch: null sequence");
    }
    labels.push_back(predict(*frames));
  }
  return labels;
}

std::vector<double> M2AINetwork::predict_proba_from_features(
    const FeatureSequence& features) {
  M2AI_OBS_SPAN("nn_sequence");
  // CNN-only feeds the features to the head.
  FeatureSequence lstm_out;
  if (model_.arch != NetworkArch::kCnnOnly) {
    lstm_out = lstm2_->forward(lstm1_->forward(features, /*train=*/false), /*train=*/false);
  }
  const FeatureSequence& states = model_.arch == NetworkArch::kCnnOnly ? features : lstm_out;
  std::vector<double> prob_sum(static_cast<std::size_t>(num_classes_), 0.0);
  const std::size_t t_len = states.size();
  if (t_len > 0) {
    // The head runs once over the sequence ([H, T] -> [C, T]); softmax per
    // step, summed t ascending.
    const std::vector<nn::Tensor> logits =
        unstack_steps(head_->forward(stack_steps(states), /*train=*/false), t_len);
    for (const nn::Tensor& step_logits : logits) {
      const nn::Tensor probs = nn::softmax(step_logits);
      for (int c = 0; c < num_classes_; ++c) {
        prob_sum[static_cast<std::size_t>(c)] += probs[static_cast<std::size_t>(c)];
      }
    }
  }
  double total = 0.0;
  for (double p : prob_sum) total += p;
  if (total > 0.0) {
    for (double& p : prob_sum) p /= total;
  }
  return prob_sum;
}

std::vector<nn::Param*> M2AINetwork::params() {
  std::vector<nn::Param*> out;
  auto append = [&out](std::vector<nn::Param*> ps) {
    out.insert(out.end(), ps.begin(), ps.end());
  };
  if (pseudo_branch_) append(pseudo_branch_->params());
  if (aux_branch_) append(aux_branch_->params());
  if (merge_) append(merge_->params());
  if (lstm1_) append(lstm1_->params());
  if (lstm2_) append(lstm2_->params());
  append(head_->params());
  return out;
}

std::size_t M2AINetwork::num_parameters() {
  std::size_t n = 0;
  for (const nn::Param* p : params()) n += p->value.size();
  return n;
}

std::unique_ptr<M2AINetwork> M2AINetwork::clone() {
  auto copy = std::make_unique<M2AINetwork>(model_, mode_, num_tags_,
                                            num_antennas_, num_classes_);
  const std::vector<nn::Param*> src = params();
  const std::vector<nn::Param*> dst = copy->params();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i]->value = src[i]->value;
    dst[i]->grad = src[i]->grad;
  }
  return copy;
}

void M2AINetwork::reseed_dropout(util::Rng base) {
  if (pseudo_branch_) pseudo_branch_->reseed(base);
  if (aux_branch_) aux_branch_->reseed(base);
  if (merge_) merge_->reseed(base);
}

void M2AINetwork::clear_caches() {
  if (pseudo_branch_) pseudo_branch_->clear_cache();
  if (aux_branch_) aux_branch_->clear_cache();
  if (merge_) merge_->clear_cache();
  if (lstm1_) lstm1_->clear_cache();
  if (lstm2_) lstm2_->clear_cache();
  head_->clear_cache();
}

}  // namespace m2ai::core
