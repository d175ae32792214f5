#include "core/model.hpp"

#include <map>
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
      pseudo_branch_->emplace<nn::Conv1d>(num_tags_, 8, 7, 2, 3, rng);
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
      aux_branch_->emplace<nn::Conv1d>(num_tags_, 8, kernel, 1, 0, rng);
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

nn::Tensor M2AINetwork::cnn_features(const SpectrumFrame& frame, bool train) {
  nn::Tensor joined;
  bool first = true;
  if (use_pseudo_) {
    joined = pseudo_branch_->forward(frame.pseudo, train).flattened();
    first = false;
  }
  if (use_aux_) {
    const nn::Tensor b = aux_branch_->forward(frame.aux, train).flattened();
    joined = first ? b : nn::concat(joined, b);
  }
  return merge_->forward(joined, train);
}

nn::Tensor M2AINetwork::frame_input(const SpectrumFrame& frame, bool train) {
  return model_.arch == NetworkArch::kLstmOnly ? raw_features(frame)
                                               : cnn_features(frame, train);
}

nn::Tensor M2AINetwork::frame_features(const SpectrumFrame& frame) {
  return frame_input(frame, /*train=*/false);
}

void M2AINetwork::frame_backward(const nn::Tensor& grad_features) {
  const nn::Tensor grad_joined = merge_->backward(grad_features);
  // Split the concatenated gradient back into branch outputs.
  if (use_pseudo_ && use_aux_) {
    nn::Tensor gp(pseudo_out_shape_);
    nn::Tensor ga(aux_out_shape_);
    for (std::size_t i = 0; i < gp.size(); ++i) gp[i] = grad_joined[i];
    for (std::size_t i = 0; i < ga.size(); ++i) ga[i] = grad_joined[gp.size() + i];
    // Pop caches in reverse push order: aux was pushed last.
    aux_branch_->backward(ga);
    pseudo_branch_->backward(gp);
  } else if (use_pseudo_) {
    pseudo_branch_->backward(grad_joined.reshaped(pseudo_out_shape_));
  } else {
    aux_branch_->backward(grad_joined.reshaped(aux_out_shape_));
  }
}

std::vector<nn::Tensor> M2AINetwork::forward_sequence(const FrameSequence& frames) {
  M2AI_OBS_SPAN("nn_forward");
  std::vector<nn::Tensor> feats;
  feats.reserve(frames.size());
  for (const SpectrumFrame& frame : frames) {
    feats.push_back(frame_input(frame, /*train=*/true));
  }
  if (model_.arch == NetworkArch::kCnnOnly) return feats;
  const std::vector<nn::Tensor> h1 = lstm1_->forward(feats, /*train=*/true);
  return lstm2_->forward(h1, /*train=*/true);
}

M2AINetwork::StepResult M2AINetwork::train_step(const Sample& sample) {
  const std::size_t t_len = sample.frames.size();
  if (t_len == 0) throw std::invalid_argument("M2AINetwork: empty sample");
  clear_caches();

  const std::vector<nn::Tensor> states = forward_sequence(sample.frames);

  // Per-frame softmax head; loss averaged over frames.
  StepResult result;
  std::vector<nn::Tensor> grad_states(t_len);
  std::vector<double> prob_sum(static_cast<std::size_t>(num_classes_), 0.0);
  const float inv_t = 1.0f / static_cast<float>(t_len);
  std::vector<nn::Tensor> grad_logits(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    const nn::Tensor logits = head_->forward(states[t], /*train=*/true);
    auto lag = nn::softmax_cross_entropy(logits, sample.label);
    result.loss += lag.loss / static_cast<double>(t_len);
    const nn::Tensor probs = nn::softmax(logits);
    for (int c = 0; c < num_classes_; ++c) {
      prob_sum[static_cast<std::size_t>(c)] += probs[static_cast<std::size_t>(c)];
    }
    lag.grad_logits.scale(inv_t);
    grad_logits[t] = std::move(lag.grad_logits);
  }
  result.predicted = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (prob_sum[static_cast<std::size_t>(c)] >
        prob_sum[static_cast<std::size_t>(result.predicted)]) {
      result.predicted = c;
    }
  }

  // Backward: head caches are LIFO, so walk t in reverse.
  M2AI_OBS_SPAN("nn_backward");
  for (std::size_t t = t_len; t-- > 0;) {
    grad_states[t] = head_->backward(grad_logits[t]);
  }

  std::vector<nn::Tensor> grad_feats;
  if (model_.arch == NetworkArch::kCnnOnly) {
    grad_feats = std::move(grad_states);
  } else {
    const std::vector<nn::Tensor> grad_h1 = lstm2_->backward(grad_states);
    grad_feats = lstm1_->backward(grad_h1);
  }

  if (model_.arch != NetworkArch::kLstmOnly) {
    for (std::size_t t = t_len; t-- > 0;) frame_backward(grad_feats[t]);
  }
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
  return predict_batch({&frames})[0];
}

std::vector<double> M2AINetwork::predict_proba(const FrameSequence& frames) {
  return predict_proba_batch({&frames})[0];
}

std::vector<int> M2AINetwork::predict_batch(
    const std::vector<const FrameSequence*>& batch) {
  const std::vector<std::vector<double>> probs = predict_proba_batch(batch);
  std::vector<int> labels(probs.size(), 0);
  for (std::size_t i = 0; i < probs.size(); ++i) labels[i] = argmax_class(probs[i]);
  return labels;
}

std::vector<std::vector<double>> M2AINetwork::predict_proba_batch(
    const std::vector<const FrameSequence*>& batch) {
  std::vector<FeatureSequence> features(batch.size());
  std::vector<const FeatureSequence*> ptrs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i] == nullptr) {
      throw std::invalid_argument("M2AINetwork::predict_batch: null sequence");
    }
    features[i].reserve(batch[i]->size());
    for (const SpectrumFrame& frame : *batch[i]) {
      features[i].push_back(frame_features(frame));
    }
    ptrs[i] = &features[i];
  }
  return predict_proba_from_features(ptrs);
}

std::vector<std::vector<double>> M2AINetwork::predict_proba_from_features(
    const std::vector<const FeatureSequence*>& batch) {
  M2AI_OBS_SPAN("nn_batch");
  const std::size_t n = batch.size();
  for (const FeatureSequence* seq : batch) {
    if (seq == nullptr) {
      throw std::invalid_argument(
          "M2AINetwork::predict_proba_from_features: null sequence");
    }
  }

  // LSTM outputs per sequence; CNN-only feeds the features to the head.
  std::vector<FeatureSequence> lstm_out;
  std::vector<const FeatureSequence*> states = batch;
  if (model_.arch != NetworkArch::kCnnOnly) {
    lstm_out.resize(n);
    // forward_batch needs equal-length sequences; serving batches are
    // usually uniform (fixed window), so grouping is normally one group.
    std::map<std::size_t, std::vector<std::size_t>> by_len;
    for (std::size_t i = 0; i < n; ++i) by_len[batch[i]->size()].push_back(i);
    for (const auto& group : by_len) {
      const std::vector<std::size_t>& idxs = group.second;
      std::vector<const FeatureSequence*> in1;
      in1.reserve(idxs.size());
      for (std::size_t i : idxs) in1.push_back(batch[i]);
      const std::vector<FeatureSequence> h1 = lstm1_->forward_batch(in1);
      std::vector<const FeatureSequence*> in2;
      in2.reserve(h1.size());
      for (const FeatureSequence& h : h1) in2.push_back(&h);
      std::vector<FeatureSequence> h2 = lstm2_->forward_batch(in2);
      for (std::size_t b = 0; b < idxs.size(); ++b) {
        lstm_out[idxs[b]] = std::move(h2[b]);
        states[idxs[b]] = &lstm_out[idxs[b]];
      }
    }
  }

  std::vector<std::vector<double>> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> prob_sum(static_cast<std::size_t>(num_classes_), 0.0);
    for (const nn::Tensor& s : *states[i]) {
      const nn::Tensor probs = nn::softmax(head_->forward(s, /*train=*/false));
      for (int c = 0; c < num_classes_; ++c) {
        prob_sum[static_cast<std::size_t>(c)] += probs[static_cast<std::size_t>(c)];
      }
    }
    double total = 0.0;
    for (double p : prob_sum) total += p;
    if (total > 0.0) {
      for (double& p : prob_sum) p /= total;
    }
    out[i] = std::move(prob_sum);
  }
  return out;
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
