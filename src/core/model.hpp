// The M2AI deep-learning engine (Fig. 6): per-frame CNN feature extraction
// over the pseudospectrum and periodogram branches, a fully-connected merge,
// two stacked LSTM layers (32 cells each), and a per-frame softmax head.
// The Fig. 17 ablations (CNN-only / LSTM-only) reuse the same parts.
//
// The CNN and the head are per-frame maps, so a sequence's T frames run
// through them as one frame-minor batch ([C, L, T], frame index innermost;
// DESIGN §6) instead of T calls, forward and backward. Every layer gives
// each frame the bits of a one-frame call, and the gradients the per-frame
// LIFO loop gave, so results do not depend on how frames are batched.
#pragma once

#include <memory>

#include "core/frames.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/sequential.hpp"
#include "nn/softmax.hpp"

namespace m2ai::core {

// One sequence's per-frame network inputs (M2AINetwork::frame_features).
using FeatureSequence = std::vector<nn::Tensor>;

class M2AINetwork {
 public:
  M2AINetwork(const ModelConfig& model, FeatureMode mode, int num_tags,
              int num_antennas, int num_classes);

  struct StepResult {
    double loss = 0.0;
    int predicted = 0;
  };

  // Forward + backward on one sequence; parameter gradients accumulate
  // (optimizer consumes them). Loss is the mean per-frame cross entropy —
  // the paper's "prediction at every spectrum frame".
  StepResult train_step(const Sample& sample);

  // Inference: per-frame softmax probabilities summed over the sequence.
  // predict_proba is sequence_features then predict_proba_from_features,
  // and predict is its argmax.
  int predict(const FrameSequence& frames);
  // Per-class summed probabilities (normalized); useful for examples.
  std::vector<double> predict_proba(const FrameSequence& frames);
  // One label per sequence: predict on each in turn.
  std::vector<int> predict_batch(const std::vector<const FrameSequence*>& batch);

  // Inference in its two halves. frame_features is one frame's LSTM input
  // (the head input for CNN-only): the CNN branches + merge in eval mode, or
  // the raw flattened frame for LSTM-only. The paper's CNN runs per time
  // step, so the result depends on that frame alone and a stream can
  // featurize each frame once for every sliding window that holds it
  // (serve::Service does, on its DSP workers). It is the one-frame case of
  // the batched CNN that predict_proba and train_step run once per
  // sequence, bitwise equal to that sequence's column. Eval-mode layers
  // still write per-layer scratch, so concurrent callers need one clone each.
  nn::Tensor frame_features(const SpectrumFrame& frame);
  // The rest of the network over one sequence's per-frame features: the
  // LSTM stack (nn::Lstm::forward in eval mode) and the head, then the
  // normalized per-class probability sums.
  std::vector<double> predict_proba_from_features(const FeatureSequence& features);
  // The label of one probability row (first class on ties).
  static int argmax_class(const std::vector<double>& probs);

  std::vector<nn::Param*> params();
  std::size_t num_parameters();

  // A structurally identical network with this network's current weights and
  // gradient buffers. Forward passes mutate per-layer caches, so concurrent
  // work needs one clone per worker (see core::evaluate and core::Trainer's
  // data-parallel replicas).
  std::unique_ptr<M2AINetwork> clone();

  // Re-derives every stochastic layer's RNG (dropout) from `base`, forking
  // in fixed layer order. The trainer seeds each replica from a per-sample
  // stream so dropout masks are thread-count-invariant.
  void reseed_dropout(util::Rng base);

  // Drops all cached activations in every layer. train_step calls this
  // first, so a previous step abandoned mid-flight (e.g. by an exception
  // between forward and backward) cannot poison the next one's BPTT pairing.
  void clear_caches();

  const ModelConfig& model_config() const { return model_; }

 private:
  // CNN branches + merge over n frames in one pass: [F] for one frame, the
  // frame-minor batch [F, n] otherwise (DESIGN §6). With train=true each
  // layer pushes one cache entry for the matching cnn_backward.
  nn::Tensor cnn_features(const SpectrumFrame* frames, std::size_t n, bool train);
  // Backward through merge + branches for the most recent un-popped
  // cnn_features(train=true) call over n frames.
  void cnn_backward(const nn::Tensor& grad_features, std::size_t n);

  // Raw flattened frame (LSTM-only ablation input).
  nn::Tensor raw_features(const SpectrumFrame& frame) const;
  // The per-step LSTM inputs (or, for CNN-only, head inputs) of a sequence:
  // raw_features per frame for the LSTM-only ablation, one cnn_features
  // call otherwise.
  std::vector<nn::Tensor> sequence_features(const FrameSequence& frames, bool train);

  // Per-step vectors <-> one frame-minor batch; one step is its own batch.
  static nn::Tensor stack_steps(const std::vector<nn::Tensor>& steps);
  static std::vector<nn::Tensor> unstack_steps(const nn::Tensor& batch, std::size_t n);

  ModelConfig model_;
  FeatureMode mode_;
  int num_tags_;
  int num_antennas_;
  int num_classes_;

  bool use_pseudo_ = false;
  bool use_aux_ = false;
  int pseudo_flat_ = 0;  // flattened branch output sizes
  int aux_flat_ = 0;
  std::vector<int> pseudo_out_shape_;
  std::vector<int> aux_out_shape_;

  std::unique_ptr<nn::Sequential> pseudo_branch_;
  std::unique_ptr<nn::Sequential> aux_branch_;
  std::unique_ptr<nn::Sequential> merge_;  // Dense + ReLU
  std::unique_ptr<nn::Lstm> lstm1_;
  std::unique_ptr<nn::Lstm> lstm2_;
  std::unique_ptr<nn::Dense> head_;
};

}  // namespace m2ai::core
