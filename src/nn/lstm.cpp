#include "nn/lstm.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "kern/backend.hpp"
#include "kern/kernels.hpp"
#include "nn/math.hpp"

namespace m2ai::nn {

Lstm::Lstm(int input_size, int hidden_size, util::Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      weight_("lstm.weight", {4 * hidden_size, input_size + hidden_size}),
      bias_("lstm.bias", {4 * hidden_size}) {
  const float std = std::sqrt(1.0f / static_cast<float>(input_size + hidden_size));
  weight_.value.randomize_normal(rng, std);
  // Forget-gate bias starts at 1 so early training keeps memory by default.
  for (int h = 0; h < hidden_size; ++h) bias_.value.at(hidden_size + h) = 1.0f;
}

std::vector<Tensor> Lstm::forward(const std::vector<Tensor>& inputs, bool train) {
  // A training forward always starts a fresh BPTT window (the whole sequence
  // is processed in one call). Any cache left behind — e.g. an exception
  // between a previous forward and its backward — would otherwise make the
  // next backward pair gradients with the wrong timesteps.
  if (train) {
    steps_.clear();
    train_ws_.reset();
  }
  scratch_ws_.reset();
  const int h_size = hidden_size_;
  const int in_size = input_size_;
  const int joint = in_size + h_size;
  const int rows = 4 * h_size;

  kern::Workspace& ws = train ? train_ws_ : scratch_ws_;
  // Wᵀ and the pre-activations are transient either way; the zero initial
  // state must outlive this call in training mode (backward reads step 0's
  // c_prev).
  float* wt = scratch_ws_.alloc(static_cast<std::size_t>(joint) * rows);
  kern::transpose(weight_.value.data(), rows, joint, wt);
  float* z = scratch_ws_.alloc(static_cast<std::size_t>(rows));
  const float* zeros = ws.alloc_zero(static_cast<std::size_t>(h_size));
  // Evaluation reuses one packed input and one in-place cell buffer.
  float* xh_eval = nullptr;
  float* c_eval = nullptr;
  float* tanh_eval = nullptr;
  if (!train) {
    xh_eval = scratch_ws_.alloc(static_cast<std::size_t>(joint));
    c_eval = scratch_ws_.alloc_zero(static_cast<std::size_t>(h_size));
    tanh_eval = scratch_ws_.alloc(static_cast<std::size_t>(h_size));
  }

  const float* h_prev = zeros;
  const float* c_prev = zeros;
  std::vector<Tensor> outputs;
  outputs.reserve(inputs.size());
  // Training pins the reference kernel (bitwise-reproducible checkpoints);
  // evaluation dispatches to the active backend.
  const kern::Backend& be = train ? kern::reference_backend() : kern::active();

  for (const Tensor& input : inputs) {
    // Any rank is read as its flat values.
    if (static_cast<int>(input.size()) != in_size) {
      throw std::invalid_argument("Lstm::forward: bad input size " + input.shape_string());
    }
    float* xh = train ? ws.alloc(static_cast<std::size_t>(joint)) : xh_eval;
    std::memcpy(xh, input.data(), static_cast<std::size_t>(in_size) * sizeof(float));
    std::memcpy(xh + in_size, h_prev, static_cast<std::size_t>(h_size) * sizeof(float));

    // z = W [x; h_prev] + b, gate blocks [i; f; g; o]: one m=1 GEMM over
    // Wᵀ, which vectorizes across the 4H gate rows and adds each row's terms
    // in gemv's order.
    be.gemm_bias(xh, wt, bias_.value.data(), z, 1, joint, rows);

    float* gates = train ? ws.alloc(static_cast<std::size_t>(rows)) : z;
    float* c = train ? ws.alloc(static_cast<std::size_t>(h_size)) : c_eval;
    float* tanh_c = train ? ws.alloc(static_cast<std::size_t>(h_size)) : tanh_eval;
    // Block loops over the contiguous gate rows: sigmoid over [i; f], tanh
    // over g, sigmoid over o, then tanh(c).
    math::sigmoid(z, gates, 2 * h_size);
    math::tanh(z + 2 * h_size, gates + 2 * h_size, h_size);
    math::sigmoid(z + 3 * h_size, gates + 3 * h_size, h_size);
    for (int u = 0; u < h_size; ++u) {
      c[u] = gates[h_size + u] * c_prev[u] + gates[u] * gates[2 * h_size + u];
    }
    math::tanh(c, tanh_c, h_size);
    Tensor h_new({h_size});
    float* h = h_new.data();
    for (int u = 0; u < h_size; ++u) h[u] = gates[3 * h_size + u] * tanh_c[u];
    if (train) steps_.push_back(StepView{xh, c_prev, gates, c, tanh_c});
    outputs.push_back(std::move(h_new));
    // Tensor storage is heap-allocated, so these stay valid as `outputs`
    // grows; c (in eval mode) is updated in place, which is safe because
    // c[u] reads only c_prev[u].
    h_prev = outputs.back().data();
    c_prev = c;
  }
  return outputs;
}

std::vector<Tensor> Lstm::backward(const std::vector<Tensor>& grad_outputs) {
  if (steps_.size() != grad_outputs.size()) {
    throw std::logic_error("Lstm::backward: cache/grad length mismatch");
  }
  const int h_size = hidden_size_;
  const int in_size = input_size_;
  const int joint = in_size + h_size;
  const int rows = 4 * h_size;
  const std::size_t t_len = steps_.size();
  for (std::size_t t = 0; t < t_len; ++t) {
    if (static_cast<int>(grad_outputs[t].size()) != h_size) {
      throw std::invalid_argument("Lstm::backward: grad_outputs[" + std::to_string(t) +
                                  "] has " + std::to_string(grad_outputs[t].size()) +
                                  " values, expected " + std::to_string(h_size));
    }
  }

  scratch_ws_.reset();
  float* dh = scratch_ws_.alloc(static_cast<std::size_t>(h_size));
  float* dz = scratch_ws_.alloc(static_cast<std::size_t>(rows));
  float* dc = scratch_ws_.alloc(static_cast<std::size_t>(h_size));
  float* dxh = scratch_ws_.alloc(static_cast<std::size_t>(joint));
  float* dh_next = scratch_ws_.alloc_zero(static_cast<std::size_t>(h_size));
  float* dc_next = scratch_ws_.alloc_zero(static_cast<std::size_t>(h_size));

  std::vector<Tensor> grad_inputs(t_len);

  for (std::size_t rt = t_len; rt-- > 0;) {
    const StepView& step = steps_[rt];
    const float* go = grad_outputs[rt].data();
    for (int u = 0; u < h_size; ++u) dh[u] = go[u] + 1.0f * dh_next[u];

    // Through h_t = o * tanh(c_t) and c_t = f*c_prev + i*g.
    for (int u = 0; u < h_size; ++u) {
      const float i_ = step.gates[u];
      const float f_ = step.gates[h_size + u];
      const float g_ = step.gates[2 * h_size + u];
      const float o_ = step.gates[3 * h_size + u];
      const float do_ = dh[u] * step.tanh_c[u];
      const float dtanh_c = dh[u] * o_;
      const float dcu = dtanh_c * (1.0f - step.tanh_c[u] * step.tanh_c[u]) + dc_next[u];
      dc[u] = dcu;
      const float di = dcu * g_;
      const float df = dcu * step.c_prev[u];
      const float dg = dcu * i_;
      dz[0 * h_size + u] = di * i_ * (1.0f - i_);
      dz[1 * h_size + u] = df * f_ * (1.0f - f_);
      dz[2 * h_size + u] = dg * (1.0f - g_ * g_);
      dz[3 * h_size + u] = do_ * o_ * (1.0f - o_);
    }

    // Parameter and input/recurrent gradients: z = W [x; h_prev] + b. The
    // packed dxh = [dx; dh_prev] mirrors the packed forward input.
    std::memset(dxh, 0, static_cast<std::size_t>(joint) * sizeof(float));
    kern::gemv_backward_acc(weight_.value.data(), weight_.grad.data(), step.xh, dz,
                            bias_.grad.data(), dxh, rows, joint,
                            /*skip_zero_rows=*/true);

    Tensor dx({in_size});
    std::memcpy(dx.data(), dxh, static_cast<std::size_t>(in_size) * sizeof(float));
    grad_inputs[rt] = std::move(dx);
    std::memcpy(dh_next, dxh + in_size, static_cast<std::size_t>(h_size) * sizeof(float));
    // dc_prev = dc * f.
    for (int u = 0; u < h_size; ++u) dc_next[u] = dc[u] * step.gates[h_size + u];
  }
  steps_.clear();
  return grad_inputs;
}

}  // namespace m2ai::nn
