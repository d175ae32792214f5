// Dual-mode kernel backends: one dispatch table, two implementations.
//
// The REFERENCE backend is the fixed-accumulation-order kernel set from
// kernels.hpp, compiled with the project-wide determinism flags
// (-ffp-contract=off, -fno-tree-slp-vectorize): bitwise-identical to the
// naive scalar loops at any optimization level, the default everywhere, and
// the only backend used for training/experiments that must reproduce
// checkpoints bit for bit.
//
// The FAST backend (backend_fast.cpp) is compiled in its own translation
// unit with FMA/AVX2-capable flags (project-wide flags untouched):
// vectorized + cache-blocked gemv/gemm/conv rows and a vectorized MUSIC
// noise-projection scan. Its results are epsilon-equivalent, not bitwise —
// FMA contraction and vector-lane reduction reorder the sums — which is fine
// for inference/serving and guarded by the equivalence suite
// (tests/test_kern_backend.cpp).
//
// Selection: reference by default; `M2AI_KERN_BACKEND={ref,fast}` in the
// environment or --backend on the tools overrides it. Requesting `fast` on a
// host whose CPU lacks the ISA the TU was compiled for falls back to
// reference (CPUID-style runtime detection). set_backend is an atomic
// pointer swap: call it before spawning worker threads; concurrent dispatch
// through active() is always safe.
#pragma once

#include <atomic>
#include <complex>
#include <string>

namespace m2ai::kern {

// Function-pointer table of every dispatched kernel. Signatures match the
// inline reference kernels in kernels.hpp (gemm carries the per-column bias
// of gemm_bias — the batched-inference form).
struct Backend {
  const char* name;
  void (*gemv)(const float* w, const float* x, const float* bias, float* y,
               int rows, int cols);
  void (*gemm_bias)(const float* a, const float* b, const float* bias, float* c,
                    int m, int k, int n);
  void (*conv1d_row_acc)(const float* x, int len, const float* w, int kernel,
                         int stride, int padding, float* partial, int out_len);
  void (*noise_projection)(const std::complex<double>* un, int num_noise,
                           const std::complex<double>* steer, int num_bins,
                           int n, double* denom);
};

enum class BackendKind { kReference, kFast };

const Backend& reference_backend();
// The fast table itself (AVX2/FMA when the TU was compiled with the ISA,
// otherwise a contraction-enabled generic build). Dispatch never hands this
// out unless fast_backend_supported() — use active() instead of calling
// these kernels directly on unknown hosts.
const Backend& fast_backend();
// True when the fast table's code can run on this CPU (runtime CPUID check
// against the ISA the fast TU was compiled for).
bool fast_backend_supported();

// Activates `requested` and returns the kind actually active: a fast
// request degrades to kReference when fast_backend_supported() is false.
BackendKind set_backend(BackendKind requested);
// Parses "ref"/"reference" or "fast" (throws std::invalid_argument on
// anything else) and activates it; same fallback rule as set_backend.
BackendKind set_backend_by_name(const std::string& name);
BackendKind active_backend_kind();
// Name of the table active() currently dispatches to ("ref"/"fast").
const char* active_backend_name();

// Applies M2AI_KERN_BACKEND from the environment and returns the kind
// actually active afterwards. An unknown value logs a warning and explicitly
// activates the reference backend (never a silent typo->ref coercion that
// leaves a previously selected backend running); unset/empty leaves the
// current selection untouched. Called once before main() by a dynamic
// initializer, and directly by the regression tests.
BackendKind apply_env_backend();

namespace detail {
// nullptr means "reference" so zero-initialization is a valid state and the
// hot path never depends on static-initialization order. A dynamic
// initializer in backend.cpp applies M2AI_KERN_BACKEND on program start.
extern std::atomic<const Backend*> g_active;
}  // namespace detail

// The dispatch point: one relaxed atomic load per call site.
inline const Backend& active() {
  const Backend* b = detail::g_active.load(std::memory_order_relaxed);
  return b != nullptr ? *b : reference_backend();
}

}  // namespace m2ai::kern
