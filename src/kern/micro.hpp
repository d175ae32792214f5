// Per-backend kernel micro-benchmark at serving-shaped inputs (LSTM-gate
// gemv, micro-batch gemm, CONV-E1 row, MUSIC scan). Shared by
// tools/m2ai_serve and tools/m2ai_bench so every committed bench JSON and
// printed summary is self-describing: it names the active backend and
// carries its kern.<backend>.<kernel>.ns_per_op gauges, comparable across
// ref/fast.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "kern/backend.hpp"

namespace m2ai::kern {

struct KernMicro {
  double gemv_ns = 0.0;
  double gemm_bias_ns = 0.0;
  double conv1d_row_ns = 0.0;
  double noise_projection_ns = 0.0;
};

// Times each dispatched kernel of `be` and returns ns/op per kernel.
KernMicro measure_micro(const Backend& be);

// ("kern.<backend-name>.<kernel>.ns_per_op", ns) pairs for gauge export —
// callers own the obs registry so this library does not depend on it.
std::vector<std::pair<std::string, double>> micro_gauge_items(
    const char* backend_name, const KernMicro& micro);

}  // namespace m2ai::kern
