#include "kern/backend.hpp"

#include <cstdlib>
#include <stdexcept>

#include "kern/kernels.hpp"
#include "util/log.hpp"

namespace m2ai::kern {

namespace detail {
std::atomic<const Backend*> g_active{nullptr};
}  // namespace detail

const Backend& reference_backend() {
  static const Backend kReference{
      "ref",
      &gemv,
      &gemm_bias,
      &conv1d_row_acc,
      &noise_projection,
  };
  return kReference;
}

BackendKind set_backend(BackendKind requested) {
  const Backend* table = &reference_backend();
  BackendKind actual = BackendKind::kReference;
  if (requested == BackendKind::kFast && fast_backend_supported()) {
    table = &fast_backend();
    actual = BackendKind::kFast;
  }
  detail::g_active.store(table, std::memory_order_relaxed);
  return actual;
}

BackendKind set_backend_by_name(const std::string& name) {
  if (name == "ref" || name == "reference") return set_backend(BackendKind::kReference);
  if (name == "fast") return set_backend(BackendKind::kFast);
  throw std::invalid_argument("unknown kernel backend '" + name +
                              "' (expected 'ref' or 'fast')");
}

BackendKind active_backend_kind() {
  const Backend* b = detail::g_active.load(std::memory_order_relaxed);
  if (b == &fast_backend()) return BackendKind::kFast;
  return BackendKind::kReference;
}

const char* active_backend_name() { return active().name; }

BackendKind apply_env_backend() {
  const char* env = std::getenv("M2AI_KERN_BACKEND");
  if (env == nullptr || env[0] == '\0') return active_backend_kind();
  try {
    const BackendKind actual = set_backend_by_name(env);
    if (actual == BackendKind::kReference && std::string(env) != "ref" &&
        std::string(env) != "reference") {
      util::log_warn() << "M2AI_KERN_BACKEND='" << env
                       << "' is not supported on this CPU; using reference backend";
    }
    return actual;
  } catch (const std::invalid_argument&) {
    util::log_warn() << "unknown M2AI_KERN_BACKEND value '" << env
                     << "' (expected 'ref' or 'fast'); "
                     << "falling back to reference backend";
    return set_backend(BackendKind::kReference);
  }
}

namespace {
// Applies M2AI_KERN_BACKEND before main() runs so even code that never
// touches the CLI flag (tests, library embedders) honors the override.
const bool g_env_applied = [] {
  apply_env_backend();
  return true;
}();
}  // namespace

}  // namespace m2ai::kern
