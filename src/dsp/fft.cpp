#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>

namespace m2ai::dsp {

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Twiddle factors for one transform size, per butterfly stage; see
// twiddle_stages() for the generation contract. Forward and inverse tables
// are built independently (conjugation is exact, but polar() symmetry across
// libm implementations is not guaranteed).
namespace {
struct TwiddleTable {
  std::vector<std::vector<cdouble>> forward;
  std::vector<std::vector<cdouble>> inverse;
};
}  // namespace

std::vector<std::vector<cdouble>> twiddle_stages(std::size_t n, bool inverse) {
  std::vector<std::vector<cdouble>> stages;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const cdouble wl = std::polar(1.0, ang);
    std::vector<cdouble> stage(len / 2);
    cdouble w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      stage[k] = w;
      w *= wl;
    }
    stages.push_back(std::move(stage));
  }
  return stages;
}

std::vector<cdouble> bluestein_chirp(std::size_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<cdouble> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n keeps the angle argument bounded for large n.
    const std::size_t k2 = (k * k) % (2 * n);
    chirp[k] = std::polar(
        1.0, sign * M_PI * static_cast<double>(k2) / static_cast<double>(n));
  }
  return chirp;
}

namespace {

// Per-size cache of immutable entries, built once per size and never
// evicted. The periodogram path calls the FFT once per window per tag,
// always at the same handful of sizes, and the cache is shared across
// threads (dataset generation and the serve DSP stage run windows in
// parallel). Lookups take the lock shared; the first caller for a size
// builds its entry under the exclusive lock. Callers hold a shared_ptr, so
// an entry can never be destroyed under a running transform.
template <typename T>
class SizeCache {
 public:
  template <typename Build>
  std::shared_ptr<const T> get(std::size_t n, const Build& build) {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      const auto it = map_.find(n);
      if (it != map_.end()) return it->second;
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Another caller may have built this size since the shared lookup.
    std::shared_ptr<const T>& entry = map_[n];
    if (!entry) entry = build();
    return entry;
  }

 private:
  std::shared_mutex mu_;
  std::map<std::size_t, std::shared_ptr<const T>> map_;
};

// Twiddle tables: recomputing the sin/cos chains per call dominated the
// per-window leaf profile.
std::shared_ptr<const TwiddleTable> twiddles_for(std::size_t n) {
  // Never destroyed, so lookups from static destructors stay valid.
  static auto* cache = new SizeCache<TwiddleTable>();
  return cache->get(n, [n] {
    auto table = std::make_shared<TwiddleTable>();
    table->forward = twiddle_stages(n, false);
    table->inverse = twiddle_stages(n, true);
    return table;
  });
}

// In-place radix-2 body shared by fft_radix2 and FftPlan::transform so the
// cached-plan path is bitwise-identical to the ad-hoc one by construction.
void radix2_apply(cdouble* data, std::size_t n, const TwiddleTable* table,
                  bool inverse) {
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
  std::size_t stage = 0;
  for (std::size_t len = 2; len <= n; len <<= 1, ++stage) {
    const std::vector<cdouble>& tw =
        inverse ? table->inverse[stage] : table->forward[stage];
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cdouble u = data[i + k];
        const cdouble v = data[i + k + len / 2] * tw[k];
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
      }
    }
  }
  if (inverse) {
    for (std::size_t i = 0; i < n; ++i) data[i] /= static_cast<double>(n);
  }
}

}  // namespace

void fft_radix2(std::vector<cdouble>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft_radix2: size must be a power of two");
  }
  // Butterflies, twiddles served from the per-size cache.
  const std::shared_ptr<const TwiddleTable> table = n >= 2 ? twiddles_for(n) : nullptr;
  radix2_apply(data.data(), n, table.get(), inverse);
}

namespace {
// Bluestein's chirp-z transform: express an arbitrary-size DFT as a
// convolution, evaluated with a power-of-two FFT.
std::vector<cdouble> bluestein(const std::vector<cdouble>& data, bool inverse) {
  const std::size_t n = data.size();
  const std::vector<cdouble> chirp = bluestein_chirp(n, inverse);
  const std::size_t m = next_power_of_two(2 * n - 1);
  std::vector<cdouble> a(m, cdouble{0.0, 0.0});
  std::vector<cdouble> b(m, cdouble{0.0, 0.0});
  for (std::size_t k = 0; k < n; ++k) a[k] = data[k] * chirp[k];
  b[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) b[k] = b[m - k] = std::conj(chirp[k]);
  fft_radix2(a, false);
  fft_radix2(b, false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  fft_radix2(a, true);
  std::vector<cdouble> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * chirp[k];
  if (inverse) {
    for (auto& x : out) x /= static_cast<double>(n);
  }
  return out;
}
}  // namespace

std::vector<cdouble> fft(const std::vector<cdouble>& data, bool inverse) {
  if (data.empty()) return {};
  if (is_power_of_two(data.size())) {
    std::vector<cdouble> out = data;
    fft_radix2(out, inverse);
    return out;
  }
  return bluestein(data, inverse);
}

struct FftPlan::Impl {
  std::size_t n = 0;
  bool pow2 = true;
  std::shared_ptr<const TwiddleTable> table;  // size n (pow2) or m (Bluestein)
  // Bluestein state (pow2 == false). The chirp and the FFT of the filter b
  // depend on the transform direction, so both are kept per direction.
  std::size_t m = 0;
  std::vector<cdouble> chirp[2];   // [0] forward, [1] inverse
  std::vector<cdouble> filter[2];  // FFT of b, same indexing
};

FftPlan::FftPlan(std::size_t n) {
  auto impl = std::make_unique<Impl>();
  impl->n = n;
  impl->pow2 = n == 0 || is_power_of_two(n);
  if (impl->pow2) {
    if (n >= 2) impl->table = twiddles_for(n);
  } else {
    impl->m = next_power_of_two(2 * n - 1);
    impl->table = twiddles_for(impl->m);
    for (int dir = 0; dir < 2; ++dir) {
      const bool inverse = dir == 1;
      // The exact chirp primitive the per-call Bluestein path uses.
      std::vector<cdouble>& chirp = impl->chirp[dir];
      chirp = bluestein_chirp(n, inverse);
      std::vector<cdouble> b(impl->m, cdouble{0.0, 0.0});
      b[0] = std::conj(chirp[0]);
      for (std::size_t k = 1; k < n; ++k) b[k] = b[impl->m - k] = std::conj(chirp[k]);
      fft_radix2(b, false);
      impl->filter[dir] = std::move(b);
    }
  }
  impl_ = std::move(impl);
}

FftPlan::~FftPlan() = default;

std::size_t FftPlan::size() const { return impl_->n; }

void FftPlan::transform(const cdouble* in, cdouble* out, bool inverse,
                        std::vector<cdouble>& scratch) const {
  const Impl& p = *impl_;
  const std::size_t n = p.n;
  if (n == 0) return;
  if (p.pow2) {
    if (out != in) std::copy(in, in + n, out);
    radix2_apply(out, n, p.table.get(), inverse);
    return;
  }
  const int dir = inverse ? 1 : 0;
  const std::vector<cdouble>& chirp = p.chirp[dir];
  const std::vector<cdouble>& filter = p.filter[dir];
  scratch.assign(p.m, cdouble{0.0, 0.0});
  cdouble* a = scratch.data();
  for (std::size_t k = 0; k < n; ++k) a[k] = in[k] * chirp[k];
  radix2_apply(a, p.m, p.table.get(), false);
  for (std::size_t k = 0; k < p.m; ++k) a[k] *= filter[k];
  radix2_apply(a, p.m, p.table.get(), true);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * chirp[k];
  if (inverse) {
    for (std::size_t k = 0; k < n; ++k) out[k] /= static_cast<double>(n);
  }
}

std::shared_ptr<const FftPlan> shared_fft_plan(std::size_t n) {
  // The plan lookup sits on the per-window periodogram hot path, which the
  // serve layer runs from several DSP workers concurrently.
  static auto* cache = new SizeCache<FftPlan>();
  return cache->get(n, [n] { return std::shared_ptr<const FftPlan>(new FftPlan(n)); });
}

std::vector<cdouble> dft(const std::vector<cdouble>& data, bool inverse) {
  const std::size_t n = data.size();
  std::vector<cdouble> out(n, cdouble{0.0, 0.0});
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = sign * M_PI * static_cast<double>(k * t) / static_cast<double>(n);
      out[k] += data[t] * std::polar(1.0, ang);
    }
    if (inverse) out[k] /= static_cast<double>(n);
  }
  return out;
}

}  // namespace m2ai::dsp
