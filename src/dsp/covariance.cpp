#include "dsp/covariance.hpp"

#include <stdexcept>

namespace m2ai::dsp {

namespace {

// Backward (exchange-conjugate) transform: R_b = J * conj(R) * J where J is
// the exchange matrix. Written out directly.
CMatrix backward(const CMatrix& r) {
  const std::size_t n = r.rows();
  CMatrix b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b(i, j) = std::conj(r(n - 1 - i, n - 1 - j));
    }
  }
  return b;
}

}  // namespace

void accumulate_outer(CMatrix& sum, const std::vector<cdouble>& x) {
  const std::size_t n = sum.rows();
  if (x.size() != n || sum.cols() != n) {
    throw std::invalid_argument("accumulate_outer: size mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      sum(i, j) += x[i] * std::conj(x[j]);
    }
  }
}

CMatrix finalize_covariance(const CMatrix& sum, std::size_t count,
                            const CovarianceOptions& options) {
  if (count == 0) {
    throw std::invalid_argument("finalize_covariance: no snapshots");
  }
  const std::size_t n = sum.rows();
  if (sum.cols() != n) {
    throw std::invalid_argument("finalize_covariance: sum must be square");
  }
  const std::size_t sub = options.smoothing_subarray > 0
                              ? static_cast<std::size_t>(options.smoothing_subarray)
                              : n;
  if (sub > n) {
    throw std::invalid_argument("finalize_covariance: subarray larger than array");
  }

  // Average covariances of all overlapping subarrays of length `sub`
  // (sub == n reduces to the plain full-aperture covariance). Each subarray
  // covariance is the slice sum(o+i, o+j) of the full outer-product sum,
  // folded into `r` element-wise — the same adds, in the same order, as the
  // old per-subarray `r = r + outer_average` chain of temporaries (including
  // the 0 + x add for the first subarray, which canonicalizes -0.0 exactly
  // like the old code did).
  const std::size_t num_sub = n - sub + 1;
  CMatrix r(sub, sub);
  const double inv = 1.0 / static_cast<double>(count);
  for (std::size_t o = 0; o < num_sub; ++o) {
    for (std::size_t i = 0; i < sub; ++i) {
      for (std::size_t j = 0; j < sub; ++j) {
        r(i, j) = r(i, j) + sum(o + i, o + j) * inv;
      }
    }
  }
  {
    const double inv_sub = 1.0 / static_cast<double>(num_sub);
    for (std::size_t i = 0; i < sub; ++i) {
      for (std::size_t j = 0; j < sub; ++j) r(i, j) = r(i, j) * inv_sub;
    }
  }

  if (options.forward_backward) {
    const CMatrix b = backward(r);
    for (std::size_t i = 0; i < sub; ++i) {
      for (std::size_t j = 0; j < sub; ++j) {
        r(i, j) = (r(i, j) + b(i, j)) * 0.5;
      }
    }
  }

  if (options.diagonal_loading > 0.0) {
    double trace = 0.0;
    for (std::size_t i = 0; i < sub; ++i) trace += r(i, i).real();
    const double load = options.diagonal_loading * trace / static_cast<double>(sub);
    for (std::size_t i = 0; i < sub; ++i) r(i, i) += load;
  }
  return r;
}

CMatrix sample_covariance(const std::vector<std::vector<cdouble>>& snapshots,
                          const CovarianceOptions& options) {
  if (snapshots.empty()) {
    throw std::invalid_argument("sample_covariance: no snapshots");
  }
  const std::size_t n = snapshots.front().size();
  for (const auto& s : snapshots) {
    if (s.size() != n) {
      throw std::invalid_argument("sample_covariance: ragged snapshots");
    }
  }
  CMatrix sum(n, n);
  for (const auto& snap : snapshots) accumulate_outer(sum, snap);
  return finalize_covariance(sum, snapshots.size(), options);
}

}  // namespace m2ai::dsp
