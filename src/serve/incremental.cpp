#include "serve/incremental.hpp"

#include <stdexcept>

namespace m2ai::serve {

IncrementalCovariance::IncrementalCovariance(int num_antennas)
    : num_antennas_(static_cast<std::size_t>(num_antennas)),
      sum_(num_antennas_, num_antennas_) {
  if (num_antennas <= 0) {
    throw std::invalid_argument("IncrementalCovariance: num_antennas must be > 0");
  }
}

void IncrementalCovariance::push(const std::vector<dsp::cdouble>& snapshot) {
  dsp::accumulate_outer(sum_, snapshot);
  ++count_;
}

void IncrementalCovariance::clear() {
  sum_ = dsp::CMatrix(num_antennas_, num_antennas_);
  count_ = 0;
}

dsp::CMatrix IncrementalCovariance::covariance(
    const dsp::CovarianceOptions& options) const {
  return dsp::finalize_covariance(sum_, count_, options);
}

}  // namespace m2ai::serve
