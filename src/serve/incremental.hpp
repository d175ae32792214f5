// Incrementally maintained spatial covariance for the streaming serve path.
//
// The batch pipeline buffers every aligned snapshot of a window and computes
// the covariance in one burst at window close (dsp::sample_covariance). At
// serving time that burst lands exactly when the frame is due — the worst
// moment. IncrementalCovariance spreads the cost across arrivals instead:
// each completed snapshot applies one rank-1 update (dsp::accumulate_outer)
// to a running outer-product sum, and window close only pays the cheap
// finalization (smoothing / forward-backward / loading).
//
// Numerical contract: serving windows tumble, so the running sum only ever
// sees the same rank-1 additions, in the same order, as a batch recompute
// over the same snapshots — covariance() is BITWISE identical to
// dsp::sample_covariance(window, options).
#pragma once

#include <cstddef>
#include <vector>

#include "dsp/covariance.hpp"

namespace m2ai::serve {

class IncrementalCovariance {
 public:
  // `num_antennas` fixes the snapshot length N (sum is N x N).
  explicit IncrementalCovariance(int num_antennas);

  // Append one aligned snapshot (length N): sum += x x^H, window grows.
  void push(const std::vector<dsp::cdouble>& snapshot);

  // Zero the sum and the count (start of a new tumbling window).
  void clear();

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  // Finalized covariance over the pushed snapshots (throws if empty, like
  // sample_covariance).
  dsp::CMatrix covariance(const dsp::CovarianceOptions& options = {}) const;

 private:
  std::size_t num_antennas_;
  std::size_t count_ = 0;
  dsp::CMatrix sum_;
};

}  // namespace m2ai::serve
