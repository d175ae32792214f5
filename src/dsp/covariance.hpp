// Spatial covariance estimation for the antenna array (Eq. 10 of the paper),
// with the two standard fixes for coherent multipath:
//
//  * forward-backward averaging — exploits the ULA's persymmetry to double
//    the effective snapshot count and partially decorrelate coherent rays;
//  * spatial smoothing — averages covariances of overlapping subarrays,
//    restoring rank when several paths of the SAME backscatter signal (fully
//    coherent) impinge on the array.
//
// Both are config flags so their contribution can be ablated (DESIGN.md §5).
#pragma once

#include "dsp/cmatrix.hpp"

namespace m2ai::dsp {

struct CovarianceOptions {
  bool forward_backward = true;
  // Subarray length for spatial smoothing; 0 disables smoothing and keeps
  // the full aperture. Must be <= number of antennas.
  int smoothing_subarray = 0;
  // Diagonal loading added to keep the matrix well conditioned (relative to
  // the average diagonal power).
  double diagonal_loading = 1e-6;
};

// Sample covariance R = E{ r r^H } from `snapshots`, each an N-element
// antenna vector. Output is N x N, or L x L when smoothing with subarray L.
CMatrix sample_covariance(const std::vector<std::vector<cdouble>>& snapshots,
                          const CovarianceOptions& options = {});

// Rank-1 outer-product accumulation: sum += x x^H, element-wise in row-major
// order. sample_covariance() accumulates its snapshot sum through this exact
// routine, so a streaming consumer that applies it per arriving snapshot
// (serve::IncrementalCovariance) holds bitwise the same sum as a batch
// recompute over the same snapshots in the same order.
void accumulate_outer(CMatrix& sum, const std::vector<cdouble>& x);

// Derives the final covariance (subarray smoothing, forward-backward
// averaging, diagonal loading) from the N x N outer-product sum over `count`
// snapshots. sample_covariance(snapshots, o) is exactly
// finalize_covariance(sum_of_outer_products, snapshots.size(), o) — the
// subarray sums the batch path used are element-wise slices of the full sum,
// added in the same order, so the split is bitwise-neutral.
CMatrix finalize_covariance(const CMatrix& sum, std::size_t count,
                            const CovarianceOptions& options = {});

}  // namespace m2ai::dsp
