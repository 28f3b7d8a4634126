// Batched (stacked-plane) GEMM entry point for the fused multi-restart MLP
// trainer and for batched MLP inference (MlpNetwork::forward_all).
//
// The fused SCG path stacks R restarts' layer weights side by side into one
// wide operand (cols = R * hidden) so a single GEMM serves every live
// restart per iteration. The kernel here is deliberately shaped like the
// rowwise reference loop in src/ml/mlp.cpp: per output element the i-terms
// accumulate in ascending order starting from the bias, so the batched and
// rowwise paths are bit-identical per element no matter how many planes are
// stacked (vectorizing across the column axis never reorders any single
// element's accumulation chain).
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace coloc::linalg {

/// out(r, c) = bias[c] + sum_i x(r, i) * w(i, c), i ascending per element.
/// Resizes `out` to x.rows() x w.cols() (capacity reused when warm).
/// Requires x.cols() == w.rows() and bias.size() == w.cols().
void gemm_bias(const Matrix& x, const Matrix& w, std::span<const double> bias,
               Matrix& out);

}  // namespace coloc::linalg
