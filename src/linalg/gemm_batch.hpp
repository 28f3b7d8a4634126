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

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace coloc::linalg {

/// out(r, c) = bias[c] + sum_i x(r, i) * w(i, c), i ascending per element.
/// Resizes `out` to x.rows() x w.cols() (capacity reused when warm).
/// Requires x.cols() == w.rows() and bias.size() == w.cols().
void gemm_bias(const Matrix& x, const Matrix& w, std::span<const double> bias,
               Matrix& out);

namespace detail {

/// The two shapes gemm_bias picks between, on raw row-major buffers
/// (x m x inner, w inner x cols, bias cols, out m x cols); exposed so
/// tests can drive them against guard pages. gemm_chunk serves
/// 1 <= inner <= 8 (any other inner writes nothing) and is what gemm_bias
/// runs for cols <= 32; gemm_stream serves every shape.
void gemm_chunk(const double* x, const double* w, const double* bias,
                double* out, std::size_t m, std::size_t inner,
                std::size_t cols);
void gemm_stream(const double* x, const double* w, const double* bias,
                 double* out, std::size_t m, std::size_t inner,
                 std::size_t cols);

}  // namespace detail

}  // namespace coloc::linalg
