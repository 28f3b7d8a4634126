// Internal kernels of the fused MLP trainer (ml/mlp_fused.cpp), declared
// so tests can drive them directly. Not part of the ml API.
#pragma once

#include <cstddef>

namespace coloc::ml::detail {

/// Rows of slack past m in the d_a buffer backward_gw1t_blocked reads.
/// GCC 12's x86-64-v4 clone of the 8-input, 4-column chunk loads each
/// row's four d_a columns together with the next row's and permutes the
/// second half away, so on the last row it reads up to one row past m.
/// Without the spare row that read faults whenever the buffer ends at an
/// unmapped page.
inline constexpr std::size_t kGw1tSpareRows = 1;

/// The blocked backward stages d_a for every row, so it only pays off
/// while that buffer stays cache-resident; past ~1.25 MB the extra
/// traffic loses to the one-pass sweep (measured 0.77x at 16 planes).
inline constexpr std::size_t kBlockedBackwardLimit = 160'000;  // m * wide

/// gw1t (inputs x wide) += x^T * d_a for x (m x inputs) and d_a
/// ((m + kGw1tSpareRows) x wide), all row-major; 1 <= inputs <= 8, other
/// widths are left to the one-pass sweep. Each gw1t element sums its rows
/// in ascending order from zero, then adds that sum once.
void backward_gw1t_blocked(const double* x, const double* da_all,
                           double* gw1t, std::size_t m, std::size_t inputs,
                           std::size_t wide);

}  // namespace coloc::ml::detail
