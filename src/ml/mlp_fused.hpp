// Internal kernels of the fused MLP trainer (ml/mlp_fused.cpp), declared
// so tests and MlpNetwork::forward_all can drive them directly. Not part
// of the ml API.
//
// Every kernel vectorizes only across chains that are already independent
// (DESIGN §13): rows in the output sweep, hidden units in the backward
// sweep, stacked columns in the W1 gradient. Each element's own chain keeps
// the order and expression shape of MlpNetwork::loss_and_gradient.
#pragma once

#include <cstddef>

namespace coloc::ml::detail {

/// The backward pass stages d_a one row block at a time, at most this many
/// doubles (rows * wide), so the block stays cache-resident between the row
/// sweep that writes it and the W1 gradient that reads it.
inline constexpr std::size_t kBackwardBlockDoubles = 32'768;

/// out (m x planes, row-major) = b2s[a] + sum_h w2s[a * hidden + h] *
/// act(r, a * hidden + h), for act (m x planes * hidden, row-major). Each
/// element starts at b2s[a] and adds its terms in ascending h, the chain
/// of MlpNetwork::forward; eight rows share a vector, one row per lane.
void forward_output_sweep(const double* act, const double* w2s,
                          const double* b2s, double* out, std::size_t m,
                          std::size_t planes, std::size_t hidden);

/// Backward row sweep for `planes` stacked planes over m rows. Plane b reads
/// forward column block fwd_slot[b] of act (m x fwd_planes * hidden), errs
/// (m x fwd_planes) and w2s; it writes d_a into da_all (m x planes * hidden)
/// and continues the chains g_w2 and g_b1 (planes * hidden) and g_b2
/// (planes), adding rows in ascending order, with
/// d_out = err * inv_m and d_a = d_out * w2[h] * (1 - a*a). Hidden units
/// share a vector, one unit per lane; no store leaves a row's [0, wide).
void backward_row_sweep(const double* act, const double* errs,
                        const double* w2s, const std::size_t* fwd_slot,
                        double* g_b2, double* g_w2, double* g_b1,
                        double* da_all, std::size_t m, std::size_t planes,
                        std::size_t hidden, std::size_t fwd_planes,
                        double inv_m);

/// gw1t (inputs x wide) += x^T * d_a for x (m x inputs) and d_a
/// (m x wide), all row-major. Each gw1t element continues its chain from
/// the value it holds, adding rows in ascending order; stacked columns
/// share a vector.
void backward_gw1t_blocked(const double* x, const double* da_all,
                           double* gw1t, std::size_t m, std::size_t inputs,
                           std::size_t wide);

}  // namespace coloc::ml::detail
