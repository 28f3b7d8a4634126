// Lane vectors for the kernels that put independent accumulation chains
// side by side (linalg/gemm_batch.cpp, ml/mlp_fused.cpp). Lanes<W> is W
// doubles as one GCC vector (a plain double at W = 1); lane arithmetic is
// the scalar IEEE operation per lane, so a lane reproduces the scalar
// statement it replaces bit for bit in a translation unit built with
// -ffp-contract=off. Spelling the lanes out also keeps GCC's loop
// vectorizer from vectorizing a row loop across its rows instead, which
// costs shuffles per row and turns a register accumulator carried across
// rows into an in-order lane reduction.
#pragma once

#include <cstring>
#include <type_traits>

namespace coloc::linalg::detail {

#if defined(__GNUC__)
#define COLOC_LANES_INLINE __attribute__((always_inline)) inline
#else
#define COLOC_LANES_INLINE inline
#endif

template <int W>
struct LaneVec {
  // The typedef form: GCC drops vector_size from a dependent alias.
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};

/// W doubles as one GCC vector, subscriptable lane by lane at any W.
template <int W>
using VectorOf = typename LaneVec<W>::type;
static_assert(sizeof(VectorOf<8>) == 8 * sizeof(double));

/// VectorOf<W>, but a plain double at W = 1: GCC 12 keeps a one-lane
/// vector carried across a row loop in memory, a double in a register.
template <int W>
using Lanes = std::conditional_t<W == 1, double, VectorOf<W>>;

// By reference: a vector passed or returned by value draws -Wpsabi in the
// baseline clone. Always inlined, so each target clone compiles the body
// with its own instruction set.
template <int W>
COLOC_LANES_INLINE void load_lanes(Lanes<W>& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <int W>
COLOC_LANES_INLINE void store_lanes(double* p, const Lanes<W>& v) {
  std::memcpy(p, &v, sizeof v);
}

}  // namespace coloc::linalg::detail
