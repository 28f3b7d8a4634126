// Built with -fno-trapping-math -ffp-contract=off (see
// linalg/CMakeLists.txt): contraction stays off in every clone, so the
// AVX2 / AVX-512 variants differ from the baseline build only in lane
// count — never in rounding — and every form below reproduces the scalar
// accumulation order documented in gemm_batch.hpp bit for bit.
//
// Two shapes, picked per call:
//  - Register-chunk (cols <= 32, inner <= 8): the MLP design matrices are
//    short and fat-free — 1-8 input columns against a 10-20-wide hidden
//    layer — so each 8-column output chunk keeps its accumulators in one
//    vector register across a fully unrolled input loop (compile-time
//    INNER), touching each output element exactly once. Measured ~1.5-2.8x
//    over the streaming form at those shapes.
//  - Two-row streaming (everything else): the stacked multi-restart planes
//    are wide, so the inner loop streams along the contiguous column axis;
//    processing two batch rows per pass amortizes every W load across two
//    output rows. Measured ~1.2-1.6x over one-row streaming at wide >= 40.
//
// Both keep each element's chain `bias, +x0*w0, +x1*w1, ...` (i ascending)
// as separate in-order updates, never a reassociated pair: the chunk form
// accumulates that exact chain in a register; the streaming form replays
// it through the output row.
#include "linalg/gemm_batch.hpp"

#include <cstring>

#include "common/error.hpp"
#include "linalg/lanes.hpp"

namespace coloc::linalg {

namespace {

// Function multi-versioning, same pattern as vector_tanh: the loader picks
// the widest clone the CPU supports at first call. Helpers are
// always_inline so their bodies compile with each clone's ISA. The chunk
// and streaming shapes are cloned as *separate* functions behind a plain
// dispatcher: merging them into one cloned body makes GCC pick a shared
// (shuffle-heavy) vectorization strategy that costs the chunk path ~3.7x.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__)
#define COLOC_GEMM_BATCH_CLONES \
  __attribute__((target_clones("arch=haswell", "arch=x86-64-v4", "default")))
#define COLOC_GEMM_INLINE __attribute__((always_inline)) inline
#else
#define COLOC_GEMM_BATCH_CLONES
#define COLOC_GEMM_INLINE inline
#endif

// W output columns [c, c + W) of one row, accumulators in one register.
template <int INNER, int W>
COLOC_GEMM_INLINE void chunk_cols(const double* xr, const double* w,
                                  const double* bias, double* orow,
                                  std::size_t cols, std::size_t c) {
  detail::Lanes<W> acc{};
  detail::load_lanes<W>(acc, bias + c);
#pragma GCC unroll 8
  for (int i = 0; i < INNER; ++i) {
    detail::Lanes<W> wr{};
    detail::load_lanes<W>(wr, w + static_cast<std::size_t>(i) * cols + c);
    acc += xr[i] * wr;
  }
  detail::store_lanes<W>(orow + c, acc);
}

// Each row in 8-wide chunks, then one 4-, 2- and 1-wide chunk as the
// width needs: the 10-20-wide hidden layers never fall back to one
// scalar column at a time.
template <int INNER>
COLOC_GEMM_INLINE void chunk_rows(const double* x, const double* w,
                                  const double* bias, double* out,
                                  std::size_t m, std::size_t cols) {
  for (std::size_t r = 0; r < m; ++r) {
    const double* xr = x + r * INNER;
    double* orow = out + r * cols;
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8)
      chunk_cols<INNER, 8>(xr, w, bias, orow, cols, c);
    if (c + 4 <= cols) {
      chunk_cols<INNER, 4>(xr, w, bias, orow, cols, c);
      c += 4;
    }
    if (c + 2 <= cols) {
      chunk_cols<INNER, 2>(xr, w, bias, orow, cols, c);
      c += 2;
    }
    if (c < cols) chunk_cols<INNER, 1>(xr, w, bias, orow, cols, c);
  }
}

}  // namespace

COLOC_GEMM_BATCH_CLONES
void detail::gemm_chunk(const double* x, const double* w, const double* bias,
                        double* out, std::size_t m, std::size_t inner,
                        std::size_t cols) {
  switch (inner) {
    case 1: chunk_rows<1>(x, w, bias, out, m, cols); return;
    case 2: chunk_rows<2>(x, w, bias, out, m, cols); return;
    case 3: chunk_rows<3>(x, w, bias, out, m, cols); return;
    case 4: chunk_rows<4>(x, w, bias, out, m, cols); return;
    case 5: chunk_rows<5>(x, w, bias, out, m, cols); return;
    case 6: chunk_rows<6>(x, w, bias, out, m, cols); return;
    case 7: chunk_rows<7>(x, w, bias, out, m, cols); return;
    case 8: chunk_rows<8>(x, w, bias, out, m, cols); return;
    default: return;
  }
}

COLOC_GEMM_BATCH_CLONES
void detail::gemm_stream(const double* x, const double* w, const double* bias,
                         double* out, std::size_t m, std::size_t inner,
                         std::size_t cols) {
  std::size_t r = 0;
  for (; r + 2 <= m; r += 2) {
    const double* xr0 = x + r * inner;
    const double* xr1 = xr0 + inner;
    double* o0 = out + r * cols;
    double* o1 = o0 + cols;
    std::memcpy(o0, bias, cols * sizeof(double));
    std::memcpy(o1, bias, cols * sizeof(double));
    std::size_t i = 0;
    for (; i + 2 <= inner; i += 2) {
      const double a0 = xr0[i];
      const double a1 = xr0[i + 1];
      const double b0 = xr1[i];
      const double b1 = xr1[i + 1];
      const double* w0 = w + i * cols;
      const double* w1 = w0 + cols;
      for (std::size_t c = 0; c < cols; ++c) {
        const double wc0 = w0[c];
        const double wc1 = w1[c];
        double p = o0[c];
        p += a0 * wc0;
        p += a1 * wc1;
        o0[c] = p;
        double q = o1[c];
        q += b0 * wc0;
        q += b1 * wc1;
        o1[c] = q;
      }
    }
    if (i < inner) {
      const double a0 = xr0[i];
      const double b0 = xr1[i];
      const double* w0 = w + i * cols;
      for (std::size_t c = 0; c < cols; ++c) {
        o0[c] += a0 * w0[c];
        o1[c] += b0 * w0[c];
      }
    }
  }
  if (r < m) {
    const double* xrow = x + r * inner;
    double* orow = out + r * cols;
    std::memcpy(orow, bias, cols * sizeof(double));
    std::size_t i = 0;
    for (; i + 2 <= inner; i += 2) {
      const double x0 = xrow[i];
      const double x1 = xrow[i + 1];
      const double* w0 = w + i * cols;
      const double* w1 = w0 + cols;
      for (std::size_t c = 0; c < cols; ++c) {
        double acc = orow[c];
        acc += x0 * w0[c];
        acc += x1 * w1[c];
        orow[c] = acc;
      }
    }
    if (i < inner) {
      const double x0 = xrow[i];
      const double* w0 = w + i * cols;
      for (std::size_t c = 0; c < cols; ++c) orow[c] += x0 * w0[c];
    }
  }
}

namespace {

inline void gemm_bias_kernel(const double* x, const double* w,
                             const double* bias, double* out, std::size_t m,
                             std::size_t inner, std::size_t cols) {
  if (cols <= 32 && inner >= 1 && inner <= 8) {
    detail::gemm_chunk(x, w, bias, out, m, inner, cols);
  } else {
    detail::gemm_stream(x, w, bias, out, m, inner, cols);
  }
}

}  // namespace

void gemm_bias(const Matrix& x, const Matrix& w, std::span<const double> bias,
               Matrix& out) {
  COLOC_CHECK_MSG(x.cols() == w.rows(), "gemm_bias inner dimension mismatch");
  COLOC_CHECK_MSG(bias.size() == w.cols(), "gemm_bias bias width mismatch");
  const std::size_t m = x.rows();
  const std::size_t inner = x.cols();
  const std::size_t cols = w.cols();
  out.resize(m, cols);
  gemm_bias_kernel(x.data().data(), w.data().data(), bias.data(),
                   out.data().data(), m, inner, cols);
}

}  // namespace coloc::linalg
