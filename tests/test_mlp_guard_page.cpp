// Guard-page regression tests for the fused trainer's lane kernels
// (ml/mlp_fused.hpp) and the two batched-GEMM shapes (linalg/gemm_batch.hpp).
// Every buffer a kernel touches ends exactly at a PROT_NONE page, so an
// access one element past its end faults instead of reading or writing a
// neighbour's bytes. Each kernel is compared, bit for bit, with the scalar
// loop it replaces.
#include "ml/mlp_fused.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/gemm_batch.hpp"

namespace coloc::ml {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Read-write pages followed by one PROT_NONE page; tail(n) is the n
/// doubles that end exactly at the guard page.
class GuardedBuffer {
 public:
  explicit GuardedBuffer(std::size_t max_doubles) {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    usable_ = (max_doubles * sizeof(double) + page_ - 1) / page_ * page_;
    void* p = mmap(nullptr, usable_ + page_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;
    base_ = static_cast<char*>(p);
    guarded_ = mprotect(base_ + usable_, page_, PROT_NONE) == 0;
  }
  ~GuardedBuffer() {
    if (base_ != nullptr) munmap(base_, usable_ + page_);
  }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  bool ok() const { return guarded_; }
  std::span<double> tail(std::size_t n) {
    return {reinterpret_cast<double*>(base_ + usable_) - n, n};
  }

 private:
  std::size_t page_ = 0;
  std::size_t usable_ = 0;
  char* base_ = nullptr;
  bool guarded_ = false;
};

void fill(std::span<double> v, Rng& rng, double lo, double hi) {
  for (double& x : v) x = rng.uniform(lo, hi);
}

// Bit-identical, element by element.
void expect_same(std::span<const double> got, const std::vector<double>& want,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < want.size(); ++k)
    ASSERT_EQ(got[k], want[k]) << what << " element " << k;
}

// The sweeps' shapes: every stacked width up to four 8-lane vectors, one
// to three planes, and row counts around the 8-row lane chunks.
constexpr std::size_t kMaxHidden = 32;
constexpr std::size_t kMaxPlanes = 3;
constexpr std::size_t kSweepRows[] = {1, 2, 3, 7, 8, 9, 16, 33};
constexpr std::size_t kMaxSweepRows = 33;
constexpr std::size_t kSweepShapes = kMaxHidden * kMaxPlanes * 8;

TEST(MlpFusedKernel, BlockedBackwardStaysInsideGuardedBuffers) {
  constexpr std::size_t kMaxInputs = 8;
  constexpr std::size_t kMaxWide = 32;
  constexpr std::size_t kRowCounts[] = {1, 2, 3, 7, 16, 33};
  constexpr std::size_t kMaxRows = 33;
  GuardedBuffer x_pages(kMaxRows * kMaxInputs);
  GuardedBuffer da_pages(kMaxRows * kMaxWide);
  GuardedBuffer gw1t_pages(kMaxInputs * kMaxWide);
  ASSERT_TRUE(x_pages.ok() && da_pages.ok() && gw1t_pages.ok());

  Rng rng(121);
  std::size_t shapes = 0;
  for (std::size_t inputs = 1; inputs <= kMaxInputs; ++inputs) {
    for (std::size_t wide = 1; wide <= kMaxWide; ++wide) {
      for (const std::size_t m : kRowCounts) {
        const std::span<double> x = x_pages.tail(m * inputs);
        const std::span<double> da = da_pages.tail(m * wide);
        const std::span<double> gw1t = gw1t_pages.tail(inputs * wide);
        fill(x, rng, -2.0, 2.0);
        fill(da, rng, -1.0, 1.0);
        fill(gw1t, rng, -1.0, 1.0);

        // Each element continues its chain from the value it holds.
        std::vector<double> expected(gw1t.begin(), gw1t.end());
        for (std::size_t i = 0; i < inputs; ++i) {
          for (std::size_t c = 0; c < wide; ++c) {
            double& acc = expected[i * wide + c];
            for (std::size_t r = 0; r < m; ++r)
              acc += da[r * wide + c] * x[r * inputs + i];
          }
        }
        detail::backward_gw1t_blocked(x.data(), da.data(), gw1t.data(), m,
                                      inputs, wide);
        SCOPED_TRACE(testing::Message() << "inputs " << inputs << " wide "
                                        << wide << " m " << m);
        expect_same(gw1t, expected, "gw1t");
        ++shapes;
      }
    }
  }
  EXPECT_EQ(shapes, 1536u);
}

TEST(MlpFusedKernel, OutputSweepStaysInsideGuardedBuffers) {
  GuardedBuffer act_pages(kMaxSweepRows * kMaxPlanes * kMaxHidden);
  GuardedBuffer w2_pages(kMaxPlanes * kMaxHidden);
  GuardedBuffer b2_pages(kMaxPlanes);
  GuardedBuffer out_pages(kMaxSweepRows * kMaxPlanes);
  ASSERT_TRUE(act_pages.ok() && w2_pages.ok() && b2_pages.ok() &&
              out_pages.ok());

  Rng rng(123);
  std::size_t shapes = 0;
  for (std::size_t hidden = 1; hidden <= kMaxHidden; ++hidden) {
    for (std::size_t planes = 1; planes <= kMaxPlanes; ++planes) {
      for (const std::size_t m : kSweepRows) {
        const std::size_t wide = planes * hidden;
        const std::span<double> act = act_pages.tail(m * wide);
        const std::span<double> w2 = w2_pages.tail(wide);
        const std::span<double> b2 = b2_pages.tail(planes);
        const std::span<double> out = out_pages.tail(m * planes);
        fill(act, rng, -1.0, 1.0);
        fill(w2, rng, -1.0, 1.0);
        fill(b2, rng, -1.0, 1.0);
        std::fill(out.begin(), out.end(), kNaN);

        // MlpNetwork::forward's chain per (row, plane).
        std::vector<double> expected(m * planes);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t a = 0; a < planes; ++a) {
            double o = b2[a];
            for (std::size_t h = 0; h < hidden; ++h)
              o += w2[a * hidden + h] * act[r * wide + a * hidden + h];
            expected[r * planes + a] = o;
          }
        }
        detail::forward_output_sweep(act.data(), w2.data(), b2.data(),
                                     out.data(), m, planes, hidden);
        SCOPED_TRACE(testing::Message() << "hidden " << hidden << " planes "
                                        << planes << " m " << m);
        expect_same(out, expected, "out");
        ++shapes;
      }
    }
  }
  EXPECT_EQ(shapes, kSweepShapes);
}

TEST(MlpFusedKernel, BackwardRowSweepStaysInsideGuardedBuffers) {
  // Backward plane b reads forward block fwd_slot[b]; reversed slots make
  // any mix-up of the two indices show.
  GuardedBuffer act_pages(kMaxSweepRows * kMaxPlanes * kMaxHidden);
  GuardedBuffer errs_pages(kMaxSweepRows * kMaxPlanes);
  GuardedBuffer w2_pages(kMaxPlanes * kMaxHidden);
  GuardedBuffer gb2_pages(kMaxPlanes);
  GuardedBuffer gw2_pages(kMaxPlanes * kMaxHidden);
  GuardedBuffer gb1_pages(kMaxPlanes * kMaxHidden);
  GuardedBuffer da_pages(kMaxSweepRows * kMaxPlanes * kMaxHidden);
  ASSERT_TRUE(act_pages.ok() && errs_pages.ok() && w2_pages.ok() &&
              gb2_pages.ok() && gw2_pages.ok() && gb1_pages.ok() &&
              da_pages.ok());

  Rng rng(125);
  std::size_t shapes = 0;
  for (std::size_t hidden = 1; hidden <= kMaxHidden; ++hidden) {
    for (std::size_t planes = 1; planes <= kMaxPlanes; ++planes) {
      for (const std::size_t m : kSweepRows) {
        const std::size_t wide = planes * hidden;
        const double inv_m = 1.0 / static_cast<double>(m);
        std::vector<std::size_t> slot(planes);
        std::iota(slot.rbegin(), slot.rend(), std::size_t{0});
        const std::span<double> act = act_pages.tail(m * wide);
        const std::span<double> errs = errs_pages.tail(m * planes);
        const std::span<double> w2 = w2_pages.tail(wide);
        const std::span<double> gb2 = gb2_pages.tail(planes);
        const std::span<double> gw2 = gw2_pages.tail(wide);
        const std::span<double> gb1 = gb1_pages.tail(wide);
        const std::span<double> da = da_pages.tail(m * wide);
        fill(act, rng, -1.0, 1.0);
        fill(errs, rng, -1.0, 1.0);
        fill(w2, rng, -1.0, 1.0);
        fill(gb2, rng, -1.0, 1.0);
        fill(gw2, rng, -1.0, 1.0);
        fill(gb1, rng, -1.0, 1.0);
        std::fill(da.begin(), da.end(), kNaN);

        // MlpNetwork::loss_and_gradient's statements per plane, each chain
        // continuing from the value it holds, rows ascending.
        std::vector<double> want_gb2(gb2.begin(), gb2.end());
        std::vector<double> want_gw2(gw2.begin(), gw2.end());
        std::vector<double> want_gb1(gb1.begin(), gb1.end());
        std::vector<double> want_da(m * wide);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t b = 0; b < planes; ++b) {
            const std::size_t f = slot[b];
            const double d_out = errs[r * planes + f] * inv_m;
            want_gb2[b] += d_out;
            for (std::size_t h = 0; h < hidden; ++h) {
              const double a = act[r * wide + f * hidden + h];
              want_gw2[b * hidden + h] += d_out * a;
              const double d_a = d_out * w2[f * hidden + h] * (1.0 - a * a);
              want_gb1[b * hidden + h] += d_a;
              want_da[r * wide + b * hidden + h] = d_a;
            }
          }
        }
        detail::backward_row_sweep(act.data(), errs.data(), w2.data(),
                                   slot.data(), gb2.data(), gw2.data(),
                                   gb1.data(), da.data(), m, planes, hidden,
                                   planes, inv_m);
        SCOPED_TRACE(testing::Message() << "hidden " << hidden << " planes "
                                        << planes << " m " << m);
        expect_same(gb2, want_gb2, "g_b2");
        expect_same(gw2, want_gw2, "g_w2");
        expect_same(gb1, want_gb1, "g_b1");
        expect_same(da, want_da, "d_a");
        ++shapes;
      }
    }
  }
  EXPECT_EQ(shapes, kSweepShapes);
}

// Both GEMM shapes against the rowwise chain bias, +x0*w0, +x1*w1, ...
// The chunk kernel serves inputs 1-8 at up to 32 columns; the streaming
// kernel takes any shape, so it also runs past 8 inputs and 32 columns.
void check_gemm(bool chunk, std::size_t max_inner, std::size_t max_cols,
                std::uint64_t seed) {
  constexpr std::size_t kRowCounts[] = {1, 2, 3, 7, 8, 9, 16, 33};
  constexpr std::size_t kMaxRows = 33;
  GuardedBuffer x_pages(kMaxRows * max_inner);
  GuardedBuffer w_pages(max_inner * max_cols);
  GuardedBuffer bias_pages(max_cols);
  GuardedBuffer out_pages(kMaxRows * max_cols);
  ASSERT_TRUE(x_pages.ok() && w_pages.ok() && bias_pages.ok() &&
              out_pages.ok());

  Rng rng(seed);
  for (std::size_t inner = 1; inner <= max_inner; ++inner) {
    for (std::size_t cols = 1; cols <= max_cols; ++cols) {
      for (const std::size_t m : kRowCounts) {
        const std::span<double> x = x_pages.tail(m * inner);
        const std::span<double> w = w_pages.tail(inner * cols);
        const std::span<double> bias = bias_pages.tail(cols);
        const std::span<double> out = out_pages.tail(m * cols);
        fill(x, rng, -2.0, 2.0);
        fill(w, rng, -1.0, 1.0);
        fill(bias, rng, -1.0, 1.0);
        std::fill(out.begin(), out.end(), kNaN);

        std::vector<double> expected(m * cols);
        for (std::size_t r = 0; r < m; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            double acc = bias[c];
            for (std::size_t i = 0; i < inner; ++i)
              acc += x[r * inner + i] * w[i * cols + c];
            expected[r * cols + c] = acc;
          }
        }
        if (chunk) {
          linalg::detail::gemm_chunk(x.data(), w.data(), bias.data(),
                                     out.data(), m, inner, cols);
        } else {
          linalg::detail::gemm_stream(x.data(), w.data(), bias.data(),
                                      out.data(), m, inner, cols);
        }
        SCOPED_TRACE(testing::Message() << "inner " << inner << " cols "
                                        << cols << " m " << m);
        expect_same(out, expected, "out");
      }
    }
  }
}

TEST(MlpFusedKernel, GemmChunkStaysInsideGuardedBuffers) {
  check_gemm(true, 8, 32, 127);
}

TEST(MlpFusedKernel, GemmStreamStaysInsideGuardedBuffers) {
  check_gemm(false, 11, 40, 129);
}

}  // namespace
}  // namespace coloc::ml
