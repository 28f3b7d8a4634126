// Guard-page regression test for the fused trainer's register-blocked W1
// backward (ml/mlp_fused.hpp). Every buffer the kernel touches ends
// exactly at a PROT_NONE page, so an access one element past its end
// faults instead of reading a neighbour's bytes. A vectorized clone of
// this kernel once read one row past d_a; FusedEvaluator::backward
// allocates kGw1tSpareRows extra rows for it, and so does this test.
#include "ml/mlp_fused.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace coloc::ml {
namespace {

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

TEST(MlpFusedKernel, BlockedBackwardStaysInsideGuardedBuffers) {
  constexpr std::size_t kMaxInputs = 8;
  constexpr std::size_t kMaxWide = 32;
  constexpr std::size_t kRowCounts[] = {1, 2, 3, 7, 16, 33};
  constexpr std::size_t kMaxRows = 33;
  constexpr std::size_t kSpare = detail::kGw1tSpareRows;
  GuardedBuffer x_pages(kMaxRows * kMaxInputs);
  GuardedBuffer da_pages((kMaxRows + kSpare) * kMaxWide);
  GuardedBuffer gw1t_pages(kMaxInputs * kMaxWide);
  ASSERT_TRUE(x_pages.ok() && da_pages.ok() && gw1t_pages.ok());

  Rng rng(121);
  std::size_t shapes = 0;
  for (std::size_t inputs = 1; inputs <= kMaxInputs; ++inputs) {
    for (std::size_t wide = 1; wide <= kMaxWide; ++wide) {
      for (const std::size_t m : kRowCounts) {
        const std::span<double> x = x_pages.tail(m * inputs);
        const std::span<double> da = da_pages.tail((m + kSpare) * wide);
        const std::span<double> gw1t = gw1t_pages.tail(inputs * wide);
        for (double& v : x) v = rng.uniform(-2.0, 2.0);
        for (double& v : da) v = rng.uniform(-1.0, 1.0);
        for (double& v : gw1t) v = rng.uniform(-1.0, 1.0);
        // The spare rows are slack for over-reads, never data: a NaN there
        // would poison any sum that used it.
        std::fill(da.begin() + static_cast<std::ptrdiff_t>(m * wide),
                  da.end(), std::numeric_limits<double>::quiet_NaN());

        std::vector<double> expected(gw1t.begin(), gw1t.end());
        for (std::size_t i = 0; i < inputs; ++i) {
          for (std::size_t c = 0; c < wide; ++c) {
            double acc = 0.0;
            for (std::size_t r = 0; r < m; ++r)
              acc += da[r * wide + c] * x[r * inputs + i];
            expected[i * wide + c] += acc;
          }
        }
        detail::backward_gw1t_blocked(x.data(), da.data(), gw1t.data(), m,
                                      inputs, wide);
        for (std::size_t k = 0; k < expected.size(); ++k) {
          ASSERT_EQ(gw1t[k], expected[k])
              << "inputs " << inputs << " wide " << wide << " m " << m
              << " element " << k;
        }
        ++shapes;
      }
    }
  }
  EXPECT_EQ(shapes, 1536u);
}

}  // namespace
}  // namespace coloc::ml
