// Fused multi-restart MLP training (DESIGN §13).
//
// MlpRegressor::fit stacks every restart's layer weights into one wide
// plane so each SCG iteration runs ONE batched GEMM per layer for all live
// restarts, instead of R separate small evaluations. The batched lockstep
// driver (scg_minimize_batch) masks converged restarts out of the active
// set, and splits evaluation into forward / deferred-backward phases so a
// rejected trial step never pays for a gradient it would discard.
//
// Bit-identity with restarts trained one at a time over the rowwise
// MlpNetwork::loss_and_gradient is structural, not approximate:
//  - Stacking restarts along the column axis never reorders any single
//    element's accumulation chain (gemm_batch.hpp), and vector_tanh is
//    bit-identical to scalar fast_tanh per element at any array length.
//  - Every scalar statement below (output reduction, error, loss terms,
//    d_out / d_a, each gradient accumulation) is written with the exact
//    expression shape of MlpNetwork::loss_and_gradient, so FMA contraction
//    decisions match, and every accumulator adds its per-row terms in the
//    reference order (rows ascending).
//  - The W1 gradient accumulates into a transposed scratch plane (inputs x
//    stacked-hidden, contiguous along the wide axis) and is transposed out
//    once per call — a pure permutation of where each independently
//    accumulated element is stored, with no arithmetic consequence.
//  - Every kernel puts in its vector lanes only chains that are already
//    independent (rows in the output sweep, hidden units in the backward
//    sweep, stacked columns in the W1 gradient), so no chain is split or
//    reordered (DESIGN §13, "Lane kernels").
#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/fast_math.hpp"
#include "linalg/gemm_batch.hpp"
#include "linalg/lanes.hpp"
#include "ml/mlp.hpp"
#include "ml/mlp_fused.hpp"
#include "ml/scg.hpp"
#include "obs/metrics.hpp"

namespace coloc::ml {

namespace {

// Function multi-versioning for the lane kernels, same pattern as
// vector_tanh: the loader picks the widest clone the CPU supports. The TU
// is built with -ffp-contract=off (see ml/CMakeLists.txt) so no clone
// contracts mul+add into FMA — each variant differs from the baseline
// build only in lane count, never in rounding.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__)
#define COLOC_MLP_FUSED_CLONES \
  __attribute__((target_clones("arch=haswell", "arch=x86-64-v4", "default")))
#define COLOC_MLP_FUSED_INLINE __attribute__((always_inline)) inline
#else
#define COLOC_MLP_FUSED_CLONES
#define COLOC_MLP_FUSED_INLINE inline
#endif

using linalg::detail::Lanes;
using linalg::detail::load_lanes;
using linalg::detail::store_lanes;
using linalg::detail::VectorOf;

// Output layer for eight rows of one plane, one row per lane: lane k
// carries row k's chain b2, +w2[0]*a[0], +w2[1]*a[1], ... (h ascending),
// the shape of MlpNetwork::forward. The rows' chains are independent, so
// the lanes reorder nothing.
template <int W>
COLOC_MLP_FUSED_INLINE void output_rows(const double* act, const double* w2a,
                                        double b2, double* out,
                                        std::size_t hidden, std::size_t wide,
                                        std::size_t planes) {
  // Lanes are filled one by one, so even the one-row tail is a vector.
  VectorOf<W> acc{};
  for (int k = 0; k < W; ++k) acc[k] = b2;
  for (std::size_t h = 0; h < hidden; ++h) {
    VectorOf<W> column{};
    for (int k = 0; k < W; ++k)
      column[k] = act[static_cast<std::size_t>(k) * wide + h];
    acc += w2a[h] * column;
  }
  for (int k = 0; k < W; ++k)
    out[static_cast<std::size_t>(k) * planes] = acc[k];
}

// Errors and loss terms in place of the outputs: each plane's loss adds
// 0.5 * err * err over its rows in ascending order, as
// MlpNetwork::loss_and_gradient does.
COLOC_MLP_FUSED_CLONES
void error_sweep(const double* z, double* errs, double* loss, std::size_t m,
                 std::size_t planes) {
  for (std::size_t a = 0; a < planes; ++a) {
    double sum = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      const double err = errs[r * planes + a] - z[r];
      errs[r * planes + a] = err;
      sum += 0.5 * err * err;
    }
    loss[a] = sum;
  }
}

// One backward plane's operands, each pointer at the plane's column 0.
struct PlaneCols {
  const double* act;  // row 0 of the plane's forward block
  const double* err;  // row 0 of the plane's error column
  const double* w2;
  double* gw2;
  double* gb1;
  double* da;  // row 0 of the plane's d_a block
  std::size_t m;
  std::size_t fwd_wide;
  std::size_t fwd_planes;
  std::size_t wide;
  double inv_m;
};

// Backward sweep over hidden units [c, c + N * W) of one plane, one unit
// per lane in N vectors of W lanes, then c += N * W. The accumulators stay
// in registers across the row loop and continue the chains gw2/gb1 (and
// *g_b2, which the first pass of a plane takes and clears) already hold,
// rows ascending; d_a keeps the shape d_out * w2[h] * (1 - a*a). A pass
// is bound by its accumulators' add latency rather than by its width, so
// a plane's columns go in as few passes as its width allows.
template <int N, int W>
COLOC_MLP_FUSED_INLINE void backward_cols(const PlaneCols& p, std::size_t& c,
                                          double*& g_b2) {
  Lanes<W> w[N]{}, acc_w2[N]{}, acc_b1[N]{};
#pragma GCC unroll 4
  for (int j = 0; j < N; ++j) {
    load_lanes<W>(w[j], p.w2 + c + j * W);
    load_lanes<W>(acc_w2[j], p.gw2 + c + j * W);
    load_lanes<W>(acc_b1[j], p.gb1 + c + j * W);
  }
  double acc_b2 = g_b2 != nullptr ? *g_b2 : 0.0;
  for (std::size_t r = 0; r < p.m; ++r) {
    const double d_out = p.err[r * p.fwd_planes] * p.inv_m;
    acc_b2 += d_out;
    const double* arow = p.act + r * p.fwd_wide + c;
    double* drow = p.da + r * p.wide + c;
#pragma GCC unroll 4
    for (int j = 0; j < N; ++j) {
      Lanes<W> a{};
      load_lanes<W>(a, arow + j * W);
      acc_w2[j] += d_out * a;
      const Lanes<W> d_a = d_out * w[j] * (1.0 - a * a);
      acc_b1[j] += d_a;
      store_lanes<W>(drow + j * W, d_a);
    }
  }
#pragma GCC unroll 4
  for (int j = 0; j < N; ++j) {
    store_lanes<W>(p.gw2 + c + j * W, acc_w2[j]);
    store_lanes<W>(p.gb1 + c + j * W, acc_b1[j]);
  }
  if (g_b2 != nullptr) *g_b2 = acc_b2;
  g_b2 = nullptr;
  c += N * W;
}

// W stacked columns of INNER gw1t rows, one vector per row held in a
// register across the row loop; x rows are `inputs` apart, of which this
// chunk reads INNER.
template <int INNER, int W>
COLOC_MLP_FUSED_INLINE void gw1t_chunk(const double* x, std::size_t inputs,
                                       const double* da_all, double* gw1t,
                                       std::size_t m, std::size_t wide,
                                       std::size_t c0) {
  Lanes<W> acc[INNER]{};
#pragma GCC unroll 8
  for (int i = 0; i < INNER; ++i)
    load_lanes<W>(acc[i], gw1t + static_cast<std::size_t>(i) * wide + c0);
  for (std::size_t r = 0; r < m; ++r) {
    const double* xrow = x + r * inputs;
    Lanes<W> d{};
    load_lanes<W>(d, da_all + r * wide + c0);
#pragma GCC unroll 8
    for (int i = 0; i < INNER; ++i) acc[i] += d * xrow[i];
  }
#pragma GCC unroll 8
  for (int i = 0; i < INNER; ++i)
    store_lanes<W>(gw1t + static_cast<std::size_t>(i) * wide + c0, acc[i]);
}

template <int INNER>
COLOC_MLP_FUSED_INLINE void gw1t_rows(const double* x, std::size_t inputs,
                                      const double* da_all, double* gw1t,
                                      std::size_t m, std::size_t wide) {
  std::size_t c = 0;
  for (; c + 8 <= wide; c += 8)
    gw1t_chunk<INNER, 8>(x, inputs, da_all, gw1t, m, wide, c);
  if (c + 4 <= wide) {
    gw1t_chunk<INNER, 4>(x, inputs, da_all, gw1t, m, wide, c);
    c += 4;
  }
  if (c + 2 <= wide) {
    gw1t_chunk<INNER, 2>(x, inputs, da_all, gw1t, m, wide, c);
    c += 2;
  }
  if (c < wide) gw1t_chunk<INNER, 1>(x, inputs, da_all, gw1t, m, wide, c);
}

}  // namespace

// Rows in lane chunks of 8, then one each of 4, 2 and 1 as the tail needs.
COLOC_MLP_FUSED_CLONES
void detail::forward_output_sweep(const double* act, const double* w2s,
                                  const double* b2s, double* out,
                                  std::size_t m, std::size_t planes,
                                  std::size_t hidden) {
  const std::size_t wide = planes * hidden;
  for (std::size_t a = 0; a < planes; ++a) {
    const double* aa = act + a * hidden;
    const double* w2a = w2s + a * hidden;
    const double b2 = b2s[a];
    double* oa = out + a;
    std::size_t r = 0;
    for (; r + 8 <= m; r += 8)
      output_rows<8>(aa + r * wide, w2a, b2, oa + r * planes, hidden, wide,
                     planes);
    if (r + 4 <= m) {
      output_rows<4>(aa + r * wide, w2a, b2, oa + r * planes, hidden, wide,
                     planes);
      r += 4;
    }
    if (r + 2 <= m) {
      output_rows<2>(aa + r * wide, w2a, b2, oa + r * planes, hidden, wide,
                     planes);
      r += 2;
    }
    if (r < m)
      output_rows<1>(aa + r * wide, w2a, b2, oa + r * planes, hidden, wide,
                     planes);
  }
}

// Planes outside, then hidden units in lane chunks of 32, 16, 8, 4, 2
// and 1.
COLOC_MLP_FUSED_CLONES
void detail::backward_row_sweep(const double* act, const double* errs,
                                const double* w2s, const std::size_t* fwd_slot,
                                double* g_b2, double* g_w2, double* g_b1,
                                double* da_all, std::size_t m,
                                std::size_t planes, std::size_t hidden,
                                std::size_t fwd_planes, double inv_m) {
  const std::size_t fwd_wide = fwd_planes * hidden;
  const std::size_t wide = planes * hidden;
  for (std::size_t b = 0; b < planes; ++b) {
    const std::size_t f = fwd_slot[b];
    const PlaneCols p{.act = act + f * hidden,
                      .err = errs + f,
                      .w2 = w2s + f * hidden,
                      .gw2 = g_w2 + b * hidden,
                      .gb1 = g_b1 + b * hidden,
                      .da = da_all + b * hidden,
                      .m = m,
                      .fwd_wide = fwd_wide,
                      .fwd_planes = fwd_planes,
                      .wide = wide,
                      .inv_m = inv_m};
    double* gb2 = g_b2 + b;
    std::size_t c = 0;
    while (hidden - c >= 32) backward_cols<4, 8>(p, c, gb2);
    if (hidden - c >= 16) backward_cols<2, 8>(p, c, gb2);
    if (hidden - c >= 8) backward_cols<1, 8>(p, c, gb2);
    if (hidden - c >= 4) backward_cols<1, 4>(p, c, gb2);
    if (hidden - c >= 2) backward_cols<1, 2>(p, c, gb2);
    if (hidden - c >= 1) backward_cols<1, 1>(p, c, gb2);
  }
}

// Inputs in groups of up to eight, each group's gw1t rows in registers.
COLOC_MLP_FUSED_CLONES
void detail::backward_gw1t_blocked(const double* x, const double* da_all,
                                   double* gw1t, std::size_t m,
                                   std::size_t inputs, std::size_t wide) {
  for (std::size_t i0 = 0; i0 < inputs; i0 += 8) {
    const double* xi = x + i0;
    double* g = gw1t + i0 * wide;
    switch (std::min<std::size_t>(8, inputs - i0)) {
      case 1: gw1t_rows<1>(xi, inputs, da_all, g, m, wide); break;
      case 2: gw1t_rows<2>(xi, inputs, da_all, g, m, wide); break;
      case 3: gw1t_rows<3>(xi, inputs, da_all, g, m, wide); break;
      case 4: gw1t_rows<4>(xi, inputs, da_all, g, m, wide); break;
      case 5: gw1t_rows<5>(xi, inputs, da_all, g, m, wide); break;
      case 6: gw1t_rows<6>(xi, inputs, da_all, g, m, wide); break;
      case 7: gw1t_rows<7>(xi, inputs, da_all, g, m, wide); break;
      default: gw1t_rows<8>(xi, inputs, da_all, g, m, wide); break;
    }
  }
}

namespace {

using Clock = std::chrono::steady_clock;

// The kernels train_kernel_seconds{kernel} splits the objective into.
enum Kernel : std::size_t { kGemm, kTanh, kOutput, kBackward, kGw1t };
constexpr std::array<const char*, 5> kKernelNames = {"gemm", "tanh", "output",
                                                     "backward", "gw1t"};

// Batched forward/backward kernels over the stacked restart planes, plus
// the forward cache (tanh activations and per-row errors) that backward()
// consumes. All buffers are resized per call and reuse their capacity, so
// a fit allocates only on its first iteration.
class FusedEvaluator {
 public:
  FusedEvaluator(const linalg::Matrix& x, std::span<const double> z,
                 const MlpNetwork& layout, std::size_t count,
                 double weight_decay)
      : x_(x),
        z_(z),
        inputs_(layout.num_inputs()),
        hidden_(layout.num_hidden()),
        n_(layout.num_parameters()),
        decay_(weight_decay),
        w1_off_(layout.w1_offset()),
        b1_off_(layout.b1_offset()),
        w2_off_(layout.w2_offset()),
        b2_off_(layout.b2_offset()),
        slot_of_(count, 0) {}

  void forward(std::span<const std::size_t> active,
               const std::vector<double>& points, std::span<double> values) {
    const auto t0 = Clock::now();
    const std::size_t m = x_.rows();
    const std::size_t hidden = hidden_;
    const std::size_t planes = active.size();
    const std::size_t wide = planes * hidden;

    // Gather the active restarts' layers into stacked planes. W1 is
    // transposed (inputs x wide) so the GEMM streams contiguously along
    // the stacked hidden axis.
    w1t_.resize(inputs_, wide);
    b1_s_.resize(wide);
    w2_s_.resize(wide);
    b2_s_.resize(planes);
    for (std::size_t a = 0; a < planes; ++a) {
      const std::size_t j = active[a];
      slot_of_[j] = a;
      const double* pj = points.data() + j * n_;
      for (std::size_t h = 0; h < hidden; ++h)
        for (std::size_t i = 0; i < inputs_; ++i)
          w1t_(i, a * hidden + h) = pj[w1_off_ + h * inputs_ + i];
      std::memcpy(b1_s_.data() + a * hidden, pj + b1_off_,
                  hidden * sizeof(double));
      std::memcpy(w2_s_.data() + a * hidden, pj + w2_off_,
                  hidden * sizeof(double));
      b2_s_[a] = pj[b2_off_];
    }

    auto t = Clock::now();
    linalg::gemm_bias(x_, w1t_, b1_s_, act_);
    t = lap(kGemm, t);
    linalg::vector_tanh(act_.data().data(), m * wide);
    t = lap(kTanh, t);

    errs_.resize(m, planes);
    loss_.resize(planes);
    detail::forward_output_sweep(act_.data().data(), w2_s_.data(),
                                 b2_s_.data(), errs_.data().data(), m, planes,
                                 hidden);
    error_sweep(z_.data(), errs_.data().data(), loss_.data(), m, planes);
    lap(kOutput, t);

    const double inv_m = 1.0 / static_cast<double>(m);
    for (std::size_t a = 0; a < planes; ++a) {
      const std::size_t j = active[a];
      double loss = loss_[a] * inv_m;
      if (decay_ > 0.0) {
        const double* pj = points.data() + j * n_;
        double wnorm = 0.0;
        for (std::size_t i = 0; i < n_; ++i) wnorm += pj[i] * pj[i];
        loss += 0.5 * decay_ * wnorm;
      }
      values[j] = loss;
    }
    cached_points_ = &points;
    objective_seconds_ +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void backward(std::span<const std::size_t> active,
                std::vector<double>& grads) {
    const auto t0 = Clock::now();
    const std::size_t m = x_.rows();
    const std::size_t hidden = hidden_;
    const std::size_t planes = active.size();
    const std::size_t wide = planes * hidden;
    const double inv_m = 1.0 / static_cast<double>(m);

    // Stacked accumulators for the backward subset. fwd_slot_ maps each
    // backward slot to its column block in the cached forward planes (the
    // subset may skip restarts whose trial step was rejected). Every chain
    // starts at zero here and continues across the row blocks.
    fwd_slot_.resize(planes);
    for (std::size_t b = 0; b < planes; ++b) fwd_slot_[b] = slot_of_[active[b]];
    g_b2_.assign(planes, 0.0);
    g_w2_.assign(wide, 0.0);
    g_b1_.assign(wide, 0.0);
    gw1t_.resize(inputs_, wide);
    std::fill(gw1t_.data().begin(), gw1t_.data().end(), 0.0);

    // Row blocks: the sweep stages a block's d_a, the W1 gradient consumes
    // it while it is still in cache.
    const std::size_t fwd_planes = errs_.cols();
    const std::size_t fwd_wide = fwd_planes * hidden;
    const std::size_t block =
        std::max<std::size_t>(1, detail::kBackwardBlockDoubles / wide);
    da_.resize(std::min(block, m) * wide);
    auto t = Clock::now();
    for (std::size_t r0 = 0; r0 < m; r0 += block) {
      const std::size_t rows = std::min(block, m - r0);
      detail::backward_row_sweep(
          act_.data().data() + r0 * fwd_wide,
          errs_.data().data() + r0 * fwd_planes, w2_s_.data(),
          fwd_slot_.data(), g_b2_.data(), g_w2_.data(), g_b1_.data(),
          da_.data(), rows, planes, hidden, fwd_planes, inv_m);
      t = lap(kBackward, t);
      detail::backward_gw1t_blocked(x_.data().data() + r0 * inputs_,
                                    da_.data(), gw1t_.data().data(), rows,
                                    inputs_, wide);
      t = lap(kGw1t, t);
    }

    // Scatter the stacked accumulators back into each restart's packed
    // gradient row, then apply the weight-decay term exactly as the
    // rowwise loss_and_gradient's trailing pass does.
    for (std::size_t b = 0; b < planes; ++b) {
      const std::size_t j = active[b];
      double* gj = grads.data() + j * n_;
      for (std::size_t h = 0; h < hidden; ++h)
        for (std::size_t i = 0; i < inputs_; ++i)
          gj[w1_off_ + h * inputs_ + i] = gw1t_(i, b * hidden + h);
      std::memcpy(gj + b1_off_, g_b1_.data() + b * hidden,
                  hidden * sizeof(double));
      std::memcpy(gj + w2_off_, g_w2_.data() + b * hidden,
                  hidden * sizeof(double));
      gj[b2_off_] = g_b2_[b];
      if (decay_ > 0.0) {
        const double* pj = cached_points_->data() + j * n_;
        for (std::size_t i = 0; i < n_; ++i) gj[i] += decay_ * pj[i];
      }
    }
    objective_seconds_ +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // Wall seconds inside forward() and backward(), gathers and scatters
  // included, and the share of it each kernel took.
  double objective_seconds() const { return objective_seconds_; }
  double kernel_seconds(Kernel k) const { return kernel_seconds_[k]; }

 private:
  const linalg::Matrix& x_;
  std::span<const double> z_;
  std::size_t inputs_;
  std::size_t hidden_;
  std::size_t n_;
  double decay_;
  std::size_t w1_off_;
  std::size_t b1_off_;
  std::size_t w2_off_;
  std::size_t b2_off_;

  // Forward cache (latest call).
  std::vector<std::size_t> slot_of_;
  const std::vector<double>* cached_points_ = nullptr;
  linalg::Matrix w1t_;
  std::vector<double> b1_s_;
  std::vector<double> w2_s_;
  std::vector<double> b2_s_;
  linalg::Matrix act_;
  linalg::Matrix errs_;
  std::vector<double> loss_;

  // Backward scratch.
  std::vector<std::size_t> fwd_slot_;
  std::vector<double> g_b2_;
  std::vector<double> g_w2_;
  std::vector<double> g_b1_;
  std::vector<double> da_;
  linalg::Matrix gw1t_;

  double objective_seconds_ = 0.0;
  std::array<double, kKernelNames.size()> kernel_seconds_{};

  // Books the time since `since` to kernel k; returns now.
  Clock::time_point lap(Kernel k, Clock::time_point since) {
    const Clock::time_point now = Clock::now();
    kernel_seconds_[k] += std::chrono::duration<double>(now - since).count();
    return now;
  }
};

}  // namespace

MlpRegressor MlpRegressor::fit(const linalg::Matrix& x,
                               std::span<const double> y,
                               const MlpOptions& options) {
  COLOC_CHECK_MSG(x.rows() == y.size(), "row/target count mismatch");
  COLOC_CHECK_MSG(x.rows() >= 2, "MLP needs at least two observations");

  linalg::Matrix design = x;
  Standardizer scaler = Standardizer::fit(design);
  scaler.transform(design);
  TargetScaler target = TargetScaler::fit(y);
  const std::vector<double> z = target.transform_all(y);

  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);

  // Restart 0 draws from Rng(options.seed), so adding restarts never
  // changes it; restart k > 0 draws from an independent (seed, k)-derived
  // stream, so every restart is a pure function of its index.
  MlpNetwork net(x.cols(), options.hidden_units);
  const std::size_t n = net.num_parameters();
  std::vector<double> initial(restarts * n);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    std::uint64_t seed = options.seed;
    if (attempt != 0) {
      std::uint64_t s = options.seed ^ (0xa0761d6478bd642fULL *
                                        static_cast<std::uint64_t>(attempt));
      seed = splitmix64(s);
    }
    Rng rng(seed);
    net.initialize(rng);
    std::copy_n(net.parameters().data(), n, initial.data() + attempt * n);
  }

  FusedEvaluator evaluator(design, z, net, restarts, options.weight_decay);
  ScgBatchObjective objective{
      .dimension = n,
      .count = restarts,
      .forward =
          [&](std::span<const std::size_t> active,
              const std::vector<double>& points, std::span<double> values) {
            evaluator.forward(active, points, values);
          },
      .backward =
          [&](std::span<const std::size_t> active,
              std::vector<double>& grads) {
            evaluator.backward(active, grads);
          },
  };
  ScgOptions scg_options;
  scg_options.max_iterations = options.max_iterations;
  scg_options.gradient_tolerance = options.gradient_tolerance;
  const std::vector<ScgResult> results =
      scg_minimize_batch(objective, initial, scg_options);
  static obs::Histogram& gemm_seconds =
      obs::Registry::global().histogram("train_gemm_seconds");
  gemm_seconds.observe(evaluator.objective_seconds());
  static const std::array<obs::Histogram*, kKernelNames.size()> kernel_hist =
      [] {
        std::array<obs::Histogram*, kKernelNames.size()> hist{};
        for (std::size_t k = 0; k < hist.size(); ++k)
          hist[k] = &obs::Registry::global().histogram(
              "train_kernel_seconds", {{"kernel", kKernelNames[k]}});
        return hist;
      }();
  for (std::size_t k = 0; k < kernel_hist.size(); ++k)
    kernel_hist[k]->observe(evaluator.kernel_seconds(static_cast<Kernel>(k)));

  // Final per-restart loss via the scalar loss(), then the strict-< scan:
  // ties go to the lowest restart index.
  std::vector<double> final_loss(restarts,
                                 std::numeric_limits<double>::infinity());
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    net.set_parameters(results[attempt].solution);
    final_loss[attempt] = net.loss(design, z, options.weight_decay);
  }
  std::size_t best = 0;
  for (std::size_t attempt = 1; attempt < restarts; ++attempt) {
    if (final_loss[attempt] < final_loss[best]) best = attempt;
  }

  net.set_parameters(results[best].solution);
  MlpRegressor model(std::move(net), std::move(scaler), std::move(target));
  model.training_loss_ = final_loss[best];
  model.iterations_used_ = results[best].iterations;
  return model;
}

}  // namespace coloc::ml
