// Fused multi-restart MLP training (DESIGN §13).
//
// MlpRegressor::fit_fused stacks every restart's layer weights into one
// wide plane so each SCG iteration runs ONE batched GEMM per layer for all
// live restarts, instead of R separate small evaluations. The batched
// lockstep driver (scg_minimize_batch) masks converged restarts out of the
// active set, and splits evaluation into forward / deferred-backward
// phases so a rejected trial step never pays for a gradient it would
// discard.
//
// Bit-identity with the sequential fit is structural, not approximate:
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
#include <chrono>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/fast_math.hpp"
#include "linalg/gemm_batch.hpp"
#include "ml/mlp.hpp"
#include "ml/scg.hpp"
#include "obs/metrics.hpp"

namespace coloc::ml {

namespace {

// Function multi-versioning for the two hot row sweeps, same pattern as
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

// Output layer + loss terms for every stacked plane: one pass over the
// cached activations. Statement shapes mirror MlpNetwork::loss_and_gradient
// exactly (see the bit-identity argument at the top of this file).
COLOC_MLP_FUSED_CLONES
void forward_output_sweep(const double* act, const double* w2s,
                          const double* b2s, const double* z, double* errs,
                          double* loss, std::size_t m, std::size_t planes,
                          std::size_t hidden) {
  const std::size_t wide = planes * hidden;
  for (std::size_t r = 0; r < m; ++r) {
    const double* arow = act + r * wide;
    double* erow = errs + r * planes;
    const double zr = z[r];
    for (std::size_t a = 0; a < planes; ++a) {
      const double* w2a = w2s + a * hidden;
      const double* aa = arow + a * hidden;
      double out = b2s[a];
      for (std::size_t h = 0; h < hidden; ++h) out += w2a[h] * aa[h];
      const double err = out - zr;
      erow[a] = err;
      loss[a] += 0.5 * err * err;
    }
  }
}

// Full backward row sweep over the stacked planes. fwd_slot maps each
// backward slot to its column block in the cached forward planes (the
// backward subset may skip restarts whose trial step was rejected).
COLOC_MLP_FUSED_CLONES
void backward_sweep(const double* act, const double* errs, const double* x,
                    const double* w2s, const std::size_t* fwd_slot,
                    double* g_b2, double* d_out_buf, double* g_w2,
                    double* g_b1, double* da, double* gw1t, std::size_t m,
                    std::size_t planes, std::size_t hidden,
                    std::size_t fwd_planes, std::size_t inputs,
                    double inv_m) {
  const std::size_t fwd_wide = fwd_planes * hidden;
  const std::size_t wide = planes * hidden;
  for (std::size_t r = 0; r < m; ++r) {
    const double* arow = act + r * fwd_wide;
    const double* erow = errs + r * fwd_planes;
    const double* xrow = x + r * inputs;
    for (std::size_t b = 0; b < planes; ++b) {
      const double d_out = erow[fwd_slot[b]] * inv_m;
      d_out_buf[b] = d_out;
      g_b2[b] += d_out;
    }
    for (std::size_t b = 0; b < planes; ++b) {
      const double d_out = d_out_buf[b];
      const double* aa = arow + fwd_slot[b] * hidden;
      const double* w2a = w2s + fwd_slot[b] * hidden;
      double* gw2 = g_w2 + b * hidden;
      double* gb1 = g_b1 + b * hidden;
      double* dab = da + b * hidden;
      for (std::size_t h = 0; h < hidden; ++h) {
        gw2[h] += d_out * aa[h];
        const double d_a = d_out * w2a[h] * (1.0 - aa[h] * aa[h]);
        gb1[h] += d_a;
        dab[h] = d_a;
      }
    }
    for (std::size_t i = 0; i < inputs; ++i) {
      const double xri = xrow[i];
      double* grow = gw1t + i * wide;
      for (std::size_t c = 0; c < wide; ++c) grow[c] += da[c] * xri;
    }
  }
}

// Two-pass backward for small working sets: pass 1 is the same per-row
// sweep as backward_sweep minus the W1 accumulation, storing d_a for every
// row; pass 2 rebuilds the W1 gradient with each 8-column chunk of every
// input row held in registers across the whole row loop, eliminating the
// per-row load/store traffic on gw1t (~2x the arithmetic in memory ops at
// planes=1). Each gw1t element still adds its per-row terms in rows-
// ascending order — a register accumulator replays the identical chain —
// so the split is bit-identical to the one-pass sweep.
COLOC_MLP_FUSED_CLONES
void backward_row_sweep(const double* act, const double* errs,
                        const double* w2s, const std::size_t* fwd_slot,
                        double* g_b2, double* d_out_buf, double* g_w2,
                        double* g_b1, double* da_all, std::size_t m,
                        std::size_t planes, std::size_t hidden,
                        std::size_t fwd_planes, double inv_m) {
  const std::size_t fwd_wide = fwd_planes * hidden;
  const std::size_t wide = planes * hidden;
  for (std::size_t r = 0; r < m; ++r) {
    const double* arow = act + r * fwd_wide;
    const double* erow = errs + r * fwd_planes;
    double* da = da_all + r * wide;
    for (std::size_t b = 0; b < planes; ++b) {
      const double d_out = erow[fwd_slot[b]] * inv_m;
      d_out_buf[b] = d_out;
      g_b2[b] += d_out;
    }
    for (std::size_t b = 0; b < planes; ++b) {
      const double d_out = d_out_buf[b];
      const double* aa = arow + fwd_slot[b] * hidden;
      const double* w2a = w2s + fwd_slot[b] * hidden;
      double* gw2 = g_w2 + b * hidden;
      double* gb1 = g_b1 + b * hidden;
      double* dab = da + b * hidden;
      for (std::size_t h = 0; h < hidden; ++h) {
        gw2[h] += d_out * aa[h];
        const double d_a = d_out * w2a[h] * (1.0 - aa[h] * aa[h]);
        gb1[h] += d_a;
        dab[h] = d_a;
      }
    }
  }
}

template <int INNER, int W>
COLOC_MLP_FUSED_INLINE void gw1t_chunk(const double* x, const double* da_all,
                                       double* gw1t, std::size_t m,
                                       std::size_t wide, std::size_t c0) {
  double acc[INNER][W];
  for (int i = 0; i < INNER; ++i)
    for (int k = 0; k < W; ++k) acc[i][k] = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double* xrow = x + r * INNER;
    const double* dac = da_all + r * wide + c0;
#pragma GCC unroll 8
    for (int i = 0; i < INNER; ++i) {
      const double xi = xrow[i];
      for (int k = 0; k < W; ++k) acc[i][k] += dac[k] * xi;
    }
  }
  for (int i = 0; i < INNER; ++i) {
    double* grow = gw1t + static_cast<std::size_t>(i) * wide + c0;
    for (int k = 0; k < W; ++k) grow[k] += acc[i][k];
  }
}

template <int INNER>
COLOC_MLP_FUSED_INLINE void gw1t_rows(const double* x, const double* da_all,
                                      double* gw1t, std::size_t m,
                                      std::size_t wide) {
  std::size_t c = 0;
  for (; c + 8 <= wide; c += 8) {
    gw1t_chunk<INNER, 8>(x, da_all, gw1t, m, wide, c);
  }
  if (c + 4 <= wide) {
    gw1t_chunk<INNER, 4>(x, da_all, gw1t, m, wide, c);
    c += 4;
  }
  for (; c < wide; ++c) gw1t_chunk<INNER, 1>(x, da_all, gw1t, m, wide, c);
}

COLOC_MLP_FUSED_CLONES
void backward_gw1t_blocked(const double* x, const double* da_all,
                           double* gw1t, std::size_t m, std::size_t inputs,
                           std::size_t wide) {
  switch (inputs) {
    case 1: gw1t_rows<1>(x, da_all, gw1t, m, wide); return;
    case 2: gw1t_rows<2>(x, da_all, gw1t, m, wide); return;
    case 3: gw1t_rows<3>(x, da_all, gw1t, m, wide); return;
    case 4: gw1t_rows<4>(x, da_all, gw1t, m, wide); return;
    case 5: gw1t_rows<5>(x, da_all, gw1t, m, wide); return;
    case 6: gw1t_rows<6>(x, da_all, gw1t, m, wide); return;
    case 7: gw1t_rows<7>(x, da_all, gw1t, m, wide); return;
    case 8: gw1t_rows<8>(x, da_all, gw1t, m, wide); return;
    default: return;
  }
}

/// The blocked backward stages d_a for every row, so it only pays off
/// while that buffer stays cache-resident; past ~1.25 MB the extra
/// traffic loses to the one-pass sweep (measured 0.77x at 16 planes).
constexpr std::size_t kBlockedBackwardLimit = 160'000;  // m * wide elements

struct FusedMetrics {
  obs::Histogram& gemm_seconds;

  static FusedMetrics& get() {
    auto& registry = obs::Registry::global();
    static FusedMetrics metrics{
        registry.histogram("train_gemm_seconds"),
    };
    return metrics;
  }
};

using Clock = std::chrono::steady_clock;

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

    linalg::gemm_bias(x_, w1t_, b1_s_, act_);
    linalg::vector_tanh(act_.data().data(), m * wide);

    errs_.resize(m, planes);
    loss_.assign(planes, 0.0);
    forward_output_sweep(act_.data().data(), w2_s_.data(), b2_s_.data(),
                         z_.data(), errs_.data().data(), loss_.data(), m,
                         planes, hidden);

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
    kernel_seconds_ +=
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
    // subset may skip restarts whose trial step was rejected).
    fwd_slot_.resize(planes);
    for (std::size_t b = 0; b < planes; ++b) fwd_slot_[b] = slot_of_[active[b]];
    g_b2_.assign(planes, 0.0);
    d_out_.resize(planes);
    g_w2_.assign(wide, 0.0);
    g_b1_.assign(wide, 0.0);
    gw1t_.resize(inputs_, wide);
    std::fill(gw1t_.data().begin(), gw1t_.data().end(), 0.0);

    const bool blocked =
        inputs_ >= 1 && inputs_ <= 8 && m * wide <= kBlockedBackwardLimit;
    if (blocked) {
      // One spare row past m: GCC 12's x86-64-v4 clone of
      // gw1t_chunk<8, 4> loads each row's four d_a columns together with
      // the next row's and permutes the second half away, so on the last
      // row it reads up to one row past the end. Without the spare row
      // that read faults whenever the buffer ends at an unmapped page.
      da_.resize((m + 1) * wide);
      backward_row_sweep(act_.data().data(), errs_.data().data(),
                         w2_s_.data(), fwd_slot_.data(), g_b2_.data(),
                         d_out_.data(), g_w2_.data(), g_b1_.data(),
                         da_.data(), m, planes, hidden, errs_.cols(), inv_m);
      backward_gw1t_blocked(x_.data().data(), da_.data(),
                            gw1t_.data().data(), m, inputs_, wide);
    } else {
      da_.resize(wide);
      backward_sweep(act_.data().data(), errs_.data().data(),
                     x_.data().data(), w2_s_.data(), fwd_slot_.data(),
                     g_b2_.data(), d_out_.data(), g_w2_.data(), g_b1_.data(),
                     da_.data(), gw1t_.data().data(), m, planes, hidden,
                     errs_.cols(), inputs_, inv_m);
    }

    // Scatter the stacked accumulators back into each restart's packed
    // gradient row, then apply the weight-decay term exactly as the
    // sequential path's trailing pass does.
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
    kernel_seconds_ +=
        std::chrono::duration<double>(Clock::now() - t0).count();
  }

  double kernel_seconds() const { return kernel_seconds_; }

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
  std::vector<double> d_out_;
  std::vector<double> g_w2_;
  std::vector<double> g_b1_;
  std::vector<double> da_;
  linalg::Matrix gw1t_;

  double kernel_seconds_ = 0.0;
};

}  // namespace

MlpRegressor MlpRegressor::fit_fused(const linalg::Matrix& x,
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

  // Identical initialization to the sequential path: restart 0 draws from
  // Rng(options.seed), restart k > 0 from the (seed, k)-derived stream.
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
  FusedMetrics::get().gemm_seconds.observe(evaluator.kernel_seconds());

  // Final per-restart loss via the scalar loss() — the exact evaluation
  // the sequential path scores attempts with — then the strict-< scan:
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
