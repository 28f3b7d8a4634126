#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "linalg/fast_math.hpp"
#include "ml/scg.hpp"

namespace coloc::ml {

namespace {

// Per-thread batch scratch, reused across every loss_and_gradient /
// forward_all call on this thread (SCG evaluates the objective hundreds of
// times per fit; reallocating an m x hidden activations matrix each time
// would dominate small-batch evaluations). Thread-locality keeps fits on
// parallel validation partitions isolated; the buffers carry no state
// between calls — every element is overwritten before use.
struct BatchScratch {
  linalg::Matrix activations;  // m x hidden: pre-activations, then tanh
  linalg::Matrix w1t;          // inputs x hidden: W1 transposed for the GEMM

  static BatchScratch& local() {
    thread_local BatchScratch scratch;
    return scratch;
  }
};

}  // namespace

MlpNetwork::MlpNetwork(std::size_t inputs, std::size_t hidden)
    : inputs_(inputs), hidden_(hidden) {
  COLOC_CHECK_MSG(inputs > 0 && hidden > 0, "MLP needs inputs and hidden > 0");
  params_.assign(num_parameters(), 0.0);
}

std::size_t MlpNetwork::num_parameters() const {
  return hidden_ * inputs_ + hidden_ + hidden_ + 1;
}

void MlpNetwork::set_parameters(std::span<const double> p) {
  COLOC_CHECK_MSG(p.size() == params_.size(), "parameter size mismatch");
  params_.assign(p.begin(), p.end());
}

void MlpNetwork::initialize(Rng& rng) {
  const double w1_scale = std::sqrt(1.0 / static_cast<double>(inputs_));
  const double w2_scale = std::sqrt(1.0 / static_cast<double>(hidden_));
  double* w1 = params_.data() + w1_offset();
  for (std::size_t i = 0; i < hidden_ * inputs_; ++i)
    w1[i] = rng.normal(0.0, w1_scale);
  double* b1 = params_.data() + b1_offset();
  for (std::size_t i = 0; i < hidden_; ++i) b1[i] = 0.0;
  double* w2 = params_.data() + w2_offset();
  for (std::size_t i = 0; i < hidden_; ++i)
    w2[i] = rng.normal(0.0, w2_scale);
  params_[b2_offset()] = 0.0;
}

double MlpNetwork::forward(std::span<const double> x) const {
  COLOC_CHECK_MSG(x.size() == inputs_, "input width mismatch");
  const double* w1 = params_.data() + w1_offset();
  const double* b1 = params_.data() + b1_offset();
  const double* w2 = params_.data() + w2_offset();
  double out = params_[b2_offset()];
  for (std::size_t h = 0; h < hidden_; ++h) {
    double a = b1[h];
    const double* wrow = w1 + h * inputs_;
    for (std::size_t i = 0; i < inputs_; ++i) a += wrow[i] * x[i];
    out += w2[h] * linalg::fast_tanh(a);
  }
  return out;
}

namespace {

// Fills scratch.activations with tanh(X * W1^T + b1), one row per batch
// row. Accumulation order per element matches MlpNetwork::forward exactly:
// the pre-activation starts at b1[h] and adds the input terms in ascending
// i, so the batched and rowwise paths are bit-identical. The i-inner-h
// loop makes the innermost accesses sequential (and vectorizable) in the
// activations row; W1 is transposed into scratch once per call (inputs x
// hidden doubles — trivial next to the GEMM).
void compute_activations(std::size_t inputs, std::size_t hidden,
                         const double* w1, const double* b1,
                         const linalg::Matrix& x, BatchScratch& scratch) {
  const std::size_t m = x.rows();

  linalg::Matrix& w1t = scratch.w1t;
  if (w1t.rows() != inputs || w1t.cols() != hidden)
    w1t = linalg::Matrix(inputs, hidden);
  for (std::size_t h = 0; h < hidden; ++h)
    for (std::size_t i = 0; i < inputs; ++i) w1t(i, h) = w1[h * inputs + i];

  linalg::Matrix& act = scratch.activations;
  if (act.rows() != m || act.cols() != hidden)
    act = linalg::Matrix(m, hidden);
  for (std::size_t r = 0; r < m; ++r) {
    const auto xrow = x.row(r);
    auto arow = act.row(r);
    for (std::size_t h = 0; h < hidden; ++h) arow[h] = b1[h];
    for (std::size_t i = 0; i < inputs; ++i) {
      const double xri = xrow[i];
      const auto wrow = w1t.row(i);
      for (std::size_t h = 0; h < hidden; ++h) arow[h] += xri * wrow[h];
    }
  }
  linalg::vector_tanh(act.data().data(), m * hidden);
}

}  // namespace

void MlpNetwork::forward_all(const linalg::Matrix& x,
                             std::span<double> out) const {
  COLOC_CHECK_MSG(x.cols() == inputs_, "input width mismatch");
  COLOC_CHECK_MSG(out.size() == x.rows(), "output size mismatch");
  BatchScratch& scratch = BatchScratch::local();
  compute_activations(inputs_, hidden_, params_.data() + w1_offset(),
                      params_.data() + b1_offset(), x, scratch);
  const double* w2 = params_.data() + w2_offset();
  const double b2 = params_[b2_offset()];
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto arow = scratch.activations.row(r);
    double o = b2;
    for (std::size_t h = 0; h < hidden_; ++h) o += w2[h] * arow[h];
    out[r] = o;
  }
}

double MlpNetwork::loss_and_gradient(const linalg::Matrix& x,
                                     std::span<const double> y,
                                     double weight_decay,
                                     std::span<double> grad) const {
  COLOC_CHECK_MSG(x.rows() == y.size(), "batch size mismatch");
  COLOC_CHECK_MSG(x.cols() == inputs_, "input width mismatch");
  COLOC_CHECK_MSG(grad.size() == params_.size(), "gradient size mismatch");
  const std::size_t m = x.rows();
  COLOC_CHECK_MSG(m > 0, "empty batch");

  const double* w2 = params_.data() + w2_offset();
  double* g_w1 = grad.data() + w1_offset();
  double* g_b1 = grad.data() + b1_offset();
  double* g_w2 = grad.data() + w2_offset();
  double& g_b2 = grad[b2_offset()];
  std::fill(grad.begin(), grad.end(), 0.0);

  BatchScratch& scratch = BatchScratch::local();
  compute_activations(inputs_, hidden_, params_.data() + w1_offset(),
                      params_.data() + b1_offset(), x, scratch);
  const linalg::Matrix& act = scratch.activations;

  double loss = 0.0;
  const double inv_m = 1.0 / static_cast<double>(m);
  const double b2 = params_[b2_offset()];

  // One fused sweep: the row's output, error, and every gradient
  // contribution while its activations and inputs are cache-hot. Rows
  // ascend and each accumulator adds its per-row term in the reference
  // loop's exact order, so the result is bit-identical to
  // loss_and_gradient_reference.
  for (std::size_t r = 0; r < m; ++r) {
    const auto arow = act.row(r);
    const auto xrow = x.row(r);
    double out = b2;
    for (std::size_t h = 0; h < hidden_; ++h) out += w2[h] * arow[h];
    const double err = out - y[r];
    loss += 0.5 * err * err;

    const double d_out = err * inv_m;
    g_b2 += d_out;
    for (std::size_t h = 0; h < hidden_; ++h) {
      g_w2[h] += d_out * arow[h];
      const double d_a = d_out * w2[h] * (1.0 - arow[h] * arow[h]);
      g_b1[h] += d_a;
      double* grow = g_w1 + h * inputs_;
      for (std::size_t i = 0; i < inputs_; ++i) grow[i] += d_a * xrow[i];
    }
  }
  loss *= inv_m;

  if (weight_decay > 0.0) {
    double wnorm = 0.0;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      wnorm += params_[i] * params_[i];
      grad[i] += weight_decay * params_[i];
    }
    loss += 0.5 * weight_decay * wnorm;
  }
  return loss;
}

double MlpNetwork::loss_and_gradient_reference(const linalg::Matrix& x,
                                               std::span<const double> y,
                                               double weight_decay,
                                               std::span<double> grad) const {
  COLOC_CHECK_MSG(x.rows() == y.size(), "batch size mismatch");
  COLOC_CHECK_MSG(x.cols() == inputs_, "input width mismatch");
  COLOC_CHECK_MSG(grad.size() == params_.size(), "gradient size mismatch");
  const std::size_t m = x.rows();
  COLOC_CHECK_MSG(m > 0, "empty batch");

  const double* w1 = params_.data() + w1_offset();
  const double* b1 = params_.data() + b1_offset();
  const double* w2 = params_.data() + w2_offset();
  double* g_w1 = grad.data() + w1_offset();
  double* g_b1 = grad.data() + b1_offset();
  double* g_w2 = grad.data() + w2_offset();
  double& g_b2 = grad[b2_offset()];
  std::fill(grad.begin(), grad.end(), 0.0);

  std::vector<double> act(hidden_);
  double loss = 0.0;
  const double inv_m = 1.0 / static_cast<double>(m);

  for (std::size_t r = 0; r < m; ++r) {
    const auto row = x.row(r);
    double out = params_[b2_offset()];
    for (std::size_t h = 0; h < hidden_; ++h) {
      double a = b1[h];
      const double* wrow = w1 + h * inputs_;
      for (std::size_t i = 0; i < inputs_; ++i) a += wrow[i] * row[i];
      act[h] = linalg::fast_tanh(a);
      out += w2[h] * act[h];
    }
    const double err = out - y[r];
    loss += 0.5 * err * err;

    // Backpropagate: dL/dout = err (per sample, scaled by 1/m at the end).
    const double d_out = err * inv_m;
    g_b2 += d_out;
    for (std::size_t h = 0; h < hidden_; ++h) {
      g_w2[h] += d_out * act[h];
      const double d_a = d_out * w2[h] * (1.0 - act[h] * act[h]);
      g_b1[h] += d_a;
      double* grow = g_w1 + h * inputs_;
      for (std::size_t i = 0; i < inputs_; ++i) grow[i] += d_a * row[i];
    }
  }
  loss *= inv_m;

  if (weight_decay > 0.0) {
    double wnorm = 0.0;
    for (std::size_t i = 0; i < params_.size(); ++i) {
      wnorm += params_[i] * params_[i];
      grad[i] += weight_decay * params_[i];
    }
    loss += 0.5 * weight_decay * wnorm;
  }
  return loss;
}

double MlpNetwork::loss(const linalg::Matrix& x, std::span<const double> y,
                        double weight_decay) const {
  COLOC_CHECK_MSG(x.rows() == y.size(), "batch size mismatch");
  const std::size_t m = x.rows();
  COLOC_CHECK_MSG(m > 0, "empty batch");
  double loss = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double err = forward(x.row(r)) - y[r];
    loss += 0.5 * err * err;
  }
  loss /= static_cast<double>(m);
  if (weight_decay > 0.0) {
    double wnorm = 0.0;
    for (double p : params_) wnorm += p * p;
    loss += 0.5 * weight_decay * wnorm;
  }
  return loss;
}

MlpRegressor MlpRegressor::fit(const linalg::Matrix& x,
                               std::span<const double> y,
                               const MlpOptions& options) {
  COLOC_CHECK_MSG(x.rows() == y.size(), "row/target count mismatch");
  COLOC_CHECK_MSG(x.rows() >= 2, "MLP needs at least two observations");

  // Default route: the fused batched multi-restart path (bit-identical;
  // see mlp_fused.cpp). The sequential loop below is kept as the reference
  // arm — options.fused_restarts = false pins it.
  if (options.fused_restarts) return fit_fused(x, y, options);

  linalg::Matrix design = x;
  Standardizer scaler = Standardizer::fit(design);
  scaler.transform(design);
  TargetScaler target = TargetScaler::fit(y);
  const std::vector<double> z = target.transform_all(y);

  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);

  struct AttemptResult {
    MlpNetwork net;
    double loss = std::numeric_limits<double>::infinity();
    std::size_t iterations = 0;
  };

  // One self-contained training run. Restart 0 draws from Rng(options.seed)
  // exactly as a single fit always has; restart k > 0 uses an independent
  // stream hashed from (seed, k). Every attempt is a pure function of its
  // index, which is what lets fit_fused reproduce this loop bit for bit.
  auto run_attempt = [&](std::size_t attempt) -> AttemptResult {
    std::uint64_t seed = options.seed;
    if (attempt != 0) {
      std::uint64_t s =
          options.seed ^ (0xa0761d6478bd642fULL *
                          static_cast<std::uint64_t>(attempt));
      seed = splitmix64(s);
    }
    Rng rng(seed);
    MlpNetwork net(x.cols(), options.hidden_units);
    net.initialize(rng);

    ScgObjective objective{
        .dimension = net.num_parameters(),
        .value_and_gradient =
            [&](std::span<const double> p, std::span<double> g) {
              net.set_parameters(p);
              return net.loss_and_gradient(design, z, options.weight_decay,
                                           g);
            },
    };
    std::vector<double> p(net.parameters().begin(), net.parameters().end());
    ScgOptions scg_options;
    scg_options.max_iterations = options.max_iterations;
    scg_options.gradient_tolerance = options.gradient_tolerance;
    const ScgResult res = scg_minimize(objective, p, scg_options);
    net.set_parameters(res.solution);
    const double final_loss = net.loss(design, z, options.weight_decay);
    return AttemptResult{std::move(net), final_loss, res.iterations};
  };

  // Strict < scans attempts in index order: ties go to the lowest index.
  AttemptResult winner = run_attempt(0);
  for (std::size_t attempt = 1; attempt < restarts; ++attempt) {
    AttemptResult candidate = run_attempt(attempt);
    if (candidate.loss < winner.loss) winner = std::move(candidate);
  }

  MlpRegressor model(std::move(winner.net), std::move(scaler),
                     std::move(target));
  model.training_loss_ = winner.loss;
  model.iterations_used_ = winner.iterations;
  return model;
}

double MlpRegressor::predict(std::span<const double> features) const {
  COLOC_CHECK_MSG(features.size() == net_.num_inputs(),
                  "feature width mismatch in MlpRegressor::predict");
  // Standardize into a stack buffer (feature vectors here are at most a
  // few dozen wide) instead of allocating per call; predict sits inside
  // per-partition validation loops.
  constexpr std::size_t kMaxStackWidth = 64;
  double stack_buf[kMaxStackWidth];
  thread_local std::vector<double> overflow;
  std::span<double> row;
  if (features.size() <= kMaxStackWidth) {
    row = std::span<double>(stack_buf, features.size());
  } else {
    overflow.resize(features.size());
    row = overflow;
  }
  std::copy(features.begin(), features.end(), row.begin());
  scaler_.transform_row(row);
  return target_.inverse(net_.forward(row));
}

std::vector<double> MlpRegressor::predict_all(const linalg::Matrix& x) const {
  std::vector<double> out(x.rows());
  predict_into(x, out);
  return out;
}

void MlpRegressor::predict_into(const linalg::Matrix& x,
                                std::span<double> out) const {
  COLOC_CHECK_MSG(x.cols() == net_.num_inputs(),
                  "feature width mismatch in MlpRegressor::predict_into");
  COLOC_CHECK_MSG(out.size() == x.rows(),
                  "output span size mismatch in MlpRegressor::predict_into");
  // Standardize into thread-local scratch: the copy-assign reuses the
  // scratch matrix's capacity, so steady-state batches allocate nothing.
  thread_local linalg::Matrix design;
  design = x;
  scaler_.transform(design);  // standardize the whole design matrix once
  net_.forward_all(design, out);
  for (double& v : out) v = target_.inverse(v);
}

std::string MlpRegressor::describe() const {
  std::ostringstream os;
  os << "MlpRegressor(inputs=" << net_.num_inputs()
     << ", hidden=" << net_.num_hidden() << ", loss=" << training_loss_
     << ", iters=" << iterations_used_ << ")";
  return os.str();
}

}  // namespace coloc::ml
