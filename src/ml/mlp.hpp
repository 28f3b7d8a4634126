// Multilayer perceptron used as the paper's neural-network model
// (Section III-D): a single hidden layer of 10-20 tanh units with a linear
// output, trained with scaled conjugate gradient on standardized features
// and targets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "ml/dataset.hpp"
#include "ml/model.hpp"

namespace coloc::ml {

/// Network topology + training hyperparameters.
struct MlpOptions {
  std::size_t hidden_units = 16;  // paper uses 10-20 depending on feature set
  std::size_t max_iterations = 1200;
  double weight_decay = 1e-6;     // L2 penalty stabilizing small datasets
  double gradient_tolerance = 1e-7;
  std::uint64_t seed = 42;
  /// Restarts with different initializations; best training loss wins.
  /// Restart 0 draws from Rng(seed) exactly as a single fit does; restart
  /// k > 0 uses an independent stream derived from (seed, k), so results
  /// do not depend on how many restarts run or in what order.
  std::size_t restarts = 1;
};

/// The bare network: packed parameters, forward pass, and the rowwise
/// loss/gradient reference for the fused trainer. Features and targets
/// are assumed already standardized by the caller (MlpRegressor does this).
class MlpNetwork {
 public:
  MlpNetwork(std::size_t inputs, std::size_t hidden);

  std::size_t num_inputs() const { return inputs_; }
  std::size_t num_hidden() const { return hidden_; }
  std::size_t num_parameters() const;

  std::span<double> parameters() { return params_; }
  std::span<const double> parameters() const { return params_; }
  void set_parameters(std::span<const double> p);

  /// He/Xavier-style random initialization.
  void initialize(Rng& rng);

  /// Forward pass for a single standardized input row.
  double forward(std::span<const double> x) const;

  /// Batched forward pass: out[r] = forward(x.row(r)) for every row, via
  /// one GEMM + one vectorized tanh sweep. Bit-identical to the row loop
  /// (same per-element accumulation order). `out` must have x.rows()
  /// entries. Reuses per-thread scratch across calls.
  void forward_all(const linalg::Matrix& x, std::span<double> out) const;

  /// Mean-squared-error loss over the batch plus 0.5*decay*||w||^2, and its
  /// gradient with respect to the packed parameters (written into `grad`,
  /// which must have num_parameters() entries). The row-at-a-time
  /// reference: MlpRegressor::fit's fused kernels reproduce it bit for bit.
  double loss_and_gradient(const linalg::Matrix& x,
                           std::span<const double> y, double weight_decay,
                           std::span<double> grad) const;

  /// Loss only (MlpRegressor::fit scores each restart's result with it).
  double loss(const linalg::Matrix& x, std::span<const double> y,
              double weight_decay) const;

  // Packed layout: W1 (hidden x inputs), b1 (hidden), w2 (hidden), b2 (1).
  // Public so the fused trainer can scatter/gather restart planes.
  std::size_t w1_offset() const { return 0; }
  std::size_t b1_offset() const { return hidden_ * inputs_; }
  std::size_t w2_offset() const { return hidden_ * inputs_ + hidden_; }
  std::size_t b2_offset() const { return hidden_ * inputs_ + 2 * hidden_; }

 private:
  std::size_t inputs_;
  std::size_t hidden_;
  std::vector<double> params_;
};

/// End-to-end regressor: standardizes inputs/targets, trains an MlpNetwork
/// with scaled conjugate gradient, and predicts in raw units.
class MlpRegressor final : public Regressor {
 public:
  /// Trains every restart at once (DESIGN §13): each restart's weights are
  /// one plane of a stacked batch, so each SCG iteration runs one batched
  /// GEMM per layer for all live restarts, with per-restart early-stop
  /// masking and no gradient for a rejected step. Bit-identical to running
  /// the restarts one after another over loss_and_gradient.
  static MlpRegressor fit(const linalg::Matrix& x, std::span<const double> y,
                          const MlpOptions& options = {});

  double predict(std::span<const double> features) const override;
  /// Batched inference: standardizes the design matrix once and runs the
  /// GEMM forward pass, instead of re-standardizing row by row. Returns
  /// exactly what the per-row predict loop would.
  std::vector<double> predict_all(const linalg::Matrix& x) const override;
  /// Allocation-free batched inference (after per-thread warm-up): the
  /// standardized design copy lives in reusable thread-local scratch and
  /// predictions land in the caller's buffer. Same numbers as predict_all.
  void predict_into(const linalg::Matrix& x,
                    std::span<double> out) const override;
  std::string describe() const override;

  /// Final training loss (standardized units) — exposed for diagnostics.
  double training_loss() const { return training_loss_; }
  std::size_t iterations_used() const { return iterations_used_; }

  // Serialization access (see ml/serialization.hpp).
  const MlpNetwork& network() const { return net_; }
  const Standardizer& input_scaler() const { return scaler_; }
  const TargetScaler& target_scaler() const { return target_; }
  /// Reconstructs a trained regressor from stored parts.
  static MlpRegressor from_parts(MlpNetwork net, Standardizer scaler,
                                 TargetScaler target) {
    return MlpRegressor(std::move(net), std::move(scaler),
                        std::move(target));
  }

 private:
  MlpRegressor(MlpNetwork net, Standardizer scaler, TargetScaler target)
      : net_(std::move(net)),
        scaler_(std::move(scaler)),
        target_(std::move(target)) {}

  MlpNetwork net_;
  Standardizer scaler_;
  TargetScaler target_;
  double training_loss_ = 0.0;
  std::size_t iterations_used_ = 0;
};

}  // namespace coloc::ml
