// Scaled Conjugate Gradient minimizer (Møller, Neural Networks 6(4), 1993).
//
// The paper trains its neural networks with "a scaled conjugate gradient
// numerical method" (Section III-D); this is a faithful implementation of
// Møller's algorithm: conjugate directions with a Levenberg-Marquardt style
// scaling that avoids explicit line searches.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace coloc::ml {

/// Differentiable objective: fills `grad` and returns the value at `p`.
struct ScgObjective {
  std::size_t dimension = 0;
  std::function<double(std::span<const double> p, std::span<double> grad)>
      value_and_gradient;
};

struct ScgOptions {
  std::size_t max_iterations = 300;
  /// Stop when the gradient's 2-norm falls below this. A run also stops,
  /// converged, once the relative value improvement stays below 1e-12 for
  /// 8 consecutive successful steps (constants in scg.cpp).
  double gradient_tolerance = 1e-7;
};

struct ScgResult {
  std::vector<double> solution;
  double value = 0.0;
  double gradient_norm = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Minimizes the objective starting from `initial` (size must match
/// objective.dimension).
ScgResult scg_minimize(const ScgObjective& objective,
                       std::span<const double> initial,
                       const ScgOptions& options = {});

/// Batched objective over `count` independent optimization problems that
/// share one dimension (the fused multi-restart MLP trainer stacks all
/// restarts' weight planes so each evaluation is one batched GEMM per
/// layer). The evaluation is split so the driver can skip gradient work:
/// SCG discards the gradient of a rejected trial step, and the sigma probe
/// discards the value, so `forward` caches whatever `backward` needs and
/// `backward` is only invoked for the subset that actually consumes it.
struct ScgBatchObjective {
  std::size_t dimension = 0;
  std::size_t count = 0;
  /// Evaluates problems `active` (ascending indices) at rows of `points`
  /// (count x dimension, row j = problem j's parameters) and writes
  /// values[j] for each active j. Must cache activations for backward().
  std::function<void(std::span<const std::size_t> active,
                     const std::vector<double>& points,
                     std::span<double> values)>
      forward;
  /// Writes the gradient of the latest forward() into rows of `grads`
  /// (count x dimension) for `active`, which must be a subset of the
  /// latest forward()'s active list. Rows outside `active` are untouched.
  std::function<void(std::span<const std::size_t> active,
                     std::vector<double>& grads)>
      backward;
};

/// Lockstep batched SCG: runs `count` independent minimizations in parallel
/// iterations, evaluating all still-active problems through one batched
/// forward/backward pair per phase. Every problem's trajectory — each
/// iterate, the accept/reject sequence, the damping schedule, the recorded
/// iteration count — is identical to running scg_minimize on it alone,
/// because each evaluation is a pure function of that problem's own
/// parameters; converged problems simply leave the active set (early-stop
/// masking) without perturbing the survivors. `initial` is count x
/// dimension, row-major.
std::vector<ScgResult> scg_minimize_batch(const ScgBatchObjective& objective,
                                          const std::vector<double>& initial,
                                          const ScgOptions& options = {});

}  // namespace coloc::ml
