#include "ml/scg.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "linalg/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace coloc::ml {

namespace {
// Møller's initial scaling parameters: the finite-difference step sigma
// and the damping lambda.
constexpr double kSigma0 = 1e-5;
constexpr double kLambda0 = 1e-7;
// A successful step whose relative value improvement falls below
// kValueTolerance stalls; kStallPatience consecutive stalls count as
// converged.
constexpr double kValueTolerance = 1e-12;
constexpr std::size_t kStallPatience = 8;

struct ScgMetrics {
  obs::Counter& runs;
  obs::Counter& converged;
  obs::Counter& epochs;
  obs::Counter& batched_problems;
  obs::Gauge& gradient_norm;

  static ScgMetrics& get() {
    auto& registry = obs::Registry::global();
    static ScgMetrics metrics{
        registry.counter("scg_runs_total"),
        registry.counter("scg_converged_total"),
        registry.counter("scg_epochs_total"),
        registry.counter("scg_fused_restarts_total"),
        registry.gauge("scg_gradient_norm"),
    };
    return metrics;
  }
};
}  // namespace

ScgResult scg_minimize(const ScgObjective& objective,
                       std::span<const double> initial,
                       const ScgOptions& options) {
  COLOC_CHECK_MSG(objective.dimension > 0, "objective dimension must be > 0");
  COLOC_CHECK_MSG(initial.size() == objective.dimension,
                  "initial point dimension mismatch");
  COLOC_CHECK_MSG(static_cast<bool>(objective.value_and_gradient),
                  "objective callback not set");

  obs::ScopedSpan span("scg/minimize", "ml");

  const std::size_t n = objective.dimension;
  std::vector<double> w(initial.begin(), initial.end());
  std::vector<double> grad(n, 0.0);
  std::vector<double> grad_new(n, 0.0);
  std::vector<double> p(n, 0.0);      // search direction
  std::vector<double> r(n, 0.0);      // negative gradient
  std::vector<double> w_trial(n, 0.0);
  std::vector<double> s(n, 0.0);      // Hessian-vector estimate

  double f = objective.value_and_gradient(w, grad);
  for (std::size_t i = 0; i < n; ++i) r[i] = -grad[i];
  p = r;

  double lambda = kLambda0;
  double lambda_bar = 0.0;
  bool success = true;
  double delta = 0.0;
  std::size_t stall = 0;

  ScgResult result;
  result.solution = w;
  result.value = f;

  std::size_t k = 0;
  for (; k < options.max_iterations; ++k) {
    const double p_norm2 = linalg::dot(p, p);
    const double p_norm = std::sqrt(p_norm2);
    const double r_norm = linalg::norm2(r);
    if (r_norm < options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    if (p_norm < 1e-300) {
      // Degenerate direction; restart along the steepest descent.
      p = r;
      continue;
    }

    if (success) {
      // Second-order information via a finite difference along p.
      const double sigma = kSigma0 / p_norm;
      for (std::size_t i = 0; i < n; ++i) w_trial[i] = w[i] + sigma * p[i];
      objective.value_and_gradient(w_trial, grad_new);
      for (std::size_t i = 0; i < n; ++i)
        s[i] = (grad_new[i] - grad[i]) / sigma;
      delta = linalg::dot(p, s);
    }

    // Scale the curvature estimate (Levenberg-Marquardt style).
    delta += (lambda - lambda_bar) * p_norm2;
    if (delta <= 0.0) {
      // Make the Hessian estimate positive definite.
      lambda_bar = 2.0 * (lambda - delta / p_norm2);
      delta = -delta + lambda * p_norm2;
      lambda = lambda_bar;
    }

    const double mu = linalg::dot(p, r);
    const double alpha = mu / delta;

    // Evaluate the comparison parameter.
    for (std::size_t i = 0; i < n; ++i) w_trial[i] = w[i] + alpha * p[i];
    const double f_trial = objective.value_and_gradient(w_trial, grad_new);
    const double big_delta = 2.0 * delta * (f - f_trial) / (mu * mu);

    if (big_delta >= 0.0) {
      // Successful step.
      const double f_prev = f;
      w = w_trial;
      f = f_trial;
      std::vector<double> r_new(n);
      for (std::size_t i = 0; i < n; ++i) r_new[i] = -grad_new[i];
      grad = grad_new;
      lambda_bar = 0.0;
      success = true;

      if ((k + 1) % n == 0) {
        // Periodic restart keeps directions conjugate on nonquadratics.
        p = r_new;
      } else {
        const double beta =
            (linalg::dot(r_new, r_new) - linalg::dot(r_new, r)) / mu;
        for (std::size_t i = 0; i < n; ++i)
          p[i] = r_new[i] + beta * p[i];
      }
      r = std::move(r_new);

      if (big_delta >= 0.75) lambda = std::max(lambda * 0.25, 1e-15);

      const double rel_impr =
          std::abs(f_prev - f) / std::max(1.0, std::abs(f_prev));
      stall = rel_impr < kValueTolerance ? stall + 1 : 0;
      if (stall >= kStallPatience) {
        result.converged = true;
        ++k;
        break;
      }
    } else {
      // Step rejected: raise damping and retry with the same direction.
      lambda_bar = lambda;
      success = false;
    }

    if (big_delta < 0.25) {
      lambda += delta * (1.0 - big_delta) / p_norm2;
      lambda = std::min(lambda, 1e12);  // keep the damping finite
    }
  }

  result.solution = std::move(w);
  result.value = f;
  result.gradient_norm = linalg::norm2(grad);
  result.iterations = k;
  if (result.gradient_norm < options.gradient_tolerance)
    result.converged = true;

  ScgMetrics& metrics = ScgMetrics::get();
  metrics.runs.inc();
  metrics.epochs.inc(k);
  if (result.converged) metrics.converged.inc();
  metrics.gradient_norm.set(result.gradient_norm);
  return result;
}

std::vector<ScgResult> scg_minimize_batch(const ScgBatchObjective& objective,
                                          const std::vector<double>& initial,
                                          const ScgOptions& options) {
  const std::size_t n = objective.dimension;
  const std::size_t count = objective.count;
  COLOC_CHECK_MSG(n > 0, "objective dimension must be > 0");
  COLOC_CHECK_MSG(count > 0, "objective count must be > 0");
  COLOC_CHECK_MSG(initial.size() == n * count,
                  "initial parameter plane size mismatch");
  COLOC_CHECK_MSG(static_cast<bool>(objective.forward) &&
                      static_cast<bool>(objective.backward),
                  "objective callbacks not set");

  obs::ScopedSpan span("scg/minimize_batch", "ml");

  // Parameter planes: row j holds problem j's vector. Every per-problem
  // update below touches only row j, so each trajectory is the sequential
  // scg_minimize trajectory verbatim; only the evaluations are batched.
  std::vector<double> w = initial;
  std::vector<double> grad(n * count, 0.0);
  std::vector<double> grad_new(n * count, 0.0);
  std::vector<double> p(n * count, 0.0);
  std::vector<double> r(n * count, 0.0);
  std::vector<double> s(n * count, 0.0);
  std::vector<double> w_trial(n * count, 0.0);
  std::vector<double> r_new(n);  // hoisted: one allocation for the run

  std::vector<double> f(count, 0.0);
  std::vector<double> f_trial(count, 0.0);
  std::vector<double> lambda(count, kLambda0);
  std::vector<double> lambda_bar(count, 0.0);
  std::vector<double> delta(count, 0.0);
  std::vector<double> sigma(count, 0.0);
  std::vector<double> mu(count, 0.0);
  std::vector<double> p_norm2(count, 0.0);
  std::vector<double> big_delta(count, 0.0);
  std::vector<std::size_t> stall(count, 0);
  std::vector<std::size_t> iterations(count, 0);
  std::vector<char> success(count, 1);
  std::vector<char> done(count, 0);
  std::vector<char> converged(count, 0);

  const auto crow = [n](const std::vector<double>& v, std::size_t j) {
    return std::span<const double>(v.data() + j * n, n);
  };

  std::vector<std::size_t> all(count);
  for (std::size_t j = 0; j < count; ++j) all[j] = j;
  objective.forward(all, w, f);
  objective.backward(all, grad);
  for (std::size_t j = 0; j < count; ++j) {
    double* rj = r.data() + j * n;
    const double* gj = grad.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) rj[i] = -gj[i];
  }
  p = r;

  std::vector<std::size_t> probe_set;
  std::vector<std::size_t> trial_set;
  std::vector<std::size_t> accept_set;
  probe_set.reserve(count);
  trial_set.reserve(count);
  accept_set.reserve(count);

  std::size_t live = count;
  std::size_t k = 0;
  for (; k < options.max_iterations && live > 0; ++k) {
    probe_set.clear();
    trial_set.clear();

    // Convergence checks and sigma probe points. A problem that converges
    // here records iterations = k and leaves the active set — the
    // early-stop mask — without touching any other problem's state.
    for (std::size_t j = 0; j < count; ++j) {
      if (done[j]) continue;
      const double pn2 = linalg::dot(crow(p, j), crow(p, j));
      const double p_norm = std::sqrt(pn2);
      const double r_norm = linalg::norm2(crow(r, j));
      if (r_norm < options.gradient_tolerance) {
        done[j] = 1;
        converged[j] = 1;
        iterations[j] = k;
        --live;
        continue;
      }
      if (p_norm < 1e-300) {
        // Degenerate direction; restart along the steepest descent. This
        // consumes the iteration without an evaluation, as in the
        // sequential path's `continue`.
        std::copy_n(r.data() + j * n, n, p.data() + j * n);
        continue;
      }
      p_norm2[j] = pn2;
      trial_set.push_back(j);
      if (success[j]) {
        sigma[j] = kSigma0 / p_norm;
        const double* wj = w.data() + j * n;
        const double* pj = p.data() + j * n;
        double* tj = w_trial.data() + j * n;
        const double sg = sigma[j];
        for (std::size_t i = 0; i < n; ++i) tj[i] = wj[i] + sg * pj[i];
        probe_set.push_back(j);
      }
    }

    // Phase A: batched sigma probe. The probe value is discarded (only the
    // gradient feeds the curvature estimate), but forward work is a
    // prerequisite of backward work, so nothing here is wasted.
    if (!probe_set.empty()) {
      objective.forward(probe_set, w_trial, f_trial);
      objective.backward(probe_set, grad_new);
      for (const std::size_t j : probe_set) {
        const double* gn = grad_new.data() + j * n;
        const double* gj = grad.data() + j * n;
        double* sj = s.data() + j * n;
        const double sg = sigma[j];
        for (std::size_t i = 0; i < n; ++i) sj[i] = (gn[i] - gj[i]) / sg;
        delta[j] = linalg::dot(crow(p, j), crow(s, j));
      }
    }

    // Levenberg-Marquardt damping and the trial points.
    for (const std::size_t j : trial_set) {
      delta[j] += (lambda[j] - lambda_bar[j]) * p_norm2[j];
      if (delta[j] <= 0.0) {
        lambda_bar[j] = 2.0 * (lambda[j] - delta[j] / p_norm2[j]);
        delta[j] = -delta[j] + lambda[j] * p_norm2[j];
        lambda[j] = lambda_bar[j];
      }
      mu[j] = linalg::dot(crow(p, j), crow(r, j));
      const double alpha = mu[j] / delta[j];
      const double* wj = w.data() + j * n;
      const double* pj = p.data() + j * n;
      double* tj = w_trial.data() + j * n;
      for (std::size_t i = 0; i < n; ++i) tj[i] = wj[i] + alpha * pj[i];
    }
    if (trial_set.empty()) continue;

    // Phase B: batched trial evaluation; the gradient is computed only for
    // the accepted steps (a rejected step's gradient is discarded by the
    // sequential algorithm, so skipping it cannot change any trajectory).
    objective.forward(trial_set, w_trial, f_trial);
    accept_set.clear();
    for (const std::size_t j : trial_set) {
      big_delta[j] = 2.0 * delta[j] * (f[j] - f_trial[j]) / (mu[j] * mu[j]);
      if (big_delta[j] >= 0.0) accept_set.push_back(j);
    }
    if (!accept_set.empty()) objective.backward(accept_set, grad_new);

    for (const std::size_t j : trial_set) {
      if (big_delta[j] >= 0.0) {
        // Successful step.
        const double f_prev = f[j];
        std::copy_n(w_trial.data() + j * n, n, w.data() + j * n);
        f[j] = f_trial[j];
        const double* gn = grad_new.data() + j * n;
        for (std::size_t i = 0; i < n; ++i) r_new[i] = -gn[i];
        std::copy_n(gn, n, grad.data() + j * n);
        lambda_bar[j] = 0.0;
        success[j] = 1;

        if ((k + 1) % n == 0) {
          // Periodic restart keeps directions conjugate on nonquadratics.
          std::copy_n(r_new.data(), n, p.data() + j * n);
        } else {
          const double beta = (linalg::dot(r_new, r_new) -
                               linalg::dot(r_new, crow(r, j))) /
                              mu[j];
          double* pj = p.data() + j * n;
          for (std::size_t i = 0; i < n; ++i)
            pj[i] = r_new[i] + beta * pj[i];
        }
        std::copy_n(r_new.data(), n, r.data() + j * n);

        if (big_delta[j] >= 0.75) lambda[j] = std::max(lambda[j] * 0.25, 1e-15);

        const double rel_impr =
            std::abs(f_prev - f[j]) / std::max(1.0, std::abs(f_prev));
        stall[j] = rel_impr < kValueTolerance ? stall[j] + 1 : 0;
        if (stall[j] >= kStallPatience) {
          // The sequential path breaks before the final damping update.
          done[j] = 1;
          converged[j] = 1;
          iterations[j] = k + 1;
          --live;
          continue;
        }
      } else {
        // Step rejected: raise damping and retry with the same direction.
        lambda_bar[j] = lambda[j];
        success[j] = 0;
      }

      if (big_delta[j] < 0.25) {
        lambda[j] += delta[j] * (1.0 - big_delta[j]) / p_norm2[j];
        lambda[j] = std::min(lambda[j], 1e12);  // keep the damping finite
      }
    }
  }

  std::vector<ScgResult> results(count);
  ScgMetrics& metrics = ScgMetrics::get();
  metrics.batched_problems.inc(count);
  for (std::size_t j = 0; j < count; ++j) {
    ScgResult& res = results[j];
    const auto wj = crow(w, j);
    res.solution.assign(wj.begin(), wj.end());
    res.value = f[j];
    res.gradient_norm = linalg::norm2(crow(grad, j));
    res.iterations = done[j] ? iterations[j] : options.max_iterations;
    res.converged = converged[j] != 0;
    if (res.gradient_norm < options.gradient_tolerance) res.converged = true;
    metrics.runs.inc();
    metrics.epochs.inc(res.iterations);
    if (res.converged) metrics.converged.inc();
    metrics.gradient_norm.set(res.gradient_norm);
  }
  return results;
}

}  // namespace coloc::ml
