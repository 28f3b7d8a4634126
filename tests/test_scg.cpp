#include "ml/scg.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace coloc::ml {
namespace {

TEST(Scg, MinimizesSimpleQuadratic) {
  // f(x) = (x0-3)^2 + (x1+1)^2.
  ScgObjective obj{
      .dimension = 2,
      .value_and_gradient = [](std::span<const double> p,
                               std::span<double> g) {
        g[0] = 2.0 * (p[0] - 3.0);
        g[1] = 2.0 * (p[1] + 1.0);
        return (p[0] - 3.0) * (p[0] - 3.0) + (p[1] + 1.0) * (p[1] + 1.0);
      }};
  const ScgResult r = scg_minimize(obj, std::vector<double>{0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.solution[0], 3.0, 1e-5);
  EXPECT_NEAR(r.solution[1], -1.0, 1e-5);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(Scg, SolvesIllConditionedQuadratic) {
  // f(x) = 0.5 x^T A x with condition number 1e4.
  ScgObjective obj{
      .dimension = 2,
      .value_and_gradient = [](std::span<const double> p,
                               std::span<double> g) {
        g[0] = 1e4 * p[0];
        g[1] = 1.0 * p[1];
        return 0.5 * (1e4 * p[0] * p[0] + p[1] * p[1]);
      }};
  ScgOptions options;
  options.max_iterations = 500;
  const ScgResult r = scg_minimize(obj, std::vector<double>{1.0, 1.0},
                                   options);
  EXPECT_NEAR(r.solution[0], 0.0, 1e-4);
  EXPECT_NEAR(r.solution[1], 0.0, 1e-3);
}

TEST(Scg, RosenbrockReachesValley) {
  // Nonconvex benchmark: f = (1-x)^2 + 100(y-x^2)^2, minimum at (1, 1).
  ScgObjective obj{
      .dimension = 2,
      .value_and_gradient = [](std::span<const double> p,
                               std::span<double> g) {
        const double x = p[0], y = p[1];
        g[0] = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
        g[1] = 200.0 * (y - x * x);
        return (1.0 - x) * (1.0 - x) +
               100.0 * (y - x * x) * (y - x * x);
      }};
  ScgOptions options;
  options.max_iterations = 5000;
  const ScgResult r = scg_minimize(obj, std::vector<double>{-1.2, 1.0},
                                   options);
  EXPECT_LT(r.value, 1e-3);
}

TEST(Scg, AlreadyAtMinimumConvergesImmediately) {
  ScgObjective obj{
      .dimension = 1,
      .value_and_gradient = [](std::span<const double> p,
                               std::span<double> g) {
        g[0] = 2.0 * p[0];
        return p[0] * p[0];
      }};
  const ScgResult r = scg_minimize(obj, std::vector<double>{0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Scg, RespectsIterationBudget) {
  ScgObjective obj{
      .dimension = 1,
      .value_and_gradient = [](std::span<const double> p,
                               std::span<double> g) {
        g[0] = std::cos(p[0]);
        return std::sin(p[0]) + 2.0;  // bounded, wandering objective
      }};
  ScgOptions options;
  options.max_iterations = 5;
  const ScgResult r = scg_minimize(obj, std::vector<double>{0.3}, options);
  EXPECT_LE(r.iterations, 5u);
}

TEST(Scg, HighDimensionalQuadratic) {
  const std::size_t n = 50;
  ScgObjective obj{
      .dimension = n,
      .value_and_gradient = [n](std::span<const double> p,
                                std::span<double> g) {
        double f = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double w = 1.0 + static_cast<double>(i);
          g[i] = w * (p[i] - 1.0);
          f += 0.5 * w * (p[i] - 1.0) * (p[i] - 1.0);
        }
        return f;
      }};
  ScgOptions options;
  options.max_iterations = 2000;
  const ScgResult r = scg_minimize(obj, std::vector<double>(n, 0.0),
                                   options);
  for (double v : r.solution) EXPECT_NEAR(v, 1.0, 1e-3);
}

TEST(Scg, DimensionMismatchThrows) {
  ScgObjective obj{
      .dimension = 2,
      .value_and_gradient = [](std::span<const double>, std::span<double>) {
        return 0.0;
      }};
  EXPECT_THROW(scg_minimize(obj, std::vector<double>{1.0}),
               coloc::runtime_error);
}

TEST(Scg, MissingCallbackThrows) {
  ScgObjective obj;
  obj.dimension = 1;
  EXPECT_THROW(scg_minimize(obj, std::vector<double>{1.0}),
               coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::ml
