// Equivalence tests for the batched MLP paths: MlpRegressor::fit (the
// fused multi-restart trainer) must reproduce, bit for bit, the sequential
// restart loop over the rowwise MlpNetwork::loss_and_gradient that lives
// below as the test-side reference, and batched prediction must match
// per-row prediction.
#include "ml/mlp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "ml/dataset.hpp"
#include "ml/mlp_fused.hpp"
#include "ml/scg.hpp"

namespace coloc::ml {
namespace {

linalg::Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-2.0, 2.0);
  return m;
}

std::vector<double> random_vector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.5, 1.5);
  return v;
}

struct ReferenceFit {
  std::vector<double> parameters;
  double training_loss = 0.0;
  std::size_t iterations = 0;
};

// The sequential restart loop: every restart is its own scg_minimize over
// the rowwise loss_and_gradient, seeded as fit seeds its planes (restart 0
// from Rng(seed), restart k > 0 from a splitmix64 stream of (seed, k)),
// scored with loss(), and the strictly lower loss wins, so ties go to the
// lowest restart index.
ReferenceFit fit_reference(const linalg::Matrix& x, std::span<const double> y,
                           const MlpOptions& options) {
  linalg::Matrix design = x;
  Standardizer::fit(design).transform(design);
  const std::vector<double> z = TargetScaler::fit(y).transform_all(y);

  ReferenceFit winner;
  const std::size_t restarts = std::max<std::size_t>(1, options.restarts);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    std::uint64_t seed = options.seed;
    if (attempt != 0) {
      std::uint64_t s = options.seed ^ (0xa0761d6478bd642fULL *
                                        static_cast<std::uint64_t>(attempt));
      seed = splitmix64(s);
    }
    Rng rng(seed);
    MlpNetwork net(x.cols(), options.hidden_units);
    net.initialize(rng);
    const ScgObjective objective{
        .dimension = net.num_parameters(),
        .value_and_gradient =
            [&](std::span<const double> p, std::span<double> g) {
              net.set_parameters(p);
              return net.loss_and_gradient(design, z, options.weight_decay,
                                           g);
            },
    };
    const std::vector<double> initial(net.parameters().begin(),
                                      net.parameters().end());
    ScgOptions scg_options;
    scg_options.max_iterations = options.max_iterations;
    scg_options.gradient_tolerance = options.gradient_tolerance;
    const ScgResult res = scg_minimize(objective, initial, scg_options);
    net.set_parameters(res.solution);
    const double loss = net.loss(design, z, options.weight_decay);
    if (attempt == 0 || loss < winner.training_loss)
      winner = {res.solution, loss, res.iterations};
  }
  return winner;
}

// Bit-identical, not merely close: parameters, training loss and the
// winner's iteration count.
void expect_fit_matches_reference(const linalg::Matrix& x,
                                  std::span<const double> y,
                                  const MlpOptions& options) {
  const MlpRegressor model = MlpRegressor::fit(x, y, options);
  const ReferenceFit ref = fit_reference(x, y, options);
  ASSERT_EQ(model.training_loss(), ref.training_loss);
  ASSERT_EQ(model.iterations_used(), ref.iterations);
  const auto p = model.network().parameters();
  ASSERT_EQ(p.size(), ref.parameters.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    ASSERT_EQ(p[i], ref.parameters[i]) << "parameter " << i;
}

TEST(MlpBatchedTest, LossAndGradientMatchesReferenceExactly) {
  // fit's fused forward/backward kernels against the rowwise
  // loss_and_gradient, over odd shapes and two restart planes.
  Rng rng(101);
  const std::size_t shapes[][3] = {  // {rows, inputs, hidden}
      {2, 1, 1}, {7, 3, 5}, {33, 11, 13}, {64, 8, 20}, {129, 5, 17}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "/" << s[1] << "/" << s[2]);
    const linalg::Matrix x = random_matrix(s[0], s[1], rng);
    const std::vector<double> y = random_vector(s[0], rng);
    MlpOptions options;
    options.hidden_units = s[2];
    options.max_iterations = 30;
    options.restarts = 2;
    expect_fit_matches_reference(x, y, options);
  }
}

TEST(MlpBatchedTest, LossAndGradientMatchesWithZeroWeightDecay) {
  Rng rng(103);
  const linalg::Matrix x = random_matrix(21, 7, rng);
  const std::vector<double> y = random_vector(21, rng);
  MlpOptions options;
  options.hidden_units = 9;
  options.max_iterations = 30;
  options.weight_decay = 0.0;
  options.restarts = 2;
  expect_fit_matches_reference(x, y, options);
}

TEST(MlpBatchedTest, ForwardAllMatchesRowwiseForward) {
  // Up to 8 inputs and 32 hidden units take the batched GEMM's
  // register-chunk kernel (20 = 8 + 8 + 4 exercises its column tail);
  // 9 inputs take the streaming kernel.
  Rng rng(105);
  const std::size_t shapes[][3] = {  // {rows, inputs, hidden}
      {37, 9, 13}, {64, 8, 20}, {5, 3, 7}, {1, 1, 1}};
  for (const auto& s : shapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "/" << s[1] << "/" << s[2]);
    const linalg::Matrix x = random_matrix(s[0], s[1], rng);
    MlpNetwork net(s[1], s[2]);
    Rng init(206);
    net.initialize(init);
    std::vector<double> batched(x.rows());
    net.forward_all(x, batched);
    for (std::size_t r = 0; r < x.rows(); ++r)
      ASSERT_EQ(batched[r], net.forward(x.row(r))) << "row " << r;
  }
}

TEST(MlpBatchedTest, PredictAllMatchesPerRowPredict) {
  Rng rng(107);
  const linalg::Matrix x = random_matrix(60, 6, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = 2.0 * x(r, 0) - x(r, 3) + 0.1 * rng.uniform(-1.0, 1.0);
  MlpOptions options;
  options.hidden_units = 8;
  options.max_iterations = 150;
  const MlpRegressor model = MlpRegressor::fit(x, y, options);

  const linalg::Matrix queries = random_matrix(23, 6, rng);
  const std::vector<double> batched = model.predict_all(queries);
  ASSERT_EQ(batched.size(), queries.rows());
  for (std::size_t r = 0; r < queries.rows(); ++r)
    ASSERT_EQ(batched[r], model.predict(queries.row(r))) << "row " << r;
}

TEST(MlpBatchedTest, FusedRestartsBitIdenticalToSequential) {
  // fit stacks every restart's weight plane into batched GEMMs; it must
  // reproduce the sequential restart loop bit for bit at any restart count
  // — including counts past the 8-plane register-chunk kernel (7
  // exercises the odd tail, 16 the streaming fallback).
  Rng rng(113);
  const linalg::Matrix x = random_matrix(72, 5, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = std::sin(x(r, 0)) + 0.5 * x(r, 2) * x(r, 4) - x(r, 3);

  for (const std::size_t restarts : {1u, 2u, 7u, 16u}) {
    SCOPED_TRACE(restarts);
    MlpOptions options;
    options.hidden_units = 6;
    options.max_iterations = 90;
    options.restarts = restarts;
    expect_fit_matches_reference(x, y, options);
  }
}

TEST(MlpBatchedTest, FusedEarlyStopMaskingMatchesSequential) {
  // With a loose gradient tolerance and a generous iteration budget the
  // restarts converge at different iteration counts, so the fused batch
  // must mask each restart out as it stops — keeping the survivors'
  // arithmetic identical to a sequential loop where every restart runs
  // alone from the start.
  Rng rng(115);
  const linalg::Matrix x = random_matrix(50, 3, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = 1.0 + 2.0 * x(r, 0) - 0.3 * x(r, 1);

  MlpOptions options;
  options.hidden_units = 4;
  options.max_iterations = 4000;
  options.gradient_tolerance = 1e-3;  // loose: restarts stop early
  options.restarts = 5;
  expect_fit_matches_reference(x, y, options);
}

TEST(MlpBatchedTest, FitMatchesReferenceAtEveryInputWidth) {
  // Widths 1-8 take the register-blocked backward (one gw1t_rows<INNER>
  // instantiation each); 9-11 take the one-pass backward_sweep. Five
  // hidden units over three planes make the stacked width 15 = 8 + 4 + 3,
  // so every column-chunk width (8, 4, 1) runs, and narrower backward
  // subsets after rejected steps cover the other tails.
  Rng rng(117);
  for (std::size_t inputs = 1; inputs <= 11; ++inputs) {
    SCOPED_TRACE(inputs);
    const linalg::Matrix x = random_matrix(48, inputs, rng);
    std::vector<double> y(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t i = 0; i < inputs; ++i)
        y[r] += std::sin(static_cast<double>(i + 1) * x(r, i));
    }
    MlpOptions options;
    options.hidden_units = 5;
    options.max_iterations = 40;
    options.restarts = 3;
    expect_fit_matches_reference(x, y, options);
  }
}

TEST(MlpBatchedTest, FitMatchesReferencePastBlockedBackwardLimit) {
  // 2100 rows x 20 hidden x 4 planes stage more d_a than the blocked
  // backward keeps in cache, so fit takes the one-pass sweep at 8 inputs.
  constexpr std::size_t kRows = 2100, kHidden = 20, kRestarts = 4;
  static_assert(kRows * kHidden * kRestarts > detail::kBlockedBackwardLimit);
  Rng rng(119);
  const linalg::Matrix x = random_matrix(kRows, 8, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r)
    y[r] = std::tanh(x(r, 0) - x(r, 5)) + 0.25 * x(r, 3) * x(r, 7);
  MlpOptions options;
  options.hidden_units = kHidden;
  options.max_iterations = 12;
  options.restarts = kRestarts;
  expect_fit_matches_reference(x, y, options);
}

TEST(MlpBatchedTest, SingleRestartUnchangedByRestartCount) {
  // Restart 0 must draw from Rng(seed) exactly as a restarts=1 fit does,
  // so adding restarts can only ever improve the training loss.
  Rng rng(111);
  const linalg::Matrix x = random_matrix(40, 4, rng);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) y[r] = x(r, 0) + x(r, 2);

  MlpOptions one;
  one.hidden_units = 5;
  one.max_iterations = 100;
  one.restarts = 1;
  MlpOptions three = one;
  three.restarts = 3;

  const MlpRegressor single = MlpRegressor::fit(x, y, one);
  const MlpRegressor multi = MlpRegressor::fit(x, y, three);
  EXPECT_LE(multi.training_loss(), single.training_loss());
}

}  // namespace
}  // namespace coloc::ml
