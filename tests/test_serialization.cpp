#include "ml/serialization.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/knn.hpp"
#include "ml/linear_model.hpp"
#include "ml/mlp.hpp"

namespace coloc::ml {
namespace {

LinearModel trained_linear(coloc::Rng& rng) {
  linalg::Matrix x(50, 3);
  std::vector<double> y(50);
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t c = 0; c < 3; ++c) x(i, c) = rng.normal();
    y[i] = 7.0 + 2.0 * x(i, 0) - x(i, 1) + 0.5 * x(i, 2);
  }
  return LinearModel::fit(x, y);
}

MlpRegressor trained_mlp(coloc::Rng& rng) {
  linalg::Matrix x(80, 2);
  std::vector<double> y(80);
  for (std::size_t i = 0; i < 80; ++i) {
    x(i, 0) = rng.uniform(-1, 1);
    x(i, 1) = rng.uniform(-1, 1);
    y[i] = 3.0 + x(i, 0) * x(i, 1);
  }
  return MlpRegressor::fit(x, y, {.hidden_units = 6, .max_iterations = 300});
}

TEST(Serialization, LinearRoundTripIsExact) {
  coloc::Rng rng(1);
  const LinearModel original = trained_linear(rng);
  std::stringstream ss;
  save_model(ss, original);
  const RegressorPtr loaded = load_model(ss);
  ASSERT_NE(loaded, nullptr);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> probe = {rng.normal(), rng.normal(),
                                       rng.normal()};
    EXPECT_DOUBLE_EQ(loaded->predict(probe), original.predict(probe));
  }
}

TEST(Serialization, MlpRoundTripIsExact) {
  coloc::Rng rng(2);
  const MlpRegressor original = trained_mlp(rng);
  std::stringstream ss;
  save_model(ss, original);
  const RegressorPtr loaded = load_model(ss);
  ASSERT_NE(loaded, nullptr);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> probe = {rng.uniform(-1, 1),
                                       rng.uniform(-1, 1)};
    EXPECT_DOUBLE_EQ(loaded->predict(probe), original.predict(probe));
  }
}

TEST(Serialization, LoadedMlpKeepsTopologyDescription) {
  coloc::Rng rng(3);
  const MlpRegressor original = trained_mlp(rng);
  std::stringstream ss;
  save_model(ss, original);
  const RegressorPtr loaded = load_model(ss);
  EXPECT_NE(loaded->describe().find("hidden=6"), std::string::npos);
}

TEST(Serialization, KnnIsRejected) {
  linalg::Matrix x{{0.0}, {1.0}};
  const std::vector<double> y = {1.0, 2.0};
  const KnnRegressor knn = KnnRegressor::fit(x, y);
  std::stringstream ss;
  EXPECT_THROW(save_model(ss, knn), invalid_argument_error);
}

TEST(Serialization, BadHeaderRejected) {
  std::stringstream ss;
  ss << "definitely not a model\n";
  EXPECT_THROW(load_model(ss), coloc::runtime_error);
}

TEST(Serialization, UnknownTypeRejected) {
  std::stringstream ss;
  ss << "coloc-model v1\ntype forest\nend\n";
  EXPECT_THROW(load_model(ss), invalid_argument_error);
}

TEST(Serialization, TruncatedStreamRejected) {
  coloc::Rng rng(4);
  const LinearModel original = trained_linear(rng);
  std::stringstream ss;
  save_model(ss, original);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(truncated), coloc::runtime_error);
}

// --- hostile doubles ------------------------------------------------------
// The on-disk format carries every coefficient as text; values at the edge
// of the double range (subnormals especially) historically broke stream
// extraction because strtod reports ERANGE for them even though it returns
// the correctly rounded value.

std::vector<double> hostile_values() {
  return {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),        // 4.94e-324
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),               // 2.23e-308
      std::numeric_limits<double>::min() / 2.0,         // subnormal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1.0 + std::numeric_limits<double>::epsilon(),
      0.1,  // classic non-representable decimal
  };
}

bool bit_identical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Serialization, HostileDoublesRoundTripBitExact) {
  const std::vector<double> coefficients = hostile_values();
  const LinearModel original = LinearModel::from_params(
      coefficients, -std::numeric_limits<double>::denorm_min());
  std::stringstream ss;
  save_model(ss, original);
  const RegressorPtr loaded = load_model(ss);
  const auto* linear = dynamic_cast<const LinearModel*>(loaded.get());
  ASSERT_NE(linear, nullptr);
  ASSERT_EQ(linear->coefficients().size(), coefficients.size());
  for (std::size_t i = 0; i < coefficients.size(); ++i) {
    EXPECT_TRUE(bit_identical(linear->coefficients()[i], coefficients[i]))
        << "coefficient " << i << " = " << coefficients[i];
  }
  EXPECT_TRUE(bit_identical(linear->intercept(), original.intercept()));
}

TEST(Serialization, SecondSaveIsByteIdentical) {
  const LinearModel original =
      LinearModel::from_params(hostile_values(), 0.25);
  std::stringstream first;
  save_model(first, original);
  std::stringstream copy(first.str());
  const RegressorPtr loaded = load_model(copy);
  std::stringstream second;
  save_model(second, *loaded);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Serialization, MalformedDoubleTokenRejected) {
  std::stringstream ss;
  ss << "coloc-model v1\ntype linear\ncoefficients 2 1.5 banana\n"
        "intercept 1 0\nend\n";
  EXPECT_THROW(load_model(ss), coloc::runtime_error);
}

TEST(Serialization, TruncatedCoefficientListRejected) {
  std::stringstream ss;
  ss << "coloc-model v1\ntype linear\ncoefficients 5 1.0 2.0\n";
  EXPECT_THROW(load_model(ss), coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::ml
