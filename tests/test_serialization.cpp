#include "ml/serialization.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/knn.hpp"
#include "ml/linear_model.hpp"
#include "ml/mlp.hpp"
#include "test_helpers.hpp"

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
  EXPECT_THROW(load_model(ss), coloc::data_error);
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

TEST(Serialization, NonFiniteValuesRejected) {
  // A linear model and a 1-input, 1-hidden MLP (4 parameters), each value
  // slot given as text.
  const auto linear = [](const std::string& coefficient,
                         const std::string& intercept) {
    return "coloc-model v1\ntype linear\ncoefficients 2 1.5 " +
           coefficient + "\nintercept 1 " + intercept + "\nend\n";
  };
  const auto mlp = [](const std::string& parameter, const std::string& mean,
                      const std::string& sd, const std::string& target) {
    return "coloc-model v1\ntype mlp\ntopology 1 1\nparameters 4 0.5 " +
           parameter + " -0.75 0.125\ninput_means 1 " + mean +
           "\ninput_stddevs 1 " + sd + "\ntarget 2 " + target + " 5\nend\n";
  };
  const auto load = [](const std::string& text) {
    std::stringstream ss(text);
    return load_model(ss);
  };
  ASSERT_NO_THROW(load(linear("2", "0")));
  ASSERT_NO_THROW(load(mlp("0.25", "2", "3", "4")));
  for (const std::string bad : {"nan", "-nan", "NaN", "inf", "-inf",
                                "infinity", "1e999", "-1e999"}) {
    EXPECT_THROW(load(linear(bad, "0")), coloc::data_error) << bad;
    EXPECT_THROW(load(linear("2", bad)), coloc::data_error) << bad;
    EXPECT_THROW(load(mlp(bad, "2", "3", "4")), coloc::data_error) << bad;
    EXPECT_THROW(load(mlp("0.25", bad, "3", "4")), coloc::data_error) << bad;
    EXPECT_THROW(load(mlp("0.25", "2", bad, "4")), coloc::data_error) << bad;
    EXPECT_THROW(load(mlp("0.25", "2", "3", bad)), coloc::data_error) << bad;
  }
}

TEST(Serialization, SeededMutationsLoadOrThrowDataError) {
  coloc::Rng train_rng(5);
  std::stringstream linear, mlp;
  save_model(linear, trained_linear(train_rng));
  save_model(mlp, trained_mlp(train_rng));
  coloc::Rng rng(20261021);
  for (const std::string& original : {linear.str(), mlp.str()}) {
    std::size_t loaded = 0, rejected = 0;
    for (int trial = 0; trial < 600; ++trial) {
      std::string applied;
      std::stringstream mutated(
          testing_helpers::mutate_bytes(original, rng, applied));
      RegressorPtr model;
      try {
        model = load_model(mutated);
      } catch (const coloc::data_error&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "trial " << trial << " (mutations " << applied
                      << ") threw a non-data error: " << e.what();
        continue;
      }
      ++loaded;
      // Whatever loaded is a model: it saves, reloads and saves the same
      // bytes.
      std::stringstream first;
      save_model(first, *model);
      std::stringstream copy(first.str());
      std::stringstream second;
      save_model(second, *load_model(copy));
      EXPECT_EQ(first.str(), second.str())
          << "trial " << trial << " (mutations " << applied << ")";
    }
    // The mutations reach both outcomes.
    EXPECT_GT(loaded, 0u);
    EXPECT_GT(rejected, 0u);
  }
}

}  // namespace
}  // namespace coloc::ml
