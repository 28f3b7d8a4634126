#include "ml/serialization.hpp"

#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "ml/linear_model.hpp"
#include "ml/mlp.hpp"

namespace coloc::ml {

namespace {

constexpr const char* kHeader = "coloc-model v1";

void write_doubles(std::ostream& os, const char* key,
                   std::span<const double> values) {
  os << key << " " << values.size();
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (double v : values) os << " " << v;
  os << "\n";
}

// Token + strtod instead of `is >> v`: stream extraction may set failbit
// on subnormal magnitudes (the underlying strtod reports ERANGE even
// though it returns the correctly rounded denormal), which would make a
// legitimately saved model unloadable. strtod's return value is correct
// in that case; only genuinely malformed tokens are rejected.
double read_double_token(std::istream& is, const std::string& what) {
  std::string token;
  COLOC_CHECK_MSG(static_cast<bool>(is >> token),
                  "truncated model stream reading " + what);
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  COLOC_CHECK_MSG(end != token.c_str() && *end == '\0',
                  "model stream: cannot parse '" + token + "' as a double");
  return v;
}

std::vector<double> read_doubles(std::istream& is, const std::string& key) {
  std::string actual_key;
  std::size_t count = 0;
  COLOC_CHECK_MSG(static_cast<bool>(is >> actual_key >> count),
                  "truncated model stream");
  COLOC_CHECK_MSG(actual_key == key,
                  "model stream: expected key '" + key + "', got '" +
                      actual_key + "'");
  std::vector<double> values(count);
  for (auto& v : values) v = read_double_token(is, key);
  return values;
}

double read_scalar(std::istream& is, const std::string& key) {
  const auto values = read_doubles(is, key);
  COLOC_CHECK_MSG(values.size() == 1, "expected a single value for " + key);
  return values[0];
}

void expect_token(std::istream& is, const std::string& token) {
  std::string actual;
  COLOC_CHECK_MSG(static_cast<bool>(is >> actual) && actual == token,
                  "model stream: expected '" + token + "'");
}

void save_linear(std::ostream& os, const LinearModel& model) {
  os << "type linear\n";
  write_doubles(os, "coefficients", model.coefficients());
  write_doubles(os, "intercept", std::vector<double>{model.intercept()});
}

RegressorPtr load_linear(std::istream& is) {
  auto coefficients = read_doubles(is, "coefficients");
  const double intercept = read_scalar(is, "intercept");
  return std::make_unique<LinearModel>(
      LinearModel::from_params(std::move(coefficients), intercept));
}

void save_mlp(std::ostream& os, const MlpRegressor& model) {
  os << "type mlp\n";
  const MlpNetwork& net = model.network();
  os << "topology " << net.num_inputs() << " " << net.num_hidden() << "\n";
  write_doubles(os, "parameters", net.parameters());
  write_doubles(os, "input_means", model.input_scaler().means());
  write_doubles(os, "input_stddevs", model.input_scaler().stddevs());
  write_doubles(os, "target",
                std::vector<double>{model.target_scaler().mean(),
                                    model.target_scaler().sd()});
}

RegressorPtr load_mlp(std::istream& is) {
  expect_token(is, "topology");
  std::size_t inputs = 0, hidden = 0;
  COLOC_CHECK_MSG(static_cast<bool>(is >> inputs >> hidden),
                  "truncated topology");
  MlpNetwork net(inputs, hidden);
  const auto parameters = read_doubles(is, "parameters");
  net.set_parameters(parameters);
  auto means = read_doubles(is, "input_means");
  auto stddevs = read_doubles(is, "input_stddevs");
  const auto target = read_doubles(is, "target");
  COLOC_CHECK_MSG(target.size() == 2, "target scaler needs mean and sd");
  return std::make_unique<MlpRegressor>(MlpRegressor::from_parts(
      std::move(net),
      Standardizer::from_params(std::move(means), std::move(stddevs)),
      TargetScaler::from_params(target[0], target[1])));
}

}  // namespace

void save_model(std::ostream& os, const Regressor& model) {
  os << kHeader << "\n";
  if (const auto* linear = dynamic_cast<const LinearModel*>(&model)) {
    save_linear(os, *linear);
  } else if (const auto* mlp = dynamic_cast<const MlpRegressor*>(&model)) {
    save_mlp(os, *mlp);
  } else {
    throw coloc::invalid_argument_error(
        "model type does not support serialization: " + model.describe());
  }
  os << "end\n";
  COLOC_CHECK_MSG(os.good(), "failed writing model stream");
}

RegressorPtr load_model(std::istream& is) {
  std::string header;
  std::getline(is, header);
  COLOC_CHECK_MSG(header == kHeader,
                  "not a coloc model stream (bad header)");
  std::string key, type;
  COLOC_CHECK_MSG(static_cast<bool>(is >> key >> type) && key == "type",
                  "model stream missing type");
  RegressorPtr model;
  if (type == "linear") {
    model = load_linear(is);
  } else if (type == "mlp") {
    model = load_mlp(is);
  } else {
    throw coloc::invalid_argument_error("unknown model type: " + type);
  }
  expect_token(is, "end");
  return model;
}

}  // namespace coloc::ml
