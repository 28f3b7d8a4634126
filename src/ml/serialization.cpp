#include "ml/serialization.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>

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

[[noreturn]] void reject(const std::string& what) {
  throw data_error("model stream: " + what);
}

std::string read_token(std::istream& is, const std::string& key) {
  std::string token;
  if (!(is >> token)) reject("truncated reading " + key);
  return token;
}

void expect_token(std::istream& is, const std::string& token) {
  if (read_token(is, token) != token) reject("expected '" + token + "'");
}

// Token + strtod instead of `is >> v`: stream extraction may set failbit
// on subnormal magnitudes (the underlying strtod reports ERANGE even
// though it returns the correctly rounded denormal), which would make a
// legitimately saved model unloadable. strtod's return value is correct
// in that case; malformed tokens and non-finite values (nan, inf, or a
// magnitude past the double range) are rejected.
double read_double_token(std::istream& is, const std::string& key) {
  const std::string token = read_token(is, key);
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    reject("cannot parse '" + token + "' as a double in " + key);
  }
  if (!std::isfinite(v)) reject("non-finite value '" + token + "' in " + key);
  return v;
}

/// A whole non-negative decimal token.
std::size_t read_count(std::istream& is, const std::string& key) {
  const std::string token = read_token(is, key);
  std::size_t count = 0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, count);
  if (ec != std::errc{} || end != last) {
    reject("cannot parse '" + token + "' as a count in " + key);
  }
  return count;
}

/// Reads `key count v...`. The values are read one token at a time, so a
/// damaged count cannot size an allocation: the stream runs out first.
/// `expected` is the count the model's shape implies, 0 when it is free.
std::vector<double> read_doubles(std::istream& is, const std::string& key,
                                 std::size_t expected) {
  expect_token(is, key);
  const std::size_t count = read_count(is, key);
  if (count == 0) reject(key + " holds no values");
  if (expected != 0 && count != expected) {
    reject(key + " holds " + std::to_string(count) + " values, expected " +
           std::to_string(expected));
  }
  std::vector<double> values;
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(read_double_token(is, key));
  }
  return values;
}

void save_linear(std::ostream& os, const LinearModel& model) {
  os << "type linear\n";
  write_doubles(os, "coefficients", model.coefficients());
  write_doubles(os, "intercept", std::vector<double>{model.intercept()});
}

RegressorPtr load_linear(std::istream& is) {
  auto coefficients = read_doubles(is, "coefficients", 0);
  const double intercept = read_doubles(is, "intercept", 1)[0];
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
  const std::size_t inputs = read_count(is, "topology");
  const std::size_t hidden = read_count(is, "topology");
  if (inputs == 0 || hidden == 0) {
    reject("topology needs inputs and hidden > 0");
  }
  // MlpNetwork::num_parameters(), hidden * (inputs + 2) + 1, without
  // wrapping.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (inputs > kMax - 2 || hidden > (kMax - 1) / (inputs + 2)) {
    reject("topology " + std::to_string(inputs) + " " +
           std::to_string(hidden) + " is too large");
  }
  const auto parameters =
      read_doubles(is, "parameters", hidden * (inputs + 2) + 1);
  auto means = read_doubles(is, "input_means", inputs);
  auto stddevs = read_doubles(is, "input_stddevs", inputs);
  const auto target = read_doubles(is, "target", 2);
  for (double sd : stddevs) {
    if (!(sd > 0.0)) reject("input_stddevs must be positive");
  }
  if (!(target[1] > 0.0)) reject("target sd must be positive");
  MlpNetwork net(inputs, hidden);
  net.set_parameters(parameters);
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
  if (header != kHeader) reject("bad header");
  expect_token(is, "type");
  const std::string type = read_token(is, "type");
  RegressorPtr model;
  if (type == "linear") {
    model = load_linear(is);
  } else if (type == "mlp") {
    model = load_mlp(is);
  } else {
    reject("unknown model type: " + type);
  }
  expect_token(is, "end");
  return model;
}

}  // namespace coloc::ml
