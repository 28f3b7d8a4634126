// Trained-model persistence.
//
// A resource manager trains once (minutes) and predicts for weeks, so
// deployable models must survive process restarts. Format: a line-based
// text container — human-inspectable, versioned, locale-independent
// (numbers are printed with max_digits10 so round-trips are exact).
//
//   coloc-model v1
//   type linear|mlp
//   ... type-specific key/value lines ...
//   end
//
// Supported models: LinearModel and MlpRegressor (the paper's two
// techniques). KnnRegressor intentionally is not — it would serialize the
// whole training set; persist the campaign CSV instead.
#pragma once

#include <iosfwd>

#include "ml/model.hpp"

namespace coloc::ml {

/// Writes a trained model. Throws coloc::invalid_argument_error for model
/// types without serialization support.
void save_model(std::ostream& os, const Regressor& model);

/// Reads a model written by save_model. A malformed stream throws
/// coloc::data_error naming the key: a bad token or count, a non-finite
/// value, or a count other than the one the MLP topology implies. Values
/// are read one token at a time, so no count read from the stream sizes an
/// allocation.
RegressorPtr load_model(std::istream& is);

}  // namespace coloc::ml
