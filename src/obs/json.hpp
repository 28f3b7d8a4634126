// Minimal JSON document model + recursive-descent parser.
//
// The observability subsystem emits machine-readable artifacts (metrics
// snapshots, Chrome trace files); this reader lets tests and tools load
// them back without an external dependency. It supports the full JSON
// grammar (RFC 8259) including string escapes and \uXXXX sequences.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace coloc::obs {

/// A parsed JSON value. Object member order is preserved.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_bool() const { return type == Type::kBool; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Object member lookup; throws coloc JSON error when absent.
  const JsonValue& at(std::string_view key) const;
  /// Array element access with bounds checking.
  const JsonValue& at(std::size_t index) const;
  std::size_t size() const;
};

/// Parses a complete JSON document; throws std::runtime_error (with byte
/// offset) on malformed input or trailing garbage.
JsonValue json_parse(std::string_view text);

/// Parses the file at `path`; throws on I/O failure or malformed JSON.
JsonValue json_parse_file(const std::string& path);

/// Escapes a string for embedding inside JSON double quotes (quotes not
/// included in the result).
std::string json_escape(std::string_view s);

/// `v` with 17 significant digits (%.17g, max_digits10): strtod reads the
/// text back as the same double, -0.0, subnormals and DBL_MAX included.
/// The one formatter behind metrics.json, manifest.json and every CSV of
/// doubles the library writes.
std::string format_double(double v);

}  // namespace coloc::obs
