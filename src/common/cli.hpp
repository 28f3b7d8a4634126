// Tiny command-line flag parser for the example and bench executables.
//
// Supports `--name=value`, `--name value`, and boolean `--flag` forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace coloc {

class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  const std::string& program() const { return program_; }
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// A whole non-negative integer (see parse_non_negative_integer); throws
  /// coloc::invalid_argument_error naming --name on anything else.
  std::uint64_t get_int(const std::string& name,
                        std::uint64_t fallback) const;
  /// A finite number that strtod consumes completely; throws
  /// coloc::invalid_argument_error naming --name on anything else.
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

/// Parses a whole non-negative decimal integer given from outside the
/// program (a flag or an environment variable). Only digits are accepted:
/// empty text, a sign, a fraction, an exponent or a value beyond
/// std::uint64_t throws coloc::invalid_argument_error naming `origin`.
std::uint64_t parse_non_negative_integer(const std::string& text,
                                         const std::string& origin);

}  // namespace coloc
