#include "common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/error.hpp"

namespace coloc {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::uint64_t CliArgs::get_int(const std::string& name,
                               std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback
                            : parse_non_negative_integer(it->second,
                                                         "--" + name);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || !std::isfinite(value)) {
    throw invalid_argument_error("--" + name + ": cannot parse '" + text +
                                 "' as a finite number");
  }
  return value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::uint64_t parse_non_negative_integer(const std::string& text,
                                         const std::string& origin) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno == ERANGE) {
    throw invalid_argument_error(origin + ": cannot parse '" + text +
                                 "' as a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

}  // namespace coloc
