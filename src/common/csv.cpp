#include "common/csv.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace coloc {

void CsvTable::add_row(std::vector<std::string> row) {
  if (!header_.empty()) {
    COLOC_CHECK_MSG(row.size() == header_.size(),
                    "CSV row width does not match header");
  }
  rows_.push_back(std::move(row));
}

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw invalid_argument_error("CSV column not found: " + name);
}

const std::string& CsvTable::at(std::size_t row, std::size_t col) const {
  COLOC_CHECK(row < rows_.size());
  COLOC_CHECK(col < rows_[row].size());
  return rows_[row][col];
}

double CsvTable::at_double(std::size_t row, std::size_t col) const {
  const std::string& text = at(row, col);
  // strtod alone would skip leading blanks and stop at trailing junk. Its
  // ERANGE is ignored: it also flags subnormal results, which it returns
  // correctly rounded, and an overflow returns an infinity, which the
  // finiteness check rejects.
  const char* begin = text.c_str();
  char* end = nullptr;
  const double v = text.empty() || std::isspace(static_cast<unsigned char>(
                                       text.front()))
                       ? 0.0
                       : std::strtod(begin, &end);
  const bool parsed = end == begin + text.size();
  if (!parsed || !std::isfinite(v)) {
    throw data_error("CSV row " + std::to_string(row) + " column " +
                     (col < header_.size() ? header_[col]
                                           : std::to_string(col)) +
                     ": '" + text + "' is " +
                     (parsed ? "not finite" : "not a number"));
  }
  return v;
}

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvTable::write(std::ostream& os) const {
  auto write_row = [&os](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << csv_escape(row[i]);
    }
    os << '\n';
  };
  if (!header_.empty()) write_row(header_);
  for (const auto& row : rows_) write_row(row);
}

void CsvTable::save(const std::string& path) const {
  std::ofstream f(path);
  COLOC_CHECK_MSG(f.good(), "cannot open CSV for writing: " + path);
  write(f);
}

namespace {

/// Splits one logical CSV record (handles quotes, consuming extra lines for
/// embedded newlines). Returns false at end of stream with nothing read.
bool read_record(std::istream& is, std::vector<std::string>& fields) {
  fields.clear();
  std::string field;
  bool in_quotes = false;
  bool any = false;
  int c;
  while ((c = is.get()) != EOF) {
    any = true;
    const char ch = static_cast<char>(c);
    if (in_quotes) {
      if (ch == '"') {
        if (is.peek() == '"') {
          field += '"';
          is.get();
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (ch == '\n') {
      break;
    } else if (ch == '\r') {
      // Swallow; \r\n handled when \n arrives next.
    } else {
      field += ch;
    }
  }
  if (!any) return false;
  fields.push_back(std::move(field));
  return true;
}

}  // namespace

CsvTable CsvTable::parse(std::istream& is) {
  CsvTable t;
  std::vector<std::string> fields;
  if (read_record(is, fields)) t.header_ = fields;
  while (read_record(is, fields)) {
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != t.header_.size()) {
      throw data_error("CSV row " + std::to_string(t.rows_.size()) +
                       " has " + std::to_string(fields.size()) +
                       " fields; the header has " +
                       std::to_string(t.header_.size()));
    }
    t.rows_.push_back(fields);
  }
  return t;
}

CsvTable CsvTable::load(const std::string& path) {
  std::ifstream f(path);
  COLOC_CHECK_MSG(f.good(), "cannot open CSV for reading: " + path);
  return parse(f);
}

}  // namespace coloc
