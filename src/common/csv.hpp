// Minimal CSV reading/writing for exporting datasets and experiment series.
//
// Supports quoted fields with embedded commas/quotes/newlines — enough to
// round-trip every file the library produces.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace coloc {

/// In-memory CSV document: a header row plus data rows of strings.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }

  /// Appends a row; its width must match the header (if a header is set).
  void add_row(std::vector<std::string> row);

  /// Column index by name; throws if absent.
  std::size_t column(const std::string& name) const;

  const std::string& at(std::size_t row, std::size_t col) const;
  /// The field parsed whole as a finite double. Anything else — trailing
  /// text, a blank, "nan", "inf" or a value that overflows — throws
  /// coloc::data_error naming the row and column.
  double at_double(std::size_t row, std::size_t col) const;

  void write(std::ostream& os) const;
  void save(const std::string& path) const;

  /// Reads a header and data rows; a row whose width differs from the
  /// header's throws coloc::data_error.
  static CsvTable parse(std::istream& is);
  static CsvTable load(const std::string& path);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Escapes a single CSV field (adds quotes only when needed).
std::string csv_escape(const std::string& field);

}  // namespace coloc
