#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace coloc {
namespace {

TEST(Csv, RoundTripSimple) {
  CsvTable t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  std::ostringstream os;
  t.write(os);
  std::istringstream is(os.str());
  const CsvTable back = CsvTable::parse(is);
  EXPECT_EQ(back.header(), t.header());
  EXPECT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.at(1, 1), "4");
}

TEST(Csv, EscapesCommasAndQuotes) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RoundTripQuotedFields) {
  CsvTable t({"name", "note"});
  t.add_row({"x,y", "he said \"ok\""});
  t.add_row({"multi\nline", "plain"});
  std::ostringstream os;
  t.write(os);
  std::istringstream is(os.str());
  const CsvTable back = CsvTable::parse(is);
  EXPECT_EQ(back.at(0, 0), "x,y");
  EXPECT_EQ(back.at(0, 1), "he said \"ok\"");
  EXPECT_EQ(back.at(1, 0), "multi\nline");
}

TEST(Csv, ColumnLookup) {
  CsvTable t({"alpha", "beta", "gamma"});
  EXPECT_EQ(t.column("beta"), 1u);
  EXPECT_THROW(t.column("delta"), invalid_argument_error);
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), coloc::runtime_error);
  // Parsed bytes are outside input: a ragged row is a data error.
  std::istringstream short_row("a,b\n1,2\n3\n");
  EXPECT_THROW(CsvTable::parse(short_row), coloc::data_error);
  std::istringstream long_row("a,b\n1,2,3\n");
  EXPECT_THROW(CsvTable::parse(long_row), coloc::data_error);
}

TEST(Csv, AtDoubleParses) {
  CsvTable t({"v"});
  for (const char* text : {"2.5", "4.9406564584124654e-324", "nan", "1e999",
                           "inf", "-inf", "1.5u", "abc", "", " 1", "1 "})
    t.add_row({text});
  EXPECT_DOUBLE_EQ(t.at_double(0, 0), 2.5);
  // A subnormal parses although strtod flags it with ERANGE.
  EXPECT_EQ(t.at_double(1, 0), std::numeric_limits<double>::denorm_min());
  // The whole field must parse, to a finite value: nan, an overflow to
  // inf, and an inf written out are rejected too.
  for (std::size_t row = 2; row < t.num_rows(); ++row)
    EXPECT_THROW(t.at_double(row, 0), coloc::data_error) << t.at(row, 0);
}

TEST(Csv, ParsesCrlfLineEndings) {
  std::istringstream is("a,b\r\n1,2\r\n");
  const CsvTable t = CsvTable::parse(is);
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.at(0, 1), "2");
}

TEST(Csv, SkipsBlankLines) {
  std::istringstream is("a,b\n1,2\n\n3,4\n");
  const CsvTable t = CsvTable::parse(is);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Csv, SaveAndLoadFile) {
  const std::string path = ::testing::TempDir() + "/coloc_csv_test.csv";
  CsvTable t({"x"});
  t.add_row({"7"});
  t.save(path);
  const CsvTable back = CsvTable::load(path);
  EXPECT_EQ(back.at(0, 0), "7");
  std::remove(path.c_str());
}

TEST(Csv, LoadMissingFileThrows) {
  EXPECT_THROW(CsvTable::load("/nonexistent/coloc.csv"),
               coloc::runtime_error);
}

TEST(Csv, OutOfRangeAccessThrows) {
  CsvTable t({"a"});
  t.add_row({"1"});
  EXPECT_THROW(t.at(1, 0), coloc::runtime_error);
  EXPECT_THROW(t.at(0, 1), coloc::runtime_error);
}

}  // namespace
}  // namespace coloc
