#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "test_helpers.hpp"

namespace coloc::ml {
namespace {

using testing_helpers::expect_datasets_identical;

Dataset make_dataset() {
  Dataset ds({"f0", "f1", "f2"}, "y");
  ds.add_row(std::vector<double>{1.0, 2.0, 3.0}, 10.0, "a");
  ds.add_row(std::vector<double>{4.0, 5.0, 6.0}, 20.0, "b");
  ds.add_row(std::vector<double>{7.0, 8.0, 9.0}, 30.0, "c");
  return ds;
}

TEST(DatasetTest, BasicAccessors) {
  const Dataset ds = make_dataset();
  EXPECT_EQ(ds.num_rows(), 3u);
  EXPECT_EQ(ds.num_features(), 3u);
  EXPECT_EQ(ds.target_name(), "y");
  EXPECT_DOUBLE_EQ(ds.target(1), 20.0);
  EXPECT_EQ(ds.tag(2), "c");
  EXPECT_DOUBLE_EQ(ds.features(1)[2], 6.0);
}

TEST(DatasetTest, WidthMismatchThrows) {
  Dataset ds({"a", "b"}, "y");
  EXPECT_THROW(ds.add_row(std::vector<double>{1.0}, 0.0),
               coloc::runtime_error);
}

TEST(DatasetTest, DesignMatrixSelectsRowsAndColumns) {
  const Dataset ds = make_dataset();
  const std::vector<std::size_t> rows = {2, 0};
  const std::vector<std::size_t> cols = {1};
  const linalg::Matrix m = ds.design_matrix(rows, cols);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_DOUBLE_EQ(m(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 2.0);
}

TEST(DatasetTest, TargetSubset) {
  const Dataset ds = make_dataset();
  const std::vector<std::size_t> rows = {1, 2};
  const std::vector<double> y = ds.target_subset(rows);
  EXPECT_EQ(y, (std::vector<double>{20.0, 30.0}));
}

TEST(DatasetTest, SubsetPreservesTags) {
  const Dataset ds = make_dataset();
  const std::vector<std::size_t> rows = {2};
  const Dataset sub = ds.subset(rows);
  EXPECT_EQ(sub.num_rows(), 1u);
  EXPECT_EQ(sub.tag(0), "c");
  EXPECT_DOUBLE_EQ(sub.target(0), 30.0);
}

TEST(DatasetTest, FeatureIndexLookup) {
  const Dataset ds = make_dataset();
  EXPECT_EQ(ds.feature_index("f1"), 1u);
  EXPECT_THROW(ds.feature_index("zzz"), invalid_argument_error);
}

TEST(DatasetTest, CsvRoundTrip) {
  Dataset ds = make_dataset();
  // Values six fixed decimals would zero or round, and the extremes.
  ds.add_row(std::vector<double>{3.2e-7, 279.41234567, 1.0 / 3.0},
             0.1 + 0.2, "small,rounded");
  ds.add_row(std::vector<double>{std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::max(), -0.0},
             -7.25e-12, "extremes");
  const Dataset back = testing_helpers::through_csv_text(ds);
  EXPECT_EQ(back.num_rows(), 5u);
  expect_datasets_identical(back, ds);
}

TEST(StandardizerTest, ZeroMeanUnitVariance) {
  linalg::Matrix x{{1.0, 10.0}, {2.0, 20.0}, {3.0, 30.0}};
  const Standardizer s = Standardizer::fit(x);
  s.transform(x);
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < 3; ++r) sum += x(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
  EXPECT_NEAR(x(2, 0), 1.0, 1e-12);  // (3-2)/1
}

TEST(StandardizerTest, ConstantColumnPassesThrough) {
  linalg::Matrix x{{5.0}, {5.0}, {5.0}};
  const Standardizer s = Standardizer::fit(x);
  s.transform(x);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(x(r, 0), 0.0);
}

TEST(StandardizerTest, InverseRecoversValue) {
  linalg::Matrix x{{1.0}, {3.0}, {5.0}};
  const Standardizer s = Standardizer::fit(x);
  std::vector<double> row = {4.0};
  s.transform_row(row);
  EXPECT_NEAR(s.inverse(0, row[0]), 4.0, 1e-12);
}

TEST(TargetScalerTest, RoundTrip) {
  const std::vector<double> y = {10.0, 20.0, 30.0};
  const TargetScaler t = TargetScaler::fit(y);
  EXPECT_NEAR(t.inverse(t.transform(17.0)), 17.0, 1e-12);
  const auto z = t.transform_all(y);
  EXPECT_NEAR(z[0] + z[1] + z[2], 0.0, 1e-12);
}

TEST(DatasetTest, EmptyFeatureListRejected) {
  EXPECT_THROW(Dataset({}, "y"), coloc::runtime_error);
}

TEST(DatasetTest, NonFiniteFeatureRejectedAtIngestion) {
  Dataset ds({"f0", "f1"}, "y");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  try {
    ds.add_row(std::vector<double>{1.0, nan}, 2.0, "poisoned");
    FAIL() << "expected data_error";
  } catch (const data_error& e) {
    EXPECT_NE(std::string(e.what()).find("poisoned"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("f1"), std::string::npos);
  }
  EXPECT_EQ(ds.num_rows(), 0u) << "a rejected row must not be stored";
}

TEST(DatasetTest, NonFiniteTargetRejectedAtIngestion) {
  Dataset ds({"f0"}, "y");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ds.add_row(std::vector<double>{1.0}, inf, "t"), data_error);
  EXPECT_EQ(ds.num_rows(), 0u);
}

// Every field must be a finite number: nan, inf or -inf in a feature or
// in the target is a data_error naming the row and the column.
TEST(DatasetTest, FromCsvRejectsNonFiniteByDefault) {
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    for (const std::string column : {"f0", "y"}) {
      CsvTable table({"f0", "y", "tag"});
      table.add_row({"1.0", "10.0", "good"});
      table.add_row({column == "f0" ? bad : "2.0",
                     column == "y" ? bad : "20.0", "bad"});
      try {
        Dataset::from_csv(table, "y");
        ADD_FAILURE() << bad << " in " << column << " loaded";
      } catch (const data_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("row 1"), std::string::npos) << what;
        EXPECT_NE(what.find("column " + column), std::string::npos) << what;
      }
    }
  }
}

TEST(DatasetTest, FromCsvRejectsATableWithoutItsColumns) {
  EXPECT_THROW(Dataset::from_csv(CsvTable({"f0", "tag"}), "y"), data_error);
  EXPECT_THROW(Dataset::from_csv(CsvTable({"y", "tag"}), "y"), data_error);
  EXPECT_THROW(Dataset::from_csv(CsvTable(), "y"), data_error);
}

// Seeded fuzzing of the dataset CSV reader: a real campaign dataset.csv
// written by to_csv, under the checkpoint fuzzer's byte and line
// mutations. A mutated file either loads rows that are all finite or
// throws data_error; nothing else may escape.
TEST(DatasetCsv, SeededMutationsLoadOrThrowDataError) {
  core::CampaignConfig config;
  config.targets = testing_helpers::tiny_suite();
  config.coapps = {config.targets[0], config.targets[3]};
  sim::AppMrcLibrary library;
  sim::Simulator simulator(testing_helpers::tiny_machine(), &library);
  std::ostringstream os;
  core::run_campaign(simulator, config).dataset.to_csv().write(os);
  const std::string original = os.str();
  ASSERT_FALSE(original.empty());

  coloc::Rng rng(20261021);
  std::size_t loaded = 0, rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string applied;
    std::istringstream is(
        testing_helpers::mutate_bytes(original, rng, applied));
    try {
      const Dataset ds =
          Dataset::from_csv(CsvTable::parse(is), "colocExTime");
      ++loaded;
      for (std::size_t r = 0; r < ds.num_rows(); ++r) {
        EXPECT_TRUE(std::isfinite(ds.target(r)))
            << "trial " << trial << " (mutations " << applied << ")";
        for (double v : ds.features(r)) {
          EXPECT_TRUE(std::isfinite(v))
              << "trial " << trial << " (mutations " << applied << ")";
        }
      }
    } catch (const coloc::data_error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << " (mutations " << applied
                    << ") threw a non-data error: " << e.what();
    }
  }
  // The mutations reach both outcomes.
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace coloc::ml
