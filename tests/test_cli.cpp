#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace coloc {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesEqualsForm) {
  const auto args = make({"prog", "--count=5"});
  EXPECT_EQ(args.get_int("count", 0), 5);
}

TEST(Cli, ParsesSpaceForm) {
  const auto args = make({"prog", "--name", "hello"});
  EXPECT_EQ(args.get("name", ""), "hello");
}

TEST(Cli, BooleanFlagWithoutValue) {
  const auto args = make({"prog", "--verbose"});
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto args = make({"prog"});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(args.get_bool("missing", true));
}

TEST(Cli, PositionalArguments) {
  const auto args = make({"prog", "one", "--flag=x", "two"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "one");
  EXPECT_EQ(args.positional()[1], "two");
}

TEST(Cli, HasDetectsPresence) {
  const auto args = make({"prog", "--a=1"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_FALSE(args.has("b"));
}

TEST(Cli, DoubleParsing) {
  const auto args = make({"prog", "--ratio=0.25"});
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 0.25);
}

TEST(Cli, BoolValueForms) {
  EXPECT_TRUE(make({"p", "--x=true"}).get_bool("x", false));
  EXPECT_TRUE(make({"p", "--x=1"}).get_bool("x", false));
  EXPECT_TRUE(make({"p", "--x=yes"}).get_bool("x", false));
  EXPECT_FALSE(make({"p", "--x=false"}).get_bool("x", true));
}

TEST(Cli, ProgramName) {
  EXPECT_EQ(make({"prog"}).program(), "prog");
}

TEST(Cli, FlagFollowedByFlagIsBoolean) {
  const auto args = make({"prog", "--a", "--b=2"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_EQ(args.get_int("b", 0), 2);
}

/// Expects `read` to throw coloc::invalid_argument_error naming `flag`.
template <typename Read>
void expect_rejected(const char* flag, Read read) {
  try {
    read();
    ADD_FAILURE() << "accepted";
  } catch (const invalid_argument_error& e) {
    EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
        << e.what();
  }
}

TEST(Cli, IntRejectsAnythingButAWholeNonNegativeInteger) {
  for (const char* bad : {"--count=abc", "--count=-1", "--count=2.5",
                          "--count=", "--count=7x", "--count= 7",
                          "--count=99999999999999999999", "--count"}) {
    SCOPED_TRACE(bad);
    const auto args = make({"prog", bad});
    expect_rejected("--count", [&] { args.get_int("count", 3); });
  }
  EXPECT_EQ(make({"prog", "--count=0"}).get_int("count", 3), 0u);
  EXPECT_EQ(make({"prog", "--count=18446744073709551615"}).get_int("count", 3),
            18446744073709551615u);
}

TEST(Cli, DoubleRejectsPartialAndNonFiniteText) {
  for (const char* bad : {"--ratio=abc", "--ratio=0.5x", "--ratio=",
                          "--ratio= 0.5", "--ratio=nan", "--ratio=inf",
                          "--ratio=-inf", "--ratio=1e999", "--ratio"}) {
    SCOPED_TRACE(bad);
    const auto args = make({"prog", bad});
    expect_rejected("--ratio", [&] { args.get_double("ratio", 0.0); });
  }
  EXPECT_DOUBLE_EQ(make({"prog", "--ratio=-1.5"}).get_double("ratio", 0.0),
                   -1.5);
  EXPECT_DOUBLE_EQ(make({"prog", "--ratio=2e-3"}).get_double("ratio", 0.0),
                   2e-3);
  EXPECT_DOUBLE_EQ(make({"prog", "--ratio=3"}).get_double("ratio", 0.0), 3.0);
}

}  // namespace
}  // namespace coloc
