#include "harness/flags.h"

#include <gtest/gtest.h>

namespace crn::harness {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return FlagParser(static_cast<int>(args.size()), args.data());
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser flags = Parse({"--n=500", "--pt=0.3", "--name=abc"});
  EXPECT_EQ(flags.GetInt("n", 0), 500);
  EXPECT_DOUBLE_EQ(flags.GetDouble("pt", 0.0), 0.3);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_TRUE(flags.errors().empty());
  EXPECT_TRUE(flags.UnconsumedFlags().empty());
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser flags = Parse({"--n", "42", "--label", "hello"});
  EXPECT_EQ(flags.GetInt("n", 0), 42);
  EXPECT_EQ(flags.GetString("label", ""), "hello");
}

TEST(FlagParserTest, BareFlagIsBooleanTrue) {
  FlagParser flags = Parse({"--csv", "--verbose"});
  EXPECT_TRUE(flags.GetBool("csv", false));
  EXPECT_TRUE(flags.GetBool("verbose", false));
}

TEST(FlagParserTest, BoolValues) {
  FlagParser flags = Parse({"--a=0", "--b=yes", "--c=off"});
  EXPECT_FALSE(flags.GetBool("a", true));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_FALSE(flags.GetBool("c", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(flags.GetString("s", "d"), "d");
  EXPECT_TRUE(flags.GetBool("b", true));
  EXPECT_FALSE(flags.Has("n"));
}

TEST(FlagParserTest, MalformedValuesReportErrors) {
  // std::stod parses nan/inf; GetDouble must still refuse them.
  FlagParser flags = Parse({"--n=abc", "--x=1.2.3", "--b=maybe", "--nan=nan",
                            "--inf=inf", "--ninf=-inf"});
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("x", 0.5), 0.5);
  EXPECT_TRUE(flags.GetBool("b", true));
  EXPECT_DOUBLE_EQ(flags.GetDouble("nan", 0.5), 0.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("inf", 0.5), 0.5);
  EXPECT_DOUBLE_EQ(flags.GetDouble("ninf", 0.5), 0.5);
  ASSERT_EQ(flags.errors().size(), 6u);
  EXPECT_EQ(flags.errors()[3], "--nan=nan is not a finite number");
}

TEST(FlagParserTest, BoundedIntegerReportsTheBoundItBreaks) {
  FlagParser flags = Parse({"--n=3000000000", "--depth=-1", "--reps=4"});
  EXPECT_EQ(flags.GetIntInRange("n", 5, 0, 2147483647), 5);
  EXPECT_EQ(flags.GetIntInRange("depth", 64, 1, 1 << 20), 64);
  EXPECT_EQ(flags.GetIntInRange("reps", 1, 1, 100), 4);
  EXPECT_EQ(flags.GetIntInRange("absent", 9, 1, 100), 9);
  // An out-of-range fallback (e.g. from the environment) is held to the
  // same bounds.
  EXPECT_EQ(flags.GetIntInRange("grain", -5, 0, 100), -5);
  ASSERT_EQ(flags.errors().size(), 3u);
  EXPECT_EQ(flags.errors()[0], "--n=3000000000 must be at most 2147483647");
  EXPECT_EQ(flags.errors()[1], "--depth=-1 must be at least 1");
  EXPECT_EQ(flags.errors()[2], "--grain=-5 must be at least 0");
}

TEST(FlagParserTest, UnconsumedFlagsDetected) {
  FlagParser flags = Parse({"--known=1", "--typo=2"});
  flags.GetInt("known", 0);
  const auto unknown = flags.UnconsumedFlags();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "--typo");
}

TEST(FlagParserTest, PositionalsCollected) {
  FlagParser flags = Parse({"input.csv", "--n=1", "more"});
  EXPECT_EQ(flags.positionals(),
            (std::vector<std::string>{"input.csv", "more"}));
}

TEST(FlagParserTest, LastValueWinsOnRepeat) {
  FlagParser flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n", 0), 2);
}

}  // namespace
}  // namespace crn::harness
