#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace crn {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) {
    ::setenv(name, value, /*overwrite=*/1);
  }
  void TearDown() override {
    ::unsetenv("CRN_TEST_VAR");
  }
};

TEST_F(EnvTest, MissingReturnsNullopt) {
  ::unsetenv("CRN_TEST_VAR");
  EXPECT_FALSE(GetEnv("CRN_TEST_VAR").has_value());
}

TEST_F(EnvTest, EmptyTreatedAsMissing) {
  SetEnv("CRN_TEST_VAR", "");
  EXPECT_FALSE(GetEnv("CRN_TEST_VAR").has_value());
}

TEST_F(EnvTest, IntParsing) {
  SetEnv("CRN_TEST_VAR", "42");
  EXPECT_EQ(GetEnvInt("CRN_TEST_VAR", 7), 42);
  SetEnv("CRN_TEST_VAR", "-3");
  EXPECT_EQ(GetEnvInt("CRN_TEST_VAR", 7), -3);
  SetEnv("CRN_TEST_VAR", "12abc");
  EXPECT_EQ(GetEnvInt("CRN_TEST_VAR", 7), 7);  // malformed -> fallback
  ::unsetenv("CRN_TEST_VAR");
  EXPECT_EQ(GetEnvInt("CRN_TEST_VAR", 7), 7);
}

TEST_F(EnvTest, DoubleParsing) {
  SetEnv("CRN_TEST_VAR", "0.25");
  EXPECT_DOUBLE_EQ(GetEnvDouble("CRN_TEST_VAR", 1.0), 0.25);
  for (const char* malformed : {"nope", "nan", "inf", "-inf"}) {
    SetEnv("CRN_TEST_VAR", malformed);
    EXPECT_DOUBLE_EQ(GetEnvDouble("CRN_TEST_VAR", 1.0), 1.0) << malformed;
  }
}

TEST_F(EnvTest, BoolParsing) {
  for (const char* truthy : {"1", "true", "yes", "on"}) {
    SetEnv("CRN_TEST_VAR", truthy);
    EXPECT_TRUE(GetEnvBool("CRN_TEST_VAR", false)) << truthy;
  }
  for (const char* falsy : {"0", "false", "no", "off"}) {
    SetEnv("CRN_TEST_VAR", falsy);
    EXPECT_FALSE(GetEnvBool("CRN_TEST_VAR", true)) << falsy;
  }
  SetEnv("CRN_TEST_VAR", "maybe");
  EXPECT_TRUE(GetEnvBool("CRN_TEST_VAR", true));  // malformed -> fallback
}

}  // namespace
}  // namespace crn
