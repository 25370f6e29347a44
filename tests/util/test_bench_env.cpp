// Benchmark workload sizes read from PCF_BENCH_* variables: a value that
// is not a positive integer spelled as plain digits stops the bench with
// exit code 2 and the variable's name, instead of turning into a zero-rep
// `inf s` table or an empty grid.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>

#include "bench_common.hpp"

namespace {

using pcf::bench::env_long;

constexpr const char* kVar = "PCF_BENCH_ENV_TEST";

class BenchEnv : public ::testing::Test {
 protected:
  void SetUp() override { ::unsetenv(kVar); }
  void TearDown() override { ::unsetenv(kVar); }
  static void set(const char* v) { ::setenv(kVar, v, 1); }
};

TEST_F(BenchEnv, UnsetVariableReturnsTheFallback) {
  EXPECT_EQ(env_long(kVar, 17), 17);
}

TEST_F(BenchEnv, PlainDigitsParse) {
  set("7");
  EXPECT_EQ(env_long(kVar, 17), 7);
  set("0012");
  EXPECT_EQ(env_long(kVar, 17), 12);
}

TEST_F(BenchEnv, LargestLongParses) {
  set("9223372036854775807");
  EXPECT_EQ(env_long(kVar, 1), 9223372036854775807L);
}

struct bad_value {
  const char* name;
  const char* value;
};

// Print the case name, not the pointer bytes, so the listed test names
// stay the same from run to run.
void PrintTo(const bad_value& b, std::ostream* os) { *os << b.name; }

class BenchEnvRejects : public ::testing::TestWithParam<bad_value> {
 protected:
  void TearDown() override { ::unsetenv(kVar); }
};

TEST_P(BenchEnvRejects, ExitsTwoNamingTheVariable) {
  ::setenv(kVar, GetParam().value, 1);
  EXPECT_EXIT(env_long(kVar, 5), ::testing::ExitedWithCode(2),
              "PCF_BENCH_ENV_TEST must be a positive integer");
}

INSTANTIATE_TEST_SUITE_P(
    Values, BenchEnvRejects,
    ::testing::Values(bad_value{"Zero", "0"}, bad_value{"Negative", "-3"},
                      bad_value{"LeadingPlus", "+5"},
                      bad_value{"NonNumeric", "abc"},
                      bad_value{"TrailingText", "5x"},
                      bad_value{"TrailingSpace", "5 "},
                      bad_value{"LeadingSpace", " 5"},
                      bad_value{"Empty", ""},
                      bad_value{"Fraction", "2.5"},
                      bad_value{"Overflow", "99999999999999999999"}),
    [](const ::testing::TestParamInfo<bad_value>& info) {
      return std::string(info.param.name);
    });

}  // namespace
