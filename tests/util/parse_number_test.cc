#include "util/parse_number.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace tdb {
namespace {

TEST(ParseIntegerTest, AcceptsWholeDecimalNumbers) {
  int i = -7;
  EXPECT_TRUE(ParseInteger("0", &i));
  EXPECT_EQ(i, 0);
  EXPECT_TRUE(ParseInteger("-42", &i));
  EXPECT_EQ(i, -42);
  uint64_t u = 0;
  EXPECT_TRUE(ParseInteger("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  uint32_t k = 0;
  EXPECT_TRUE(ParseInteger("4", &k));
  EXPECT_EQ(k, 4u);
}

TEST(ParseIntegerTest, RejectsGarbageAndLeavesTargetUntouched) {
  // True iff `text` is rejected and the target keeps its value.
  const auto rejects = [](const char* text) {
    int v = 17;
    return !ParseInteger(text, &v) && v == 17;
  };
  EXPECT_TRUE(rejects(""));
  EXPECT_TRUE(rejects("abc"));
  EXPECT_TRUE(rejects("zz"));
  EXPECT_TRUE(rejects("12abc"));
  EXPECT_TRUE(rejects("1 "));
  EXPECT_TRUE(rejects(" 1"));
  EXPECT_TRUE(rejects("+1"));
  EXPECT_TRUE(rejects("1.5"));
  EXPECT_TRUE(rejects("0x10"));
  EXPECT_TRUE(rejects("--3"));
  EXPECT_TRUE(rejects("-"));
}

TEST(ParseIntegerTest, RejectsNegativeForUnsignedTargets) {
  uint64_t u = 5;
  EXPECT_FALSE(ParseInteger("-1", &u));
  EXPECT_FALSE(ParseInteger("-0", &u));
  EXPECT_EQ(u, 5u);
  size_t s = 9;
  EXPECT_FALSE(ParseInteger("-3", &s));
  EXPECT_EQ(s, 9u);
}

TEST(ParseIntegerTest, RejectsOverflow) {
  int i = 1;
  EXPECT_FALSE(ParseInteger("2147483648", &i));
  EXPECT_FALSE(ParseInteger("-2147483649", &i));
  EXPECT_TRUE(ParseInteger("2147483647", &i));
  EXPECT_EQ(i, 2147483647);
  uint32_t u = 1;
  EXPECT_FALSE(ParseInteger("4294967296", &u));
  uint64_t w = 1;
  EXPECT_FALSE(ParseInteger("18446744073709551616", &w));
  EXPECT_FALSE(ParseInteger("99999999999999999999999", &w));
  EXPECT_EQ(w, 1u);
}

TEST(ParseIntegerTest, EnforcesInclusiveRange) {
  int port = -1;
  EXPECT_TRUE(ParseInteger("0", &port, 0, 65535));
  EXPECT_EQ(port, 0);
  EXPECT_TRUE(ParseInteger("65535", &port, 0, 65535));
  EXPECT_EQ(port, 65535);
  EXPECT_FALSE(ParseInteger("65536", &port, 0, 65535));
  EXPECT_FALSE(ParseInteger("-1", &port, 0, 65535));
  EXPECT_EQ(port, 65535);
}

TEST(ParseIntegerTest, DoesNotReadPastTheView) {
  const std::string text = "123456";
  int v = 0;
  EXPECT_TRUE(ParseInteger(std::string_view(text).substr(0, 3), &v));
  EXPECT_EQ(v, 123);
}

TEST(ParseFiniteDoubleTest, AcceptsDecimalAndExponentForms) {
  double d = -1.0;
  EXPECT_TRUE(ParseFiniteDouble("0", &d));
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(ParseFiniteDouble("0.5", &d));
  EXPECT_EQ(d, 0.5);
  EXPECT_TRUE(ParseFiniteDouble("-2.25", &d));
  EXPECT_EQ(d, -2.25);
  EXPECT_TRUE(ParseFiniteDouble("1e-3", &d));
  EXPECT_EQ(d, 1e-3);
  EXPECT_TRUE(ParseFiniteDouble("60", &d));
  EXPECT_EQ(d, 60.0);
}

TEST(ParseFiniteDoubleTest, RejectsGarbageNonFiniteAndOverflow) {
  // True iff `text` is rejected and the target keeps its value.
  const auto rejects = [](const char* text) {
    double d = 3.0;
    return !ParseFiniteDouble(text, &d) && d == 3.0;
  };
  EXPECT_TRUE(rejects(""));
  EXPECT_TRUE(rejects("abc"));
  EXPECT_TRUE(rejects("1.5s"));
  EXPECT_TRUE(rejects(" 1"));
  EXPECT_TRUE(rejects("1 "));
  EXPECT_TRUE(rejects("+1"));
  EXPECT_TRUE(rejects("."));
  EXPECT_TRUE(rejects("inf"));
  EXPECT_TRUE(rejects("-inf"));
  EXPECT_TRUE(rejects("infinity"));
  EXPECT_TRUE(rejects("nan"));
  EXPECT_TRUE(rejects("1e999"));
  EXPECT_TRUE(rejects("-1e999"));
}

}  // namespace
}  // namespace tdb
