#include "src/common/mathutil.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.h"

namespace bpvec {
namespace {

TEST(CeilDiv, ExactDivision) {
  EXPECT_EQ(ceil_div(12, 4), 3);
  EXPECT_EQ(ceil_div(0, 5), 0);
}

TEST(CeilDiv, RoundsUp) {
  EXPECT_EQ(ceil_div(13, 4), 4);
  EXPECT_EQ(ceil_div(1, 100), 1);
}

TEST(CeilDiv, RejectsNonPositiveDivisor) {
  EXPECT_THROW(ceil_div(1, 0), Error);
  EXPECT_THROW(ceil_div(-1, 2), Error);
}

TEST(Geomean, SingleValue) { EXPECT_DOUBLE_EQ(geomean({3.0}), 3.0); }

TEST(Geomean, TwoValues) {
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Geomean, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(geomean({}), Error);
  EXPECT_THROW(geomean({1.0, 0.0}), Error);
  EXPECT_THROW(geomean({1.0, -2.0}), Error);
}

class CeilDivProperty : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(CeilDivProperty, MatchesFloatCeil) {
  const std::int64_t a = GetParam();
  for (std::int64_t b : {1, 2, 3, 7, 16, 100}) {
    EXPECT_EQ(ceil_div(a, b),
              static_cast<std::int64_t>(
                  std::ceil(static_cast<double>(a) / static_cast<double>(b))))
        << "a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CeilDivProperty,
                         ::testing::Values(0, 1, 2, 5, 15, 16, 17, 999, 1024,
                                           123456789));

}  // namespace
}  // namespace bpvec
