#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace cadet::util {
namespace {

TEST(Samples, QuantilesExact) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.quantile(0.95), 95.05, 1e-9);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(Samples, QuantileClampsRange) {
  Samples s;
  s.add(1.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.5), 2.0);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.quantile(0.5), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(Samples, AddAfterQuantileKeepsCorrectness) {
  Samples s;
  s.add(5.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  s.add(0.5);  // added after a sorted read
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Samples, StdDev) {
  Samples s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Samples, SummaryNonEmpty) {
  Samples s;
  s.add(1.0);
  EXPECT_NE(s.summary().find("n=1"), std::string::npos);
}

}  // namespace
}  // namespace cadet::util
