// The documented FP comparison policy (verify/tolerance.h): helper
// semantics and the pinned tolerance constants.
#include "verify/tolerance.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace lec::verify {
namespace {

TEST(ToleranceTest, UlpDistanceBasics) {
  EXPECT_EQ(UlpDistance(1.0, 1.0), 0u);
  double next = std::nextafter(1.0, 2.0);
  EXPECT_EQ(UlpDistance(1.0, next), 1u);
  EXPECT_EQ(UlpDistance(next, 1.0), 1u);
  EXPECT_EQ(UlpDistance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  // Zero equals itself regardless of sign.
  EXPECT_EQ(UlpDistance(0.0, -0.0), 0u);
  // NaN and opposite-sign pairs are "infinitely" far.
  constexpr uint64_t kFar = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(UlpDistance(std::nan(""), 1.0), kFar);
  EXPECT_EQ(UlpDistance(-1.0, 1.0), kFar);
}

TEST(ToleranceTest, RelativeErrorHasAbsoluteFloor) {
  // Large magnitudes: plain relative error.
  EXPECT_DOUBLE_EQ(RelativeError(200.0, 100.0), 0.5);
  // Near zero the floor of 1 stops the ratio from exploding.
  EXPECT_DOUBLE_EQ(RelativeError(1e-12, 0.0), 1e-12);
}

TEST(ToleranceTest, ApproxEqualAndNoBetterThan) {
  EXPECT_TRUE(ApproxEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(ApproxEqual(1.0, 1.001));
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ApproxEqual(inf, inf));
  EXPECT_FALSE(ApproxEqual(inf, 1.0));
  // NoBetterThan: candidate may exceed or equal the reference, and may dip
  // below only within the tolerance.
  EXPECT_TRUE(NoBetterThan(101.0, 100.0));
  EXPECT_TRUE(NoBetterThan(100.0, 100.0));
  EXPECT_TRUE(NoBetterThan(100.0 - 1e-8, 100.0));
  EXPECT_FALSE(NoBetterThan(99.0, 100.0));
}

TEST(ToleranceTest, PinsTheDocumentedTolerances) {
  // These constants are part of the verification contract: loosening them
  // must be a reviewed decision, not a drive-by edit. See
  // verify/tolerance.h for the derivation.
  EXPECT_EQ(kSummationReassociationRelTol, 1e-9);
  EXPECT_EQ(kOracleRelTol, 1e-9);
  EXPECT_EQ(kKernelParityRelTol, 1e-9);
}

}  // namespace
}  // namespace lec::verify
