#include "dist/distribution.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "dist/builders.h"
#include "util/rng.h"

namespace lec {
namespace {

TEST(DistributionTest, PointMassBasics) {
  Distribution d = Distribution::PointMass(42.0);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.Mean(), 42.0);
  EXPECT_DOUBLE_EQ(d.Variance(), 0.0);
  EXPECT_DOUBLE_EQ(d.Mode(), 42.0);
  EXPECT_DOUBLE_EQ(d.Min(), 42.0);
  EXPECT_DOUBLE_EQ(d.Max(), 42.0);
}

TEST(DistributionContentHashTest, EqualContentHashesEqual) {
  Distribution a({{10, 0.5}, {20, 0.5}});
  Distribution b({{20, 0.5}, {10, 0.5}});  // same after normalization
  Distribution c({{10, 0.4}, {20, 0.6}});
  EXPECT_EQ(a.ContentHash(), b.ContentHash());
  EXPECT_NE(a.ContentHash(), c.ContentHash());
  // Copies share the content identity.
  Distribution d = a;
  EXPECT_EQ(d.ContentHash(), a.ContentHash());
}

TEST(DistributionTest, NormalizesProbabilities) {
  Distribution d({{1.0, 2.0}, {3.0, 6.0}});
  EXPECT_DOUBLE_EQ(d.PrLeq(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.PrLeq(3.0), 1.0);
  EXPECT_DOUBLE_EQ(d.Mean(), 0.25 * 1 + 0.75 * 3);
}

TEST(DistributionTest, MergesDuplicateValues) {
  Distribution d({{5.0, 0.3}, {5.0, 0.2}, {7.0, 0.5}});
  EXPECT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.PrLeq(5.0), 0.5);
}

TEST(DistributionTest, SortsBuckets) {
  Distribution d({{9.0, 0.5}, {1.0, 0.5}});
  EXPECT_DOUBLE_EQ(d.bucket(0).value, 1.0);
  EXPECT_DOUBLE_EQ(d.bucket(1).value, 9.0);
}

TEST(DistributionTest, RejectsInvalidInput) {
  EXPECT_THROW(Distribution({}), std::invalid_argument);
  EXPECT_THROW(Distribution({{1.0, -0.5}, {2.0, 1.5}}),
               std::invalid_argument);
  EXPECT_THROW(Distribution({{1.0, 0.0}}), std::invalid_argument);
  EXPECT_THROW(
      Distribution({{std::numeric_limits<double>::quiet_NaN(), 1.0}}),
      std::invalid_argument);
}

TEST(DistributionTest, Example11MemoryDistribution) {
  // Example 1.1: 2000 pages 80% of the time, 700 pages 20%.
  Distribution m = Distribution::TwoPoint(2000, 0.8, 700, 0.2);
  EXPECT_DOUBLE_EQ(m.Mean(), 0.8 * 2000 + 0.2 * 700);  // 1740 (paper's mean)
  EXPECT_DOUBLE_EQ(m.Mode(), 2000);                    // paper's modal value
  EXPECT_DOUBLE_EQ(m.PrGt(1000), 0.8);
  EXPECT_DOUBLE_EQ(m.PrLeq(700), 0.2);
}

TEST(DistributionTest, CdfEdgeSemantics) {
  Distribution d({{1.0, 0.25}, {2.0, 0.25}, {3.0, 0.5}});
  EXPECT_DOUBLE_EQ(d.PrLeq(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.PrLeq(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.PrLt(1.0), 0.0);
  EXPECT_DOUBLE_EQ(d.PrLt(2.0), 0.25);
  EXPECT_DOUBLE_EQ(d.PrGeq(2.0), 0.75);
  EXPECT_DOUBLE_EQ(d.PrGt(3.0), 0.0);
  EXPECT_DOUBLE_EQ(d.PrInLeftOpen(1.0, 3.0), 0.75);
  EXPECT_DOUBLE_EQ(d.PrInLeftOpen(3.0, 1.0), 0.0);
}

TEST(DistributionTest, PartialExpectations) {
  Distribution d({{1.0, 0.25}, {2.0, 0.25}, {4.0, 0.5}});
  EXPECT_DOUBLE_EQ(d.PartialExpectationLeq(2.0), 0.25 + 0.5);
  EXPECT_DOUBLE_EQ(d.PartialExpectationGeq(2.0), 0.5 + 2.0);
  EXPECT_DOUBLE_EQ(d.PartialExpectationGt(2.0), 2.0);
  // Leq + Gt partitions the support.
  EXPECT_DOUBLE_EQ(d.PartialExpectationLeq(2.0) + d.PartialExpectationGt(2.0),
                   d.Mean());
}

TEST(DistributionTest, ConditionalMean) {
  Distribution d({{1.0, 0.5}, {3.0, 0.5}});
  EXPECT_DOUBLE_EQ(d.ConditionalMeanLeq(1.0), 1.0);
  EXPECT_DOUBLE_EQ(d.ConditionalMeanLeq(3.0), 2.0);
  EXPECT_THROW(d.ConditionalMeanLeq(0.5), std::domain_error);
}

TEST(DistributionTest, ExpectMatchesManualSum) {
  Distribution d({{1.0, 0.2}, {2.0, 0.3}, {5.0, 0.5}});
  double e = d.Expect([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(e, 0.2 * 1 + 0.3 * 4 + 0.5 * 25);
  EXPECT_DOUBLE_EQ(d.Variance(), e - d.Mean() * d.Mean());
}

TEST(DistributionTest, MapMergesCollidingValues) {
  Distribution d({{-2.0, 0.5}, {2.0, 0.5}});
  Distribution sq = d.Map([](double v) { return v * v; });
  EXPECT_EQ(sq.size(), 1u);
  EXPECT_DOUBLE_EQ(sq.Mean(), 4.0);
}

TEST(DistributionTest, ProductWithIndependence) {
  Distribution a({{2.0, 0.5}, {3.0, 0.5}});
  Distribution b({{10.0, 0.5}, {100.0, 0.5}});
  Distribution prod =
      a.ProductWith(b, [](double x, double y) { return x * y; });
  EXPECT_EQ(prod.size(), 4u);
  // E[XY] = E[X]E[Y] under independence.
  EXPECT_NEAR(prod.Mean(), a.Mean() * b.Mean(), 1e-12);
}

TEST(DistributionTest, PrLeqIndependent) {
  Distribution a({{1.0, 0.5}, {3.0, 0.5}});
  Distribution b({{2.0, 0.5}, {4.0, 0.5}});
  // Pr(A <= B): pairs (1,2),(1,4),(3,4) of 4.
  EXPECT_DOUBLE_EQ(a.PrLeqIndependent(b), 0.75);
  // Ties count: Pr(A <= A') with iid two-point = 0.25+0.25+0.25 = 0.75.
  Distribution c({{1.0, 0.5}, {2.0, 0.5}});
  EXPECT_DOUBLE_EQ(c.PrLeqIndependent(c), 0.75);
}

TEST(DistributionTest, MixWith) {
  Distribution a = Distribution::PointMass(1.0);
  Distribution b = Distribution::PointMass(3.0);
  Distribution mix = a.MixWith(b, 0.25);
  EXPECT_DOUBLE_EQ(mix.Mean(), 0.25 * 1 + 0.75 * 3);
  EXPECT_THROW(a.MixWith(b, 1.5), std::invalid_argument);
}

TEST(DistributionTest, RebucketNoOpWhenSmall) {
  Distribution d({{1.0, 0.5}, {2.0, 0.5}});
  EXPECT_TRUE(d.Rebucket(2) == d);
  EXPECT_TRUE(d.Rebucket(10) == d);
}

TEST(DistributionTest, RebucketPreservesMeanExactly) {
  std::vector<Bucket> buckets;
  for (int i = 1; i <= 100; ++i) {
    buckets.push_back({static_cast<double>(i * i), 1.0 / 100});
  }
  Distribution d(std::move(buckets));
  for (size_t b : {1u, 2u, 3u, 7u, 10u, 50u}) {
    for (RebucketStrategy s :
         {RebucketStrategy::kEqualWidth, RebucketStrategy::kEqualProb}) {
      Distribution r = d.Rebucket(b, s);
      EXPECT_LE(r.size(), b) << "b=" << b;
      EXPECT_NEAR(r.Mean(), d.Mean(), 1e-9 * d.Mean())
          << "b=" << b << " strategy=" << static_cast<int>(s);
    }
  }
}

TEST(DistributionTest, RebucketToOneBucketIsMean) {
  Distribution d({{1.0, 0.2}, {5.0, 0.3}, {10.0, 0.5}});
  Distribution r = d.Rebucket(1);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r.Mean(), d.Mean());
}

TEST(DistributionTest, RebucketEqualProbBalancesMass) {
  std::vector<Bucket> buckets;
  for (int i = 0; i < 64; ++i) {
    buckets.push_back({static_cast<double>(i), 1.0 / 64});
  }
  Distribution d(std::move(buckets));
  Distribution r = d.Rebucket(4, RebucketStrategy::kEqualProb);
  ASSERT_EQ(r.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(r.bucket(i).prob, 0.25, 0.02);
  }
}

TEST(DistributionTest, CdfDistanceZeroForSelf) {
  Distribution d({{1.0, 0.5}, {2.0, 0.5}});
  EXPECT_DOUBLE_EQ(d.CdfDistance(d), 0.0);
}

TEST(DistributionTest, CdfDistanceSymmetricAndBounded) {
  Distribution a({{1.0, 0.5}, {2.0, 0.5}});
  Distribution b({{1.5, 1.0}});
  EXPECT_DOUBLE_EQ(a.CdfDistance(b), b.CdfDistance(a));
  EXPECT_LE(a.CdfDistance(b), 1.0);
  EXPECT_GT(a.CdfDistance(b), 0.0);
}

TEST(DistributionTest, SampleRespectsDistribution) {
  Distribution d({{1.0, 0.2}, {2.0, 0.8}});
  Rng rng(7);
  int ones = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    double v = d.Sample(&rng);
    ASSERT_TRUE(v == 1.0 || v == 2.0);
    if (v == 1.0) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / kTrials, 0.2, 0.02);
}

TEST(DistributionTest, ToStringRendersBuckets) {
  Distribution d = Distribution::TwoPoint(700, 0.2, 2000, 0.8);
  EXPECT_EQ(d.ToString(), "{700: 0.2, 2000: 0.8}");
}

// Property-style sweep: partial-expectation identities must hold at every
// support point for a variety of shapes.
class DistributionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistributionPropertyTest, PrefixSuffixIdentities) {
  Rng rng(GetParam());
  std::vector<Bucket> buckets;
  size_t n = static_cast<size_t>(rng.UniformInt(1, 40));
  for (size_t i = 0; i < n; ++i) {
    buckets.push_back({rng.Uniform(0, 1e6), rng.Uniform(0.01, 1.0)});
  }
  Distribution d(std::move(buckets));
  for (const Bucket& b : d.buckets()) {
    double x = b.value;
    EXPECT_NEAR(d.PrLeq(x) + d.PrGt(x), 1.0, 1e-12);
    EXPECT_NEAR(d.PrLt(x) + d.PrGeq(x), 1.0, 1e-12);
    EXPECT_NEAR(d.PartialExpectationLeq(x) + d.PartialExpectationGt(x),
                d.Mean(), 1e-9 * std::max(1.0, d.Mean()));
    // PE(X >= x) = Mean - PE(X <= x) + x·Pr(X = x).
    double point_mass = d.PrLeq(x) - d.PrLt(x);
    EXPECT_NEAR(d.PartialExpectationGeq(x),
                d.Mean() - d.PartialExpectationLeq(x) + x * point_mass,
                1e-9 * std::max(1.0, d.Mean()));
  }
}

TEST_P(DistributionPropertyTest, ExpectationLinearity) {
  Rng rng(GetParam() + 500);
  std::vector<Bucket> buckets;
  size_t n = static_cast<size_t>(rng.UniformInt(1, 30));
  for (size_t i = 0; i < n; ++i) {
    buckets.push_back({rng.Uniform(-100, 100), rng.Uniform(0.05, 1.0)});
  }
  Distribution d(std::move(buckets));
  double a = rng.Uniform(-5, 5), b = rng.Uniform(-50, 50);
  // E[aX + b] = a E[X] + b.
  EXPECT_NEAR(d.Expect([a, b](double x) { return a * x + b; }),
              a * d.Mean() + b, 1e-9 * (std::fabs(a * d.Mean() + b) + 1));
  // Map by a monotone affine function scales mean and stddev accordingly.
  Distribution mapped = d.Map([a, b](double x) { return a * x + b; });
  EXPECT_NEAR(mapped.Mean(), a * d.Mean() + b, 1e-9);
  EXPECT_NEAR(mapped.StdDev(), std::fabs(a) * d.StdDev(), 1e-9);
}

TEST_P(DistributionPropertyTest, ProductWithIsCommutativeInMean) {
  Rng rng(GetParam() + 900);
  auto random_dist = [&rng]() {
    std::vector<Bucket> buckets;
    size_t n = static_cast<size_t>(rng.UniformInt(1, 12));
    for (size_t i = 0; i < n; ++i) {
      buckets.push_back({rng.Uniform(0.1, 50), rng.Uniform(0.05, 1.0)});
    }
    return Distribution(std::move(buckets));
  };
  Distribution x = random_dist(), y = random_dist();
  auto mul = [](double a, double b) { return a * b; };
  Distribution xy = x.ProductWith(y, mul);
  Distribution yx = y.ProductWith(x, mul);
  EXPECT_NEAR(xy.Mean(), yx.Mean(), 1e-9 * xy.Mean());
  EXPECT_NEAR(xy.Mean(), x.Mean() * y.Mean(), 1e-9 * xy.Mean());
}

TEST_P(DistributionPropertyTest, RebucketCdfErrorShrinksWithBuckets) {
  Rng rng(GetParam() + 1000);
  std::vector<Bucket> buckets;
  for (int i = 0; i < 200; ++i) {
    buckets.push_back({rng.Uniform(0, 1000), rng.Uniform(0.1, 1.0)});
  }
  Distribution d(std::move(buckets));
  double err_coarse = d.CdfDistance(d.Rebucket(4));
  double err_fine = d.CdfDistance(d.Rebucket(64));
  EXPECT_LE(err_fine, err_coarse + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributionPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// bucket()/get()/operator[] are unchecked in release builds (they sit in
// the DP hot loops — PR 4 removed the std::vector::at() bounds checks) and
// assert in debug builds. The death test pins the debug diagnostic; the
// in-range regression half runs in every build mode.
TEST(DistributionTest, BucketAccessorsAgreeInRange) {
  Distribution d = Distribution::TwoPoint(1.0, 0.25, 9.0, 0.75);
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(d.bucket(i), d.get(i));
    EXPECT_EQ(d.bucket(i), d[i]);
  }
  EXPECT_DOUBLE_EQ(d[0].value, 1.0);
  EXPECT_DOUBLE_EQ(d[1].value, 9.0);
}

#ifndef NDEBUG
TEST(DistributionDeathTest, OutOfRangeBucketAssertsInDebugBuilds) {
  Distribution d = Distribution::PointMass(1.0);
  EXPECT_DEATH((void)d.bucket(5), "out of range");
  EXPECT_DEATH((void)d[2], "out of range");
}
#endif

}  // namespace
}  // namespace lec
