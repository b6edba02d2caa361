// The SoA kernels (dist/kernel.h) against their Distribution mirrors.
//
// The kernels promise bit-faithfulness: same sort, same merge order, same
// normalization as the Distribution constructor pipeline. These tests pin
// that promise on the edge cases the fuzz corpus rarely concentrates on —
// single buckets, point masses, rebucket budgets at both extremes, denormal
// probabilities — plus the exact-classification contract of the fast-EC
// step thresholds, and the fast-EC sweeps against the paper's EC
// definition (the naive triple enumeration ExpectedJoinCost).
#include "dist/kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <limits>
#include <vector>

#include "cost/expected_cost.h"
#include "cost/fast_expected_cost.h"
#include "cost/size_propagation.h"
#include "dist/arena.h"
#include "dist/builders.h"
#include "dist/simd.h"
#include "util/rng.h"
#include "verify/tolerance.h"

namespace lec {
namespace {

std::vector<Bucket> RandomRawBuckets(Rng* rng, size_t n,
                                     bool with_duplicates) {
  std::vector<Bucket> out;
  for (size_t i = 0; i < n; ++i) {
    double v = rng->LogUniform(1, 1e6);
    if (with_duplicates && i > 0 && rng->Uniform01() < 0.3) {
      v = out[i - 1].value;  // exercise the merge path
    }
    out.push_back({v, rng->Uniform(0.0, 1.0)});  // zero-mass possible
  }
  return out;
}

void ExpectViewEqualsDistribution(DistView v, const Distribution& d) {
  ASSERT_EQ(v.n, d.size());
  for (size_t i = 0; i < v.n; ++i) {
    EXPECT_EQ(v.values[i], d.bucket(i).value) << "value " << i;
    EXPECT_EQ(v.probs[i], d.bucket(i).prob) << "prob " << i;
  }
}

TEST(DistKernelTest, FinishIntoMirrorsConstructorBitForBit) {
  DistArena arena;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Bucket> raw = RandomRawBuckets(&rng, 12, true);
    // The constructor path first (it consumes a copy)...
    Distribution d(raw);
    // ...then the kernel on the same raw sequence.
    arena.Reset();
    Bucket* scratch = arena.AllocArray<Bucket>(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) scratch[i] = raw[i];
    DistView v = FinishInto(scratch, raw.size(), &arena);
    ExpectViewEqualsDistribution(v, d);
  }
}

TEST(DistKernelTest, ProductIntoMirrorsProductWith) {
  DistArena arena;
  auto mul = [](double a, double b) { return a * b; };
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Distribution a(RandomRawBuckets(&rng, 1 + trial % 5, false));
    Distribution b(RandomRawBuckets(&rng, 1 + (trial * 3) % 7, false));
    Distribution want = a.ProductWith(b, mul);
    arena.Reset();
    DistView got = ProductInto(a.AsView(), b.AsView(), &arena);
    ExpectViewEqualsDistribution(got, want);
  }
}

TEST(DistKernelTest, PointMassKernels) {
  DistArena arena;
  Distribution point = Distribution::PointMass(42.0);
  DistView pv = point.AsView();
  // Product with a point mass scales the support.
  Distribution other = Distribution::TwoPoint(2, 0.5, 3, 0.5);
  DistView got = ProductInto(pv, other.AsView(), &arena);
  ExpectViewEqualsDistribution(
      got, point.ProductWith(other, [](double a, double b) { return a * b; }));
  // Moments.
  EXPECT_EQ(ViewMean(pv), 42.0);
  EXPECT_EQ(ViewTotalMass(pv), 1.0);
  // Rebucket of a single bucket is the identity view.
  DistView rb = RebucketInto(pv, 4, RebucketStrategy::kEqualWidth, &arena);
  EXPECT_EQ(rb.values, pv.values);  // returned unchanged, not copied
}

TEST(DistKernelTest, MixIntoMirrorsMixWith) {
  DistArena arena;
  Rng rng(11);
  Distribution a(RandomRawBuckets(&rng, 6, false));
  Distribution b(RandomRawBuckets(&rng, 4, false));
  for (double w : {0.0, 0.25, 0.5, 1.0}) {
    Distribution want = a.MixWith(b, w);
    arena.Reset();
    DistView got = MixInto(a.AsView(), b.AsView(), w, &arena);
    ExpectViewEqualsDistribution(got, want);
  }
}

TEST(DistKernelTest, MapIntoMergesCollidingImages) {
  DistArena arena;
  Distribution d = UniformBuckets(0, 10, 8);
  auto f = [](double v) { return std::floor(v / 4.0); };  // forces collisions
  Distribution want = d.Map(f);
  DistView got = MapInto(d.AsView(), f, &arena);
  ExpectViewEqualsDistribution(got, want);
}

TEST(DistKernelTest, RebucketIntoMirrorsRebucketAcrossBudgets) {
  DistArena arena;
  Rng rng(23);
  Distribution d(RandomRawBuckets(&rng, 40, false));
  for (RebucketStrategy strategy :
       {RebucketStrategy::kEqualWidth, RebucketStrategy::kEqualProb}) {
    // Budgets at both extremes: collapse-to-one, one-under, exact fit.
    for (size_t budget : {size_t{1}, size_t{3}, d.size() - 1, d.size()}) {
      Distribution want = d.Rebucket(budget, strategy);
      arena.Reset();
      DistView got = RebucketInto(d.AsView(), budget, strategy, &arena);
      ExpectViewEqualsDistribution(got, want);
      if (budget >= d.size()) {
        EXPECT_EQ(got.values, d.AsView().values);  // identity, no copy
      }
    }
  }
}

TEST(DistKernelTest, DenormalProbabilitiesFollowTheDustPass) {
  // Probabilities below the constructor's 1e-12 relative-dust threshold —
  // including actual denormals — are dropped identically by both paths.
  DistArena arena;
  std::vector<Bucket> raw = {{1.0, 1.0},
                             {2.0, 1e-13},
                             {3.0, 5e-324},  // smallest positive denormal
                             {4.0, 0.5}};
  Distribution d(raw);
  Bucket* scratch = arena.AllocArray<Bucket>(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) scratch[i] = raw[i];
  DistView v = FinishInto(scratch, raw.size(), &arena);
  ExpectViewEqualsDistribution(v, d);
  EXPECT_EQ(v.n, 2u);  // only the two carrying real mass survive
}

TEST(DistKernelTest, CopyIntoAndEqualsAndHash) {
  DistArena arena;
  Distribution d = UniformBuckets(1, 100, 12);
  DistView copy = CopyInto(d.AsView(), &arena);
  EXPECT_NE(copy.values, d.AsView().values);
  EXPECT_TRUE(ViewEquals(copy, d.AsView()));
  DistView other = CopyInto(Distribution::PointMass(1).AsView(), &arena);
  EXPECT_FALSE(ViewEquals(copy, other));
}

TEST(DistKernelTest, FromNormalizedViewRoundTrips) {
  DistArena arena;
  Rng rng(31);
  Distribution d(RandomRawBuckets(&rng, 15, true));
  Distribution back = Distribution::FromNormalizedView(d.AsView());
  EXPECT_TRUE(back == d);
  EXPECT_EQ(back.ContentHash(), d.ContentHash());
  EXPECT_EQ(back.Mean(), d.Mean());
  // And from an arena-built view.
  DistView prod = ProductInto(d.AsView(), d.AsView(), &arena);
  Distribution materialized = Distribution::FromNormalizedView(prod);
  ExpectViewEqualsDistribution(prod, materialized);
  EXPECT_THROW(Distribution::FromNormalizedView(DistView{}),
               std::invalid_argument);
}

TEST(DistKernelTest, JoinSizeViewMirrorsJoinSizeDistribution) {
  DistArena arena;
  Rng rng(41);
  Distribution l(RandomRawBuckets(&rng, 9, false));
  Distribution r(RandomRawBuckets(&rng, 7, false));
  Distribution s = UniformBuckets(0.01, 0.2, 5);
  for (SizePropagationMode mode : {SizePropagationMode::kCubeRootPrebucket,
                                   SizePropagationMode::kExactThenRebucket}) {
    Distribution want = JoinSizeDistribution(l, r, s, 27, mode);
    arena.Reset();
    DistView got = JoinSizeViewInto(l.AsView(), r.AsView(), s.AsView(), 27,
                                    mode, &arena);
    ExpectViewEqualsDistribution(got, want);
  }
}

// ---------------------------------------------------------------------------
// Step thresholds replace the per-swept-element sqrt/cbrt of the §3.6
// sweeps. The contract is *exact classification*: for every swept x,
// "x >= StepThreshold(m, f, guess)" must equal "m <= fl(f(x))".
// ---------------------------------------------------------------------------

TEST(DistKernelTest, StepThresholdClassifiesExactly) {
  auto sqrt_fn = +[](double x) { return std::sqrt(x); };
  auto cbrt_fn = +[](double x) { return std::cbrt(x); };
  Rng rng(51);
  for (int trial = 0; trial < 2000; ++trial) {
    double m = rng.LogUniform(1e-3, 1e6);
    double t2 = StepThreshold(m, sqrt_fn, m * m);
    // At the threshold the predicate holds; one ulp below it must not.
    EXPECT_GE(std::sqrt(t2), m);
    EXPECT_LT(std::sqrt(std::nextafter(t2, 0.0)), m);
    double t3 = StepThreshold(m, cbrt_fn, m * m * m);
    EXPECT_GE(std::cbrt(t3), m);
    EXPECT_LT(std::cbrt(std::nextafter(t3, 0.0)), m);
  }
  // Values sitting exactly on a breakpoint (the Example 1.1 shape).
  EXPECT_EQ(StepThreshold(100.0, sqrt_fn, 1e4), 1e4);
  // Non-positive m: every x qualifies.
  EXPECT_EQ(StepThreshold(0.0, sqrt_fn, 0.0),
            -std::numeric_limits<double>::infinity());
}

/// EC(A ⋈ B) by the paper's definition: Σ over every (a, b, m) triple of
/// C(a, b, m)·Pr(a)·Pr(b)·Pr(m), default cost model, unsorted inputs.
double NaiveEc(JoinMethod method, const Distribution& a,
               const Distribution& b, const Distribution& m) {
  return ExpectedJoinCost(CostModel{}, method, a, b, m,
                          /*left_sorted=*/false, /*right_sorted=*/false);
}

TEST(DistKernelTest, FastEcKernelsMatchNaiveEnumeration) {
  // The sweeps and the triple loop sum the same terms in different orders,
  // so they agree to rounding (the fuzz I7 bound), not bit for bit.
  DistArena arena;
  Rng rng(61);
  for (int trial = 0; trial < 200; ++trial) {
    Distribution a(RandomRawBuckets(&rng, 1 + trial % 12, false));
    Distribution b(RandomRawBuckets(&rng, 1 + (trial * 5) % 12, false));
    std::vector<Bucket> mb;
    size_t mn = 1 + static_cast<size_t>(rng.UniformInt(0, 7));
    for (size_t i = 0; i < mn; ++i) {
      mb.push_back({rng.LogUniform(2, 5000), rng.Uniform(0.05, 1.0)});
    }
    Distribution m(std::move(mb));
    arena.Reset();
    EcMemoryProfile profile = BuildEcMemoryProfile(m.AsView(), &arena);
    for (JoinMethod method : kAllJoinMethods) {
      double kernel =
          FastEcJoin(method, a.AsView(), b.AsView(), profile);
      double naive = NaiveEc(method, a, b, m);
      EXPECT_TRUE(verify::ApproxEqual(kernel, naive,
                                      verify::kKernelParityRelTol))
          << ToString(method) << " trial=" << trial << ": kernel " << kernel
          << " vs naive " << naive;
    }
  }
}

// ---------------------------------------------------------------------------
// simd:: dispatch layer — every level the host supports against the scalar
// twin, per the floating-point contract in dist/simd.h: bit-exact kernels
// must match bitwise at any level; reassociating kernels within n·eps.
// Sizes straddle the vector widths (2 for SSE2, 4 for AVX2) so remainder
// loops and the full-width body are both exercised.
// ---------------------------------------------------------------------------

std::vector<simd::Level> SupportedLevels() {
  std::vector<simd::Level> out = {simd::Level::kScalar};
  if (simd::HighestSupported() >= simd::Level::kSse2) {
    out.push_back(simd::Level::kSse2);
  }
  if (simd::HighestSupported() >= simd::Level::kAvx2) {
    out.push_back(simd::Level::kAvx2);
  }
  return out;
}

constexpr size_t kSimdSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 17};

TEST(SimdParityTest, BitExactKernelsIdenticalAcrossLevels) {
  Rng rng(71);
  for (size_t n : kSimdSizes) {
    std::vector<double> bv(n), bp(n), interleaved(2 * n);
    for (size_t i = 0; i < n; ++i) {
      bv[i] = rng.LogUniform(1e-3, 1e6);
      bp[i] = rng.Uniform(0.0, 1.0);
      interleaved[2 * i] = bv[i];
      interleaved[2 * i + 1] = bp[i];
    }
    std::vector<double> scale_ref(n), cross_ref(2 * n);
    std::vector<double> div_ref = interleaved;
    size_t leq_ref = 0, leq_strict_ref = 0;
    {
      simd::ScopedLevel pin(simd::Level::kScalar);
      simd::Scale(bv.data(), 0.37, scale_ref.data(), n);
      simd::CrossInto(3.5, 0.25, bv.data(), bp.data(), n, cross_ref.data());
      simd::DivStride2(div_ref.data(), n, 1.7);
      leq_ref = simd::CountLeq(bv.data(), 0, n, 1000.0, false);
      leq_strict_ref = simd::CountLeq(bv.data(), 0, n, 1000.0, true);
    }
    for (simd::Level level : SupportedLevels()) {
      simd::ScopedLevel pin(level);
      std::vector<double> scale_got(n), cross_got(2 * n);
      std::vector<double> div_got = interleaved;
      simd::Scale(bv.data(), 0.37, scale_got.data(), n);
      simd::CrossInto(3.5, 0.25, bv.data(), bp.data(), n, cross_got.data());
      simd::DivStride2(div_got.data(), n, 1.7);
      EXPECT_EQ(scale_got, scale_ref) << simd::LevelName(level) << " n=" << n;
      EXPECT_EQ(cross_got, cross_ref) << simd::LevelName(level) << " n=" << n;
      EXPECT_EQ(div_got, div_ref) << simd::LevelName(level) << " n=" << n;
      EXPECT_EQ(simd::CountLeq(bv.data(), 0, n, 1000.0, false), leq_ref);
      EXPECT_EQ(simd::CountLeq(bv.data(), 0, n, 1000.0, true), leq_strict_ref);
    }
  }
}

TEST(SimdParityTest, ReassociatingKernelsWithinRelativeTolerance) {
  Rng rng(73);
  for (size_t n : kSimdSizes) {
    std::vector<double> x(n), y(n), interleaved(2 * n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.LogUniform(1e-3, 1e6);
      y[i] = rng.Uniform(0.0, 1.0);
      interleaved[2 * i] = x[i];
      interleaved[2 * i + 1] = y[i];
    }
    double sum_ref = 0, dot_ref = 0, sf_ref = 0, df_ref = 0, s2_ref = 0,
           hf_ref = 0;
    {
      simd::ScopedLevel pin(simd::Level::kScalar);
      sum_ref = simd::Sum(x.data(), n);
      dot_ref = simd::Dot(x.data(), y.data(), n);
      sf_ref = simd::SumFrom(0.125, x.data(), n);
      df_ref = simd::DotFrom(0.125, x.data(), y.data(), n);
      s2_ref = simd::SumStride2(interleaved.data(), n);
      hf_ref = simd::HybridFactorDot(x.data(), y.data(), n, 50.0,
                                     std::cbrt(8000.0), std::sqrt(8000.0));
    }
    for (simd::Level level : SupportedLevels()) {
      simd::ScopedLevel pin(level);
      auto near = [&](double got, double want, const char* what) {
        EXPECT_NEAR(got, want, std::abs(want) * 1e-12 + 1e-300)
            << what << " " << simd::LevelName(level) << " n=" << n;
      };
      near(simd::Sum(x.data(), n), sum_ref, "Sum");
      near(simd::Dot(x.data(), y.data(), n), dot_ref, "Dot");
      near(simd::SumFrom(0.125, x.data(), n), sf_ref, "SumFrom");
      near(simd::DotFrom(0.125, x.data(), y.data(), n), df_ref, "DotFrom");
      near(simd::SumStride2(interleaved.data(), n), s2_ref, "SumStride2");
      near(simd::HybridFactorDot(x.data(), y.data(), n, 50.0,
                                 std::cbrt(8000.0), std::sqrt(8000.0)),
           hf_ref, "HybridFactorDot");
    }
  }
}

TEST(SimdParityTest, SumFromDotFromScalarSeedingContract) {
  // The reason SumFrom/DotFrom exist at all: the scalar twin must fold the
  // elements onto the seed ONE BY ONE — bit-identical to the historical
  // running-accumulator loop — not compute init + Sum(x). The two
  // parenthesizations differ in the low bits, and that difference once
  // flipped a near-tie in Algorithm D's plan choice.
  simd::ScopedLevel pin(simd::Level::kScalar);
  Rng rng(79);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + static_cast<size_t>(rng.UniformInt(0, 11));
    double init = rng.LogUniform(1e-3, 1e6);
    std::vector<double> x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.LogUniform(1e-6, 1e6);
      y[i] = rng.Uniform(0.0, 1.0);
    }
    double acc = init;
    for (size_t i = 0; i < n; ++i) acc += x[i];
    EXPECT_EQ(simd::SumFrom(init, x.data(), n), acc) << "trial " << trial;
    double pe = init;
    for (size_t i = 0; i < n; ++i) pe += x[i] * y[i];
    EXPECT_EQ(simd::DotFrom(init, x.data(), y.data(), n), pe)
        << "trial " << trial;
  }
}

TEST(SimdParityTest, ScopedLevelRestoresPreviousLevel) {
  simd::Level before = simd::ActiveLevel();
  {
    simd::ScopedLevel pin(simd::Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
    {
      // Nested overrides clamp to what the CPU supports and unwind in
      // LIFO order.
      simd::ScopedLevel inner(simd::Level::kAvx2);
      EXPECT_LE(simd::ActiveLevel(), simd::HighestSupported());
    }
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), before);
}

TEST(DistKernelTest, FastEcKernelsExactAtBreakpointMemories) {
  // Memory buckets sitting exactly at the cost formulas' discontinuities —
  // the adversarial case for the precomputed thresholds. A threshold off
  // by one ulp would misclassify a whole bucket, so agreement here is
  // exact up to EXPECT_DOUBLE_EQ's 4 ulps.
  DistArena arena;
  Distribution a = Distribution::PointMass(10000);
  Distribution b = Distribution::PointMass(100);
  Distribution m({{std::cbrt(10000.0), 0.25},
                  {100, 0.25},
                  {102, 0.25},
                  {103, 0.25}});
  EcMemoryProfile profile = BuildEcMemoryProfile(m.AsView(), &arena);
  for (JoinMethod method : kAllJoinMethods) {
    EXPECT_DOUBLE_EQ(FastEcJoin(method, a.AsView(), b.AsView(), profile),
                     NaiveEc(method, a, b, m))
        << ToString(method);
  }
}

TEST(DistKernelTest, FusedFastEcSweepMatchesSingleKernelsBitForBit) {
  // FastEcAllMethods shares the sweeps of the three single kernels but
  // keeps each method's accumulation order, so its values must equal
  // FastEcNestedLoop / FastEcSortMerge / FastEcGraceHash exactly — at
  // every SIMD level, on 1-bucket views, on views and memory longer than
  // kSweepInlineRun (the dispatched long-run path), and on a left view
  // far larger than any stack buffer (the sort-merge terms wait in the
  // caller's buffer, which has no fixed cap).
  struct Shape {
    size_t a, b, m;
  };
  const Shape shapes[] = {{1, 1, 1},  {1, 9, 3},   {9, 1, 5},
                          {27, 27, 9}, {5, 200, 40}, {200, 5, 64},
                          {5000, 27, 27}, {3, 4000, 100}};
  DistArena arena;
  Rng rng(2026);
  for (const Shape& shape : shapes) {
    for (int trial = 0; trial < 8; ++trial) {
      Distribution a(RandomRawBuckets(&rng, shape.a, trial % 2 == 1));
      Distribution b(RandomRawBuckets(&rng, shape.b, trial % 2 == 1));
      std::vector<Bucket> mb;
      for (size_t i = 0; i < shape.m; ++i) {
        // Memory straddles the inputs' √, ∛ and S + 2 breakpoints.
        mb.push_back({rng.LogUniform(2, 5000), rng.Uniform(0.05, 1.0)});
      }
      Distribution m(std::move(mb));
      for (simd::Level level : SupportedLevels()) {
        simd::ScopedLevel pin(level);
        arena.Reset();
        EcMemoryProfile profile = BuildEcMemoryProfile(m.AsView(), &arena);
        DistView av = a.AsView();
        DistView bv = b.AsView();
        FastEcByMethod fused =
            FastEcAllMethods(av, bv, profile, a.Mean(), b.Mean(),
                             arena.AllocDoubles(av.n));
        std::string where = std::string(simd::LevelName(level)) +
                            " a.n=" + std::to_string(av.n) +
                            " b.n=" + std::to_string(bv.n) +
                            " m.n=" + std::to_string(m.size());
        EXPECT_EQ(std::bit_cast<uint64_t>(fused.nested_loop),
                  std::bit_cast<uint64_t>(FastEcNestedLoop(
                      av, bv, m.AsView(), a.Mean(), b.Mean())))
            << where;
        EXPECT_EQ(std::bit_cast<uint64_t>(fused.sort_merge),
                  std::bit_cast<uint64_t>(FastEcSortMerge(av, bv, profile)))
            << where;
        EXPECT_EQ(std::bit_cast<uint64_t>(fused.grace_hash),
                  std::bit_cast<uint64_t>(FastEcGraceHash(
                      av, bv, profile, a.Mean(), b.Mean())))
            << where;
        for (JoinMethod method : {JoinMethod::kNestedLoop,
                                  JoinMethod::kSortMerge,
                                  JoinMethod::kGraceHash}) {
          EXPECT_EQ(std::bit_cast<uint64_t>(fused.Of(method)),
                    std::bit_cast<uint64_t>(FastEcJoin(
                        method, av, bv, profile, a.Mean(), b.Mean())))
              << ToString(method) << " " << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace lec
