#include "optimizer/algorithm_b.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "cost/expected_cost.h"
#include "optimizer/algorithm_a.h"
#include "optimizer/algorithm_c.h"
#include "optimizer/exhaustive.h"
#include "optimizer/system_r.h"
#include "query/generator.h"
#include "util/rng.h"

namespace lec {
namespace {

TEST(TopCombinationsTest, BasicTopThree) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {10, 20, 30};
  size_t examined = 0;
  std::vector<Combination> top = TopCombinations(a, b, 3, &examined);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_DOUBLE_EQ(top[0].cost, 11);
  EXPECT_DOUBLE_EQ(top[1].cost, 12);
  EXPECT_DOUBLE_EQ(top[2].cost, 13);
  // Frontier: k=1 allows i<=3, k=2 allows i<=1, k=3 allows i<=1 -> 5 pairs.
  EXPECT_EQ(examined, 5u);
}

TEST(TopCombinationsTest, CEqualsOneExaminesOnePair) {
  size_t examined = 0;
  std::vector<Combination> top =
      TopCombinations({5, 6}, {7, 8}, 1, &examined);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].cost, 12);
  EXPECT_EQ(examined, 1u);
}

TEST(TopCombinationsTest, HandlesShortLists) {
  std::vector<Combination> top = TopCombinations({1}, {2}, 10);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].cost, 3);
  EXPECT_THROW(TopCombinations({1}, {2}, 0), std::invalid_argument);
}

// Proposition 3.1 verified on random sorted lists: the frontier examines at
// most c + c·ln c pairs yet returns exactly the true top c sums.
class PropositionThreeOneTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PropositionThreeOneTest, FrontierIsExactAndBounded) {
  size_t c = GetParam();
  Rng rng(c * 7 + 1);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> a, b;
    size_t na = static_cast<size_t>(rng.UniformInt(1, 40));
    size_t nb = static_cast<size_t>(rng.UniformInt(1, 40));
    double va = 0, vb = 0;
    for (size_t i = 0; i < na; ++i) a.push_back(va += rng.Uniform(0, 10));
    for (size_t i = 0; i < nb; ++i) b.push_back(vb += rng.Uniform(0, 10));

    size_t examined = 0;
    std::vector<Combination> top = TopCombinations(a, b, c, &examined);

    // Bound from Proposition 3.1.
    double bound = static_cast<double>(c) +
                   static_cast<double>(c) * std::log(static_cast<double>(c));
    EXPECT_LE(static_cast<double>(examined), bound + 1.0);

    // Exactness: compare against brute force over all pairs.
    std::vector<double> all;
    for (double x : a) {
      for (double y : b) all.push_back(x + y);
    }
    std::sort(all.begin(), all.end());
    size_t expect_n = std::min(c, all.size());
    ASSERT_EQ(top.size(), expect_n);
    for (size_t i = 0; i < expect_n; ++i) {
      EXPECT_DOUBLE_EQ(top[i].cost, all[i]) << "c=" << c << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cs, PropositionThreeOneTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                                           48, 64));

// Top-c DP returns exactly the c cheapest complete plans (Theorem 3.2's
// candidate generation), verified against exhaustive enumeration — once
// plain and once with the sorted-input discount and sort enforcers, so the
// inner-sorted alternative is held to the oracle too.
class TopCDpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopCDpTest, MatchesExhaustiveTopC) {
  Rng rng(GetParam());
  WorkloadOptions wopts;
  wopts.num_tables = 4;
  wopts.shape = static_cast<JoinGraphShape>(GetParam() % 5);
  wopts.order_by_probability = 0.5;
  Workload w = GenerateWorkload(wopts, &rng);
  for (bool enforcers : {false, true}) {
    CostModelOptions mo;
    mo.sorted_input_discount = enforcers;
    CostModel model(mo);
    OptimizerOptions opts;
    opts.consider_sort_enforcers = enforcers;
    for (double memory : {50.0, 2000.0}) {
      for (size_t c : {1u, 2u, 4u, 8u}) {
        auto dp = TopCPlansAtMemory(w.query, w.catalog, model, memory, c,
                                    opts);
        auto oracle = ExhaustiveTopK(
            w.query, w.catalog, opts,
            [&](const PlanPtr& p) {
              return PlanCostAtMemory(p, w.query, w.catalog, model, memory);
            },
            c);
        ASSERT_EQ(dp.size(), oracle.size())
            << "enforcers=" << enforcers << " memory=" << memory
            << " c=" << c;
        size_t n = std::min(dp.size(), oracle.size());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_NEAR(dp[i].second, oracle[i].second,
                      1e-9 * std::max(1.0, oracle[i].second))
              << "enforcers=" << enforcers << " memory=" << memory
              << " c=" << c << " rank=" << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopCDpTest,
                         ::testing::Range<uint64_t>(200, 212));

TEST(AlgorithmBTest, CEqualsOneMatchesAlgorithmA) {
  Rng rng(9);
  WorkloadOptions wopts;
  wopts.num_tables = 4;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory({{40, 0.4}, {900, 0.6}});
  OptimizeResult b1 =
      OptimizeAlgorithmB(w.query, w.catalog, model, memory, 1);
  OptimizeResult a = OptimizeAlgorithmA(w.query, w.catalog, model, memory);
  EXPECT_NEAR(b1.objective, a.objective,
              1e-9 * std::max(1.0, a.objective));
}

// Monotone improvement: larger c can only widen the candidate pool, so the
// chosen expected cost is non-increasing in c, and Algorithm C lower-bounds
// everything.
class AlgorithmBLadderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlgorithmBLadderTest, QualityLadderAcrossC) {
  Rng rng(GetParam());
  WorkloadOptions wopts;
  wopts.num_tables = static_cast<int>(4 + GetParam() % 2);
  wopts.shape = static_cast<JoinGraphShape>(GetParam() % 5);
  wopts.order_by_probability = 0.4;
  Workload w = GenerateWorkload(wopts, &rng);
  CostModel model;
  Distribution memory({{15, 0.2}, {120, 0.3}, {1100, 0.3}, {15000, 0.2}});
  OptimizeResult c_result =
      OptimizeLecStatic(w.query, w.catalog, model, memory);
  double prev = std::numeric_limits<double>::infinity();
  for (size_t c : {1u, 2u, 4u, 8u}) {
    OptimizeResult b =
        OptimizeAlgorithmB(w.query, w.catalog, model, memory, c);
    EXPECT_LE(b.objective, prev + 1e-9 * std::max(1.0, prev))
        << "c=" << c;
    EXPECT_LE(c_result.objective,
              b.objective + 1e-9 * std::max(1.0, b.objective));
    prev = b.objective;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgorithmBLadderTest,
                         ::testing::Range<uint64_t>(300, 315));

TEST(AlgorithmBTest, RejectsZeroC) {
  Catalog catalog;
  catalog.AddTable("A", 10);
  catalog.AddTable("B", 10);
  Query q;
  q.AddTable(0);
  q.AddTable(1);
  q.AddPredicate(0, 1, 0.1);
  CostModel model;
  EXPECT_THROW(
      TopCPlansAtMemory(q, catalog, model, 100, 0, {}),
      std::invalid_argument);
}

}  // namespace
}  // namespace lec
