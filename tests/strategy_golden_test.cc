// Golden file for the left-deep strategies outside RunDpInto: Algorithm
// B's top-c DP (optimizer/algorithm_b.cc, §3.3), Algorithm A's candidate
// post-pass (§3.2) and the randomized search's per-order evaluation
// (optimizer/randomized.cc).
//
// Per case, bit for bit:
//   * TopCPlansAtMemory at c = 1, 3 and 8: every returned plan's cost and
//     rendering, and the Proposition 3.1 combinations examined;
//   * OptimizeAlgorithmB (c = 3) and OptimizeAlgorithmA: objective,
//     plan, candidates_considered and cost_evaluations;
//   * EvaluateJoinOrder on the lec_static DP's order and on a seeded
//     random connected order;
//   * OptimizeRandomizedLec from a fixed Rng seed.
// Each workload runs plain and with the sorted-input discount plus sort
// enforcers, so the inner-sorted alternative of every strategy is pinned;
// the 5-table cycles have large intermediates, so their plans use
// sort-merge and hash joins.
// The SIMD tier is pinned to scalar so the recorded bits do not depend on
// the host's vector unit.
//
// Regenerating after an intentional change to these strategies'
// enumeration or arithmetic:
//
//   UPDATE_GOLDEN=1 ctest -R StrategyGolden
//
// then review the diff like any other code change.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dist/builders.h"
#include "dist/simd.h"
#include "optimizer/algorithm_a.h"
#include "optimizer/algorithm_b.h"
#include "optimizer/algorithm_c.h"
#include "optimizer/randomized.h"
#include "plan/printer.h"
#include "query/generator.h"
#include "util/rng.h"

namespace lec {
namespace {

std::string GoldenPath() {
  return std::string(LECOPT_SOURCE_DIR) +
         "/tests/golden/strategy_counters.txt";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string Bits(double v) {
  char bits[32];
  std::snprintf(bits, sizeof(bits), "%016" PRIx64,
                std::bit_cast<uint64_t>(v));
  return bits;
}

struct GoldenCase {
  const char* name;
  JoinGraphShape shape;
  int n;
  uint64_t seed;
  /// CostModelOptions::sorted_input_discount together with
  /// OptimizerOptions::consider_sort_enforcers.
  bool discount_enforcers;
  /// Larger tables (WorkloadOptions::min_pages 10^4) and selectivities
  /// (min_selectivity 10^-5), so large intermediates make sort-merge and
  /// hash joins win.
  bool large_joins = false;
};

constexpr GoldenCase kCases[] = {
    {"star6", JoinGraphShape::kStar, 6, 20261020, false},
    {"star6_discount_enforcers", JoinGraphShape::kStar, 6, 20261020, true},
    {"random6", JoinGraphShape::kRandom, 6, 20261021, false},
    {"random6_discount_enforcers", JoinGraphShape::kRandom, 6, 20261021,
     true},
    {"cycle5_large_joins", JoinGraphShape::kCycle, 5, 20261022, false, true},
    {"cycle5_large_joins_discount_enforcers", JoinGraphShape::kCycle, 5,
     20261022, true, true},
};

void RenderResult(std::ostringstream& os, const char* what,
                  const OptimizeResult& r, const Workload& w) {
  os << what << " objective_bits " << Bits(r.objective) << "\n";
  os << what << " candidates_considered " << r.candidates_considered
     << "\n";
  os << what << " cost_evaluations " << r.cost_evaluations << "\n";
  os << PlanToTreeString(r.plan, w.query, w.catalog);
}

std::string RenderCase(const GoldenCase& c) {
  CostModelOptions mo;
  mo.sorted_input_discount = c.discount_enforcers;
  CostModel model(mo);
  Rng rng(c.seed);
  WorkloadOptions wopts;
  wopts.num_tables = c.n;
  wopts.shape = c.shape;
  wopts.order_by_probability = 1.0;
  if (c.large_joins) {
    wopts.min_pages = 1e4;
    wopts.min_selectivity = 1e-5;
  }
  Workload w = GenerateWorkload(wopts, &rng);
  OptimizerOptions opts;
  opts.consider_sort_enforcers = c.discount_enforcers;
  Distribution memory = UniformBuckets(50, 5000, 5);

  std::ostringstream os;
  os << "case " << c.name << "\n";
  for (size_t top_c : {1u, 3u, 8u}) {
    size_t examined = 0;
    auto top = TopCPlansAtMemory(w.query, w.catalog, model, 800, top_c, opts,
                                 &examined);
    os << "top_c " << top_c << " combinations_examined " << examined
       << "\n";
    for (size_t i = 0; i < top.size(); ++i) {
      os << "rank " << i << " cost_bits " << Bits(top[i].second) << "\n";
      os << PlanToTreeString(top[i].first, w.query, w.catalog);
    }
  }
  RenderResult(os, "algorithm_b",
               OptimizeAlgorithmB(w.query, w.catalog, model, memory, 3, opts),
               w);
  RenderResult(os, "algorithm_a",
               OptimizeAlgorithmA(w.query, w.catalog, model, memory, opts),
               w);

  OptimizeResult dp =
      OptimizeLecStatic(w.query, w.catalog, model, memory, opts);
  RenderResult(os, "evaluate_dp_order",
               EvaluateJoinOrder(w.query, w.catalog, model, memory,
                                 JoinOrder(dp.plan), opts),
               w);
  Rng order_rng(c.seed + 1);
  RenderResult(os, "evaluate_random_order",
               EvaluateJoinOrder(w.query, w.catalog, model, memory,
                                 RandomConnectedOrder(w.query, &order_rng,
                                                      opts),
                                 opts),
               w);

  RandomizedOptions ropts;
  ropts.restarts = 3;
  ropts.plan_options = opts;
  Rng search_rng(c.seed + 2);
  RenderResult(os, "randomized",
               OptimizeRandomizedLec(w.query, w.catalog, model, memory,
                                     &search_rng, ropts),
               w);
  os << "end\n\n";
  return os.str();
}

TEST(StrategyGoldenTest, CountersObjectivesAndPlansMatchGolden) {
  simd::ScopedLevel pin(simd::Level::kScalar);
  std::string rendered;
  for (const GoldenCase& c : kCases) rendered += RenderCase(c);

  std::string path = GoldenPath();
  const char* update = std::getenv("UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::string want = ReadFile(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path
                             << " (run with UPDATE_GOLDEN=1 to create it)";
  EXPECT_EQ(rendered, want);
}

}  // namespace
}  // namespace lec
