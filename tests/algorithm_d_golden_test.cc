// Golden file for Algorithm D (optimizer/algorithm_d.cc, §3.6.3).
//
// D's objective, plan and work counters are pinned bit for bit on the
// request classes that dominate its cost: the n = 10 chain, star, cycle
// and random queries of the plan_cold benchmark (after the standard
// rewrite pipeline), a 16-table cycle and a 20-table chain. One case turns
// on the sorted-input discount with sort enforcers (the left/right-sorted
// keys and the enforcer path), one runs the naive enumerator
// (use_fast_ec = false). The SIMD tier is pinned to scalar so the
// recorded bits do not depend on the host's vector unit.
//
// Regenerating after an intentional change to D's enumeration, size
// propagation or arithmetic:
//
//   UPDATE_GOLDEN=1 ctest -R AlgorithmDGolden
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

#include "dist/simd.h"
#include "optimizer/algorithm_d.h"
#include "plan/printer.h"
#include "query/generator.h"
#include "rewrite/rewrite.h"
#include "util/rng.h"

namespace lec {
namespace {

std::string GoldenPath() {
  return std::string(LECOPT_SOURCE_DIR) +
         "/tests/golden/algorithm_d_counters.txt";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct GoldenCase {
  const char* name;
  JoinGraphShape shape;
  int n;
  uint64_t seed;
  /// plan_cold's query mix: redundant edges, filters and an ORDER BY
  /// draw, then the standard rewrite pipeline. Every case has plan_cold's
  /// selectivity and size spread, so no size distribution is a point mass.
  bool plan_cold_style;
  bool sorted_input_discount;  ///< with consider_sort_enforcers
  bool use_fast_ec;
};

constexpr GoldenCase kCases[] = {
    {"chain10_plan_cold", JoinGraphShape::kChain, 10, 701, true, false, true},
    {"star10_plan_cold", JoinGraphShape::kStar, 10, 702, true, false, true},
    {"cycle10_plan_cold", JoinGraphShape::kCycle, 10, 703, true, false, true},
    {"random10_plan_cold", JoinGraphShape::kRandom, 10, 704, true, false,
     true},
    {"cycle16", JoinGraphShape::kCycle, 16, 1616, false, false, true},
    {"chain20", JoinGraphShape::kChain, 20, 2020, false, false, true},
    {"random10_discount_enforcers", JoinGraphShape::kRandom, 10, 705, true,
     true, true},
    {"star8_naive_ec", JoinGraphShape::kStar, 8, 706, true, false, false},
};

Workload MakeCase(const GoldenCase& c, size_t size_buckets) {
  Rng rng(c.seed);
  WorkloadOptions o;
  o.shape = c.shape;
  o.num_tables = c.n;
  o.selectivity_spread = 3.0;
  o.table_size_spread = 2.0;
  if (c.plan_cold_style) {
    o.redundant_edge_probability = 0.3;
    o.filter_probability = 0.3;
    o.order_by_probability = 0.5;
    if (c.shape == JoinGraphShape::kRandom) o.extra_edges = 2;
  }
  Workload w = GenerateWorkload(o, &rng);
  if (!c.plan_cold_style) return w;
  rewrite::RewriteOutcome out =
      rewrite::StandardPassManager().Run(w.query, w.catalog, size_buckets);
  return Workload{.catalog = std::move(out.catalog),
                  .query = std::move(out.query)};
}

std::string Render(const GoldenCase& c, const OptimizeResult& r,
                   const Workload& w) {
  std::ostringstream os;
  char bits[32];
  std::snprintf(bits, sizeof(bits), "%016" PRIx64,
                std::bit_cast<uint64_t>(r.objective));
  // "uncached" keeps the case headers as first recorded, when each case
  // also ran with an expected-cost cache.
  os << "case " << c.name << " uncached\n";
  os << "objective_bits " << bits << "\n";
  os << "candidates_considered " << r.candidates_considered << "\n";
  os << "cost_evaluations " << r.cost_evaluations << "\n";
  os << "candidates_by_phase";
  for (size_t k : r.candidates_by_phase) os << " " << k;
  os << "\n";
  os << "plan " << PlanToString(r.plan, w.query, w.catalog) << "\n";
  os << PlanToTreeString(r.plan, w.query, w.catalog);
  os << "end\n\n";
  return os.str();
}

TEST(AlgorithmDGoldenTest, CountersObjectivesAndPlansMatchGolden) {
  simd::ScopedLevel pin(simd::Level::kScalar);
  // plan_cold's three-point memory distribution around a fixed centre.
  Distribution memory({{128, 0.3}, {512, 0.4}, {2048, 0.3}});
  std::string rendered;
  for (const GoldenCase& c : kCases) {
    CostModelOptions mo;
    mo.sorted_input_discount = c.sorted_input_discount;
    CostModel model(mo);
    OptimizerOptions opts;
    opts.consider_sort_enforcers = c.sorted_input_discount;
    opts.use_fast_ec = c.use_fast_ec;
    Workload w = MakeCase(c, opts.size_buckets);

    rendered += Render(
        c, OptimizeAlgorithmD(w.query, w.catalog, model, memory, opts), w);
  }

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
