// Golden file for the left-deep DP core (optimizer/dp_common.h).
//
// RunDp's objective, plan and work counters are pinned bit for bit on the
// large queries the sparse live-subset table exists for (chains, cycles
// and a random graph at n = 19 and 20), on the n = 10 chain the
// allocation tests use and on 10-table stars, under the three scalar
// costing regimes (lsc, lec_static, lec_dynamic). Pruning is off except
// in the *_pruned star cases, so the other counters are the unpruned DP's
// exact enumeration; the pruned cases also record the branch-and-bound
// counters. Pruned-vs-unpruned equality is fuzz invariant I9 and
// optimality against the exhaustive oracle is I1. The
// SIMD tier is pinned to scalar so the recorded bits do not depend on the
// host's vector unit.
//
// Each case records the objective's bit pattern, both plan renderings
// (the tree form carries join predicates, output orders and page
// annotations), candidates_considered, cost_evaluations and
// candidates_by_phase into tests/golden/dp_counters.txt. Regenerating
// after an intentional change to the DP's enumeration or arithmetic:
//
//   UPDATE_GOLDEN=1 ctest -R DpGolden
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

#include "cost/cost_policies.h"
#include "dist/builders.h"
#include "dist/markov.h"
#include "dist/simd.h"
#include "optimizer/dp_common.h"
#include "plan/printer.h"
#include "query/generator.h"
#include "util/rng.h"

namespace lec {
namespace {

std::string GoldenPath() {
  return std::string(LECOPT_SOURCE_DIR) + "/tests/golden/dp_counters.txt";
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
  int extra_edges;
  double order_by;
  size_t memory_buckets;
  bool sort_enforcers;
  /// CostModelOptions::sorted_input_discount: with sort enforcers on, every
  /// (method, left_sorted, inner_sorted) step of a join holds a different
  /// value.
  bool sorted_input_discount = false;
  /// DpPruning::kOn instead of kOff; the rendering then also records the
  /// branch-and-bound counters.
  bool pruning = false;
};

// The first five are the large-n shapes of tests/sparse_dp_test.cc (same
// generator seeds), the next two the n = 10 chain of
// tests/dist_arena_test.cc, once plain and once with sort enforcers. The
// 10-table stars are the DP's densest n = 10 case (every subset holding
// the hub is live): plain, with the sorted-input discount and enforcers
// under an ORDER BY, and the same two with pruning on.
constexpr GoldenCase kCases[] = {
    {"chain19_order_by", JoinGraphShape::kChain, 19, 1919, 0, 1.0, 9, false},
    {"chain20", JoinGraphShape::kChain, 20, 1920, 0, 0.0, 9, false},
    {"cycle19", JoinGraphShape::kCycle, 19, 1919, 0, 0.0, 9, false},
    {"cycle20_order_by", JoinGraphShape::kCycle, 20, 1920, 0, 1.0, 9, false},
    {"random19_extra4", JoinGraphShape::kRandom, 19, 1919, 4, 1.0, 9, false},
    {"chain10", JoinGraphShape::kChain, 10, 20260729, 0, 0.0, 27, false},
    {"chain10_enforcers", JoinGraphShape::kChain, 10, 20260729, 0, 0.0, 27,
     true},
    {"star10", JoinGraphShape::kStar, 10, 20261019, 0, 0.0, 27, false},
    {"star10_discount_enforcers", JoinGraphShape::kStar, 10, 20261019, 0,
     1.0, 27, true, true},
    {"star10_pruned", JoinGraphShape::kStar, 10, 20261019, 0, 0.0, 27, false,
     false, true},
    {"star10_pruned_discount_enforcers", JoinGraphShape::kStar, 10, 20261019,
     0, 1.0, 27, true, true, true},
};

std::string Render(const GoldenCase& c, const char* provider,
                   const OptimizeResult& r, const Workload& w) {
  std::ostringstream os;
  char bits[32];
  std::snprintf(bits, sizeof(bits), "%016" PRIx64,
                std::bit_cast<uint64_t>(r.objective));
  os << "case " << c.name << " " << provider << "\n";
  os << "objective_bits " << bits << "\n";
  os << "candidates_considered " << r.candidates_considered << "\n";
  os << "cost_evaluations " << r.cost_evaluations << "\n";
  os << "candidates_by_phase";
  for (size_t c : r.candidates_by_phase) os << " " << c;
  os << "\n";
  if (c.pruning) {
    os << "pruned_expansions " << r.pruned_expansions << "\n";
    os << "pruned_candidates " << r.pruned_candidates << "\n";
    os << "pruned_entries " << r.pruned_entries << "\n";
    os << "incumbent_cost_evaluations " << r.incumbent_cost_evaluations
       << "\n";
  }
  os << "plan " << PlanToString(r.plan, w.query, w.catalog) << "\n";
  os << PlanToTreeString(r.plan, w.query, w.catalog);
  os << "end\n\n";
  return os.str();
}

TEST(DpGoldenTest, CountersObjectivesAndPlansMatchGolden) {
  simd::ScopedLevel pin(simd::Level::kScalar);
  std::string rendered;
  for (const GoldenCase& c : kCases) {
    CostModelOptions mo;
    mo.sorted_input_discount = c.sorted_input_discount;
    CostModel model(mo);
    Rng rng(c.seed);
    WorkloadOptions wopts;
    wopts.num_tables = c.n;
    wopts.shape = c.shape;
    wopts.extra_edges = c.extra_edges;
    wopts.order_by_probability = c.order_by;
    Workload w = GenerateWorkload(wopts, &rng);

    Distribution memory = UniformBuckets(50, 5000, c.memory_buckets);
    std::vector<double> states;
    for (const Bucket& b : memory.buckets()) states.push_back(b.value);
    MarkovChain chain = MarkovChain::Drift(states, 0.6);
    std::vector<Distribution> marginals;
    Distribution cur = memory;
    for (int t = 0; t < c.n - 1; ++t) {
      marginals.push_back(cur);
      cur = chain.Step(cur);
    }

    OptimizerOptions opts;
    opts.dp_pruning = c.pruning ? DpPruning::kOn : DpPruning::kOff;
    opts.consider_sort_enforcers = c.sort_enforcers;
    DpContext ctx(w.query, w.catalog, opts);
    rendered += Render(c, "lsc", RunDp(ctx, LscCostProvider{model, 800}),
                       w);
    rendered += Render(c, "lec_static",
                       RunDp(ctx, LecStaticCostProvider{model, memory}), w);
    rendered += Render(c, "lec_dynamic",
                       RunDp(ctx, LecDynamicCostProvider{model, marginals}),
                       w);
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
