#include "cost/expected_cost.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "cost/cost_policies.h"
#include "cost/plan_walk.h"
#include "cost/size_propagation.h"
#include "dist/simd.h"

namespace lec {

Realization Realization::AtMeans(const Query& query, const Catalog& catalog,
                                 double memory) {
  Realization r;
  r.table_pages.reserve(query.num_tables());
  for (QueryPos p = 0; p < query.num_tables(); ++p) {
    r.table_pages.push_back(catalog.table(query.table(p)).SizeMean());
  }
  r.selectivity.reserve(query.num_predicates());
  for (int i = 0; i < query.num_predicates(); ++i) {
    r.selectivity.push_back(query.predicate(i).selectivity.Mean());
  }
  r.memory_by_phase.push_back(memory);
  return r;
}

// The operator-level enumerations run on SoA views so the Distribution
// wrappers and the kernel hot paths (ExpectedJoinCostView etc., consumed by
// Algorithm D's arena pipeline) are one definition with identical
// summation order.

namespace {

// Vectorized fixed-sizes EC, engaged only when the active SIMD level is not
// scalar. Restructures the per-bucket scalar loop by distributivity: the
// cost-model thresholds (sqrt/cbrt/NL/residency breakpoints) are hoisted
// out, the ascending memory values are split into per-factor classes with
// simd::CountLeq (exact — the same comparisons JoinCost performs, so the
// classification is bit-identical), and each class's probability mass is
// folded with simd::Sum. EC = Σ_class mass·cost(class) — equal to the
// scalar left-to-right sum in exact arithmetic, within the n·eps
// reassociation contract of dist/simd.h in binary64 (the scalar twin
// remains the I7 bit-parity reference; SIMD-vs-scalar legs compare under
// verify::kKernelParityRelTol).
double EcJoinFixedSizesVector(const CostModel& model, JoinMethod method,
                              double a, double b, DistView memory,
                              bool left_sorted, bool right_sorted) {
  const double* v = memory.values;
  const double* p = memory.probs;
  const size_t n = memory.n;
  // Same guard, same exception as JoinCost would raise on the first bucket.
  if (a < 0 || b < 0 || v[0] <= 0) {
    throw std::invalid_argument("sizes must be >= 0 and memory > 0");
  }
  const double total = a + b;
  const double mass = simd::Sum(p, n);
  switch (method) {
    case JoinMethod::kSortMerge: {
      double larger = std::max(a, b);
      double sqrt_l = std::sqrt(larger);
      double cbrt_l = std::cbrt(larger);
      // Factor k = 2 above sqrt, 4 in (cbrt, sqrt], else 6 — with the
      // nested-conditional clamp: when larger < 1, cbrt_l > sqrt_l and the
      // sqrt test wins, so the 6-class never extends past the 4-class.
      size_t idx_s = simd::CountLeq(v, 0, n, sqrt_l, /*strict=*/false);
      size_t idx_c =
          std::min(simd::CountLeq(v, 0, n, cbrt_l, /*strict=*/false), idx_s);
      double m6 = simd::Sum(p, idx_c);
      double m4 = simd::Sum(p + idx_c, idx_s - idx_c);
      double m2 = mass - (m6 + m4);
      double ek = 2.0 * m2 + 4.0 * m4 + 6.0 * m6;  // Σ p_i k_i
      if (!model.options().sorted_input_discount) return ek * total;
      double el = left_sorted ? mass : ek;  // Σ p_i c_l(i)
      double er = right_sorted ? mass : ek;
      return el * a + er * b;
    }
    case JoinMethod::kGraceHash: {
      double smaller = std::min(a, b);
      double sqrt_s = std::sqrt(smaller);
      double cbrt_s = std::cbrt(smaller);
      size_t idx_s = simd::CountLeq(v, 0, n, sqrt_s, /*strict=*/false);
      size_t idx_c =
          std::min(simd::CountLeq(v, 0, n, cbrt_s, /*strict=*/false), idx_s);
      double m6 = simd::Sum(p, idx_c);
      double m4 = simd::Sum(p + idx_c, idx_s - idx_c);
      double m2 = mass - (m6 + m4);
      return (2.0 * m2 + 4.0 * m4 + 6.0 * m6) * total;
    }
    case JoinMethod::kNestedLoop: {
      double smaller = std::min(a, b);
      // memory >= smaller + 2 costs a+b; below the threshold, a + a·b.
      size_t idx_lo = simd::CountLeq(v, 0, n, smaller + 2, /*strict=*/true);
      double m_lo = simd::Sum(p, idx_lo);
      double m_hi = mass - m_lo;
      return total * m_hi + (a + a * b) * m_lo;
    }
    case JoinMethod::kHybridHash: {
      double smaller = std::min(a, b);
      if (smaller <= 0) return total * mass;
      return simd::HybridFactorDot(v, p, n, smaller, std::cbrt(smaller),
                                   std::sqrt(smaller)) *
             total;
    }
  }
  throw std::logic_error("unknown join method");
}

}  // namespace

double ExpectedJoinCostFixedSizesView(const CostModel& model,
                                      JoinMethod method, double left_pages,
                                      double right_pages, DistView memory,
                                      bool left_sorted, bool right_sorted) {
  if (memory.n != 0 && simd::ActiveLevel() != simd::Level::kScalar) {
    return EcJoinFixedSizesVector(model, method, left_pages, right_pages,
                                  memory, left_sorted, right_sorted);
  }
  // Scalar reference loop — the bit-parity twin of the vector path above.
  double ec = 0;
  for (size_t i = 0; i < memory.n; ++i) {
    ec += memory.probs[i] * model.JoinCost(method, left_pages, right_pages,
                                           memory.values[i], left_sorted,
                                           right_sorted);
  }
  return ec;
}

double ExpectedJoinCostFixedSizes(const CostModel& model, JoinMethod method,
                                  double left_pages, double right_pages,
                                  const Distribution& memory,
                                  bool left_sorted, bool right_sorted) {
  return ExpectedJoinCostFixedSizesView(model, method, left_pages,
                                        right_pages, memory.AsView(),
                                        left_sorted, right_sorted);
}

double ExpectedJoinCostView(const CostModel& model, JoinMethod method,
                            DistView left, DistView right, DistView memory,
                            bool left_sorted, bool right_sorted) {
  double ec = 0;
  for (size_t li = 0; li < left.n; ++li) {
    for (size_t ri = 0; ri < right.n; ++ri) {
      double p_lr = left.probs[li] * right.probs[ri];
      for (size_t mi = 0; mi < memory.n; ++mi) {
        ec += p_lr * memory.probs[mi] *
              model.JoinCost(method, left.values[li], right.values[ri],
                             memory.values[mi], left_sorted, right_sorted);
      }
    }
  }
  return ec;
}

double ExpectedJoinCost(const CostModel& model, JoinMethod method,
                        const Distribution& left, const Distribution& right,
                        const Distribution& memory, bool left_sorted,
                        bool right_sorted) {
  return ExpectedJoinCostView(model, method, left.AsView(), right.AsView(),
                              memory.AsView(), left_sorted, right_sorted);
}

double ExpectedSortCostFixedSizeView(const CostModel& model, double pages,
                                     DistView memory) {
  double ec = 0;
  for (size_t i = 0; i < memory.n; ++i) {
    ec += memory.probs[i] * model.SortCost(pages, memory.values[i]);
  }
  return ec;
}

double ExpectedSortCostFixedSize(const CostModel& model, double pages,
                                 const Distribution& memory) {
  return ExpectedSortCostFixedSizeView(model, pages, memory.AsView());
}

double ExpectedSortCostView(const CostModel& model, DistView pages,
                            DistView memory) {
  double ec = 0;
  for (size_t pi = 0; pi < pages.n; ++pi) {
    for (size_t mi = 0; mi < memory.n; ++mi) {
      ec += pages.probs[pi] * memory.probs[mi] *
            model.SortCost(pages.values[pi], memory.values[mi]);
    }
  }
  return ec;
}

double ExpectedSortCost(const CostModel& model, const Distribution& pages,
                        const Distribution& memory) {
  return ExpectedSortCostView(model, pages.AsView(), memory.AsView());
}

namespace {

// The scalar-size plan walk (WalkPlan) lives in cost/plan_walk.h so the
// verification oracle can dispatch the same skeleton; only the
// distribution-sized multi-parameter walk stays private here.

struct DistWalkResult {
  Distribution pages = Distribution::PointMass(0);
  int joins = 0;
  double ec = 0;
};

DistWalkResult WalkMultiParam(const PlanPtr& node, const Query& query,
                              const Catalog& catalog, const CostModel& model,
                              const Distribution& memory,
                              size_t size_buckets) {
  DistWalkResult out;
  switch (node->kind) {
    case PlanNode::Kind::kAccess: {
      std::optional<Distribution> point_mass;
      out.pages = catalog.table(query.table(node->table_pos))
                      .SizeDistributionRef(&point_mass)
                      .Rebucket(size_buckets);
      out.ec = out.pages.Mean();  // scan cost is linear in size
      return out;
    }
    case PlanNode::Kind::kSort: {
      DistWalkResult child = WalkMultiParam(node->left, query, catalog, model,
                                            memory, size_buckets);
      out.pages = child.pages;
      out.joins = child.joins;
      out.ec = child.ec + ExpectedSortCost(model, child.pages, memory);
      return out;
    }
    case PlanNode::Kind::kJoin: {
      DistWalkResult l = WalkMultiParam(node->left, query, catalog, model,
                                        memory, size_buckets);
      DistWalkResult r = WalkMultiParam(node->right, query, catalog, model,
                                        memory, size_buckets);
      Distribution sel = CombinedSelectivityDistribution(
          query, node->predicates, size_buckets);
      out.pages =
          JoinSizeDistribution(l.pages, r.pages, sel, size_buckets);
      out.joins = l.joins + r.joins + 1;
      JoinSortedness srt = JoinInputSortedness(*node);
      out.ec = l.ec + r.ec +
               ExpectedJoinCost(model, node->method, l.pages, r.pages, memory,
                                srt.left_sorted, srt.right_sorted);
      if (model.options().charge_materialization &&
          node->left->kind == PlanNode::Kind::kJoin) {
        out.ec += 2.0 * l.pages.Mean();
      }
      return out;
    }
  }
  throw std::logic_error("unknown plan node kind");
}

}  // namespace

double RealizedPlanCost(const PlanPtr& plan, const Query&,
                        const CostModel& model, const Realization& real) {
  return WalkPlan(plan, model, real,
                  RealizedCostProvider{model, real.memory_by_phase}, 0)
      .cost;
}

double PlanCostAtMemory(const PlanPtr& plan, const Query& query,
                        const Catalog& catalog, const CostModel& model,
                        double memory) {
  return RealizedPlanCost(plan, query, model,
                          Realization::AtMeans(query, catalog, memory));
}

double PlanExpectedCostStatic(const PlanPtr& plan, const Query& query,
                              const Catalog& catalog, const CostModel& model,
                              const Distribution& memory) {
  double ec = 0;
  Realization real = Realization::AtMeans(query, catalog, memory.Min());
  for (const Bucket& m : memory.buckets()) {
    real.memory_by_phase[0] = m.value;
    ec += m.prob * RealizedPlanCost(plan, query, model, real);
  }
  return ec;
}

double PlanExpectedCostDynamic(const PlanPtr& plan, const Query& query,
                               const Catalog& catalog, const CostModel& model,
                               const MarkovChain& chain,
                               const Distribution& initial) {
  // By linearity of expectation, EC = Σ_phases E_{marginal_t}[phase-t cost],
  // exactly — regardless of cross-phase correlation (Theorem 3.4's proof
  // relies on the same decomposition).
  int phases = std::max(CountJoins(plan), 1);
  std::vector<Distribution> marginals;
  marginals.reserve(phases);
  Distribution cur = initial;
  for (int t = 0; t < phases; ++t) {
    marginals.push_back(cur);
    cur = chain.Step(cur);
  }
  Realization means = Realization::AtMeans(query, catalog, 1.0);
  return WalkPlan(plan, model, means,
                  LecDynamicCostProvider{model, marginals}, 0)
      .cost;
}

double PlanExpectedCostMultiParam(const PlanPtr& plan, const Query& query,
                                  const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  size_t size_buckets) {
  return WalkMultiParam(plan, query, catalog, model, memory, size_buckets).ec;
}

}  // namespace lec
