#include "verify/fuzz_driver.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "cost/cost_policies.h"
#include "cost/expected_cost.h"
#include "cost/fast_expected_cost.h"
#include "cost/size_propagation.h"
#include "dist/simd.h"
#include "exec/plan_executor.h"
#include "storage/join_operators.h"
#include "optimizer/algorithm_a.h"
#include "optimizer/algorithm_b.h"
#include "optimizer/algorithm_c.h"
#include "optimizer/algorithm_d.h"
#include "optimizer/exhaustive.h"
#include "optimizer/system_r.h"
#include "rewrite/rewrite.h"
#include "service/plan_cache.h"
#include "service/serde.h"
#include "service/serve_pipeline.h"
#include "service/wire_server.h"
#include "stats/measure.h"
#include "verify/mc_validator.h"
#include "verify/oracle.h"
#include "verify/tolerance.h"

namespace lec::verify {

namespace {

struct ShapeName {
  JoinGraphShape shape;
  const char* name;
};

constexpr ShapeName kShapeNames[] = {
    {JoinGraphShape::kChain, "chain"},   {JoinGraphShape::kStar, "star"},
    {JoinGraphShape::kCycle, "cycle"},   {JoinGraphShape::kClique, "clique"},
    {JoinGraphShape::kRandom, "random"},
};

const char* NameOf(JoinGraphShape shape) {
  for (const ShapeName& s : kShapeNames) {
    if (s.shape == shape) return s.name;
  }
  return "unknown";
}

std::optional<JoinGraphShape> ShapeOf(std::string_view name) {
  for (const ShapeName& s : kShapeNames) {
    if (name == s.name) return s.shape;
  }
  return std::nullopt;
}

/// Everything one round is checked against, derived deterministically from
/// the case alone (so a repro run sees the identical world).
struct CaseContext {
  Workload workload;
  Distribution memory = Distribution::PointMass(0);
  MarkovChain chain = MarkovChain::Static({0});
  CostModel model;
};

CaseContext BuildContext(const FuzzCase& c) {
  Rng rng(c.seed);
  WorkloadOptions wopts;
  wopts.num_tables = c.num_tables;
  wopts.shape = c.shape;
  wopts.selectivity_spread = c.selectivity_spread;
  wopts.table_size_spread = c.table_size_spread;
  wopts.order_by_probability = c.order_by ? 1.0 : 0.0;
  if (c.shape == JoinGraphShape::kRandom) {
    wopts.extra_edges = static_cast<int>(c.seed % 3);
  }
  CaseContext ctx;
  ctx.workload = GenerateWorkload(wopts, &rng);
  MemoryEnvironment env = MakeMemoryEnvironment(&rng);
  ctx.memory = std::move(env.memory);
  ctx.chain = std::move(env.chain);
  return ctx;
}

/// `w` under new position labels: perm[p] is the new position of original
/// position p. Predicate and filter list order is kept.
Workload Relabeled(const Workload& w, const std::vector<int>& perm) {
  int n = w.query.num_tables();
  std::vector<int> inv(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) inv[static_cast<size_t>(perm[p])] = p;
  Workload twin;
  twin.catalog = w.catalog;
  for (int np = 0; np < n; ++np) {
    twin.query.AddTable(w.query.table(inv[static_cast<size_t>(np)]));
  }
  for (const JoinPredicate& p : w.query.predicates()) {
    twin.query.AddPredicate(static_cast<QueryPos>(perm[p.left]),
                            static_cast<QueryPos>(perm[p.right]),
                            p.selectivity);
  }
  for (const FilterPredicate& f : w.query.filters()) {
    twin.query.AddFilter(static_cast<QueryPos>(perm[f.table]),
                         f.selectivity);
  }
  if (w.query.required_order()) {
    twin.query.RequireOrder(*w.query.required_order());
  }
  return twin;
}

std::string FormatMismatch(const char* what, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << what << ": got " << got << ", want " << want
     << " (rel err " << RelativeError(got, want) << ")";
  return os.str();
}

/// Sizes-only mirror of the multi-parameter walk: the result-size
/// distribution of every node under the given bucket budget.
Distribution PropagateRootSize(const PlanPtr& node, const Query& query,
                               const Catalog& catalog, size_t buckets) {
  switch (node->kind) {
    case PlanNode::Kind::kAccess:
      return catalog.table(query.table(node->table_pos))
          .SizeDistribution()
          .Rebucket(buckets);
    case PlanNode::Kind::kSort:
      return PropagateRootSize(node->left, query, catalog, buckets);
    case PlanNode::Kind::kJoin: {
      Distribution l = PropagateRootSize(node->left, query, catalog, buckets);
      Distribution r =
          PropagateRootSize(node->right, query, catalog, buckets);
      Distribution sel =
          CombinedSelectivityDistribution(query, node->predicates, buckets);
      return JoinSizeDistribution(l, r, sel, buckets);
    }
  }
  throw std::logic_error("unknown plan node kind");
}

/// Sorted payload multiset — the execution identity I12 compares (payloads
/// are an order-invariant lineage fingerprint, storage/join_operators.cc).
std::vector<int64_t> PayloadMultiset(const TableData& t) {
  std::vector<int64_t> out;
  out.reserve(t.num_tuples());
  t.ForEachTuple([&](const Tuple& tup) { out.push_back(tup.payload); });
  std::sort(out.begin(), out.end());
  return out;
}

/// NaiveJoinReference composed forward over the chain — the independent
/// reference answer every executed plan must reproduce as a multiset.
TableData NaiveChainCompose(const EngineWorkload& w) {
  TableData cur = w.tables.at(0);
  for (size_t j = 1; j < w.tables.size(); ++j) {
    JoinColumnSpec spec;
    spec.left_col = 1;
    spec.right_col = 0;
    spec.out0_side = 0;
    spec.out0_col = 0;
    spec.out1_side = 1;
    spec.out1_col = 1;
    cur = NaiveJoinReference(cur, w.tables.at(j), spec);
  }
  return cur;
}

/// Forward left-deep chain plan with one join method everywhere and a
/// deliberately stale cardinality estimate on every join node.
PlanPtr StaleForwardChainPlan(int n, JoinMethod method) {
  PlanPtr plan = MakeAccess(0, 1);
  for (int j = 1; j < n; ++j) {
    plan = MakeJoin(plan, MakeAccess(j, 1), method, {j - 1}, kUnsorted,
                    /*est_pages=*/0.01);
  }
  return plan;
}

/// One fuzz round's checker: accumulates violations and the check count.
class CaseChecker {
 public:
  CaseChecker(const FuzzCase& fuzz_case, const FuzzOptions& options)
      : case_(fuzz_case), options_(options), ctx_(BuildContext(fuzz_case)) {}

  std::vector<FuzzViolation> Run() {
    CheckOracleOptimality();     // I1
    CheckDegeneration();         // I2
    CheckMixtureLinearity();     // I3
    CheckRebucketing();          // I4
    CheckFacadeParity();         // I5
    CheckKernelParity();         // I7 (cheap; runs before the MC resamples)
    CheckDpPruning();            // I9
    CheckSerdeCacheParity();     // I8
    CheckServePipeline();        // I10
    CheckMeasuredStats();        // I11
    CheckPlanExecution();        // I12 (chain cases only)
    CheckRewrite();              // I13
    if (options_.check_mc) CheckMonteCarlo();  // I6
    return std::move(violations_);
  }

  size_t invariants_checked() const { return checked_; }

 private:
  bool Expect(bool ok, const char* invariant, const std::string& detail) {
    ++checked_;
    if (!ok) violations_.push_back({case_, invariant, detail});
    return ok;
  }

  bool Stop() const {
    return options_.stop_on_first && !violations_.empty();
  }

  /// The static LEC solve that several invariants lean on (I1, I3, I4,
  /// I5's direct baseline, I6) — deterministic for the case, so computed
  /// once instead of ~5 identical DP runs per round.
  const OptimizeResult& LecStatic() {
    if (!lec_static_) {
      lec_static_ = OptimizeLecStatic(ctx_.workload.query,
                                      ctx_.workload.catalog, ctx_.model,
                                      ctx_.memory);
    }
    return *lec_static_;
  }

  void CheckOracleOptimality() {
    const Workload& w = ctx_.workload;
    // One enumeration pass scores all three scalar regimes (plan-tree
    // construction dominates an exhaustive solve); best/worst suffice, so
    // the per-plan spectrum is not collected.
    OracleOptions static_opt;
    static_opt.objective = OracleObjective::kLecStatic;
    static_opt.collect_spectrum = false;
    OracleOptions lsc_opt = static_opt;
    lsc_opt.objective = OracleObjective::kLscAtMean;
    OracleOptions dyn_opt = static_opt;
    dyn_opt.objective = OracleObjective::kLecDynamic;
    dyn_opt.chain = &ctx_.chain;
    std::vector<OracleResult> oracles =
        SolveOracleMany(w.query, w.catalog, ctx_.model, ctx_.memory,
                        {lsc_opt, static_opt, dyn_opt});
    const OracleResult& lsc_oracle = oracles[0];
    const OracleResult& static_oracle = oracles[1];
    const OracleResult& dyn_oracle = oracles[2];

    // Exact DP families hit their oracle optimum.
    {
      OptimizeResult lsc = OptimizeLscAtEstimate(
          w.query, w.catalog, ctx_.model, ctx_.memory, PointEstimate::kMean);
      Expect(ApproxEqual(lsc.objective, lsc_oracle.best_objective,
                         kOracleRelTol),
             "I1:lsc_oracle",
             FormatMismatch("lsc objective vs exhaustive LSC optimum",
                            lsc.objective, lsc_oracle.best_objective));
    }
    if (Stop()) return;
    {
      const OptimizeResult& lec = LecStatic();
      Expect(ApproxEqual(lec.objective, static_oracle.best_objective,
                         kOracleRelTol),
             "I1:lec_static_oracle",
             FormatMismatch("lec_static objective vs exhaustive LEC optimum",
                            lec.objective, static_oracle.best_objective));
    }
    if (Stop()) return;
    {
      OptimizeResult dyn = OptimizeLecDynamic(w.query, w.catalog, ctx_.model,
                                              ctx_.chain, ctx_.memory);
      Expect(ApproxEqual(dyn.objective, dyn_oracle.best_objective,
                         kOracleRelTol),
             "I1:lec_dynamic_oracle",
             FormatMismatch("lec_dynamic objective vs exhaustive optimum",
                            dyn.objective, dyn_oracle.best_objective));
    }
    if (Stop()) return;
    // Heuristic candidate-set strategies: true regret is nonnegative, the
    // stated objective agrees with re-scoring the plan on equal terms, and
    // nothing scores above the spectrum's worst plan.
    auto check_candidate_family = [&](const char* id,
                                      const OptimizeResult& r) {
      double rescored = OraclePlanObjective(r.plan, w.query, w.catalog,
                                            ctx_.model, ctx_.memory,
                                            static_opt);
      Expect(ApproxEqual(r.objective, rescored,
                         kSummationReassociationRelTol),
             id,
             FormatMismatch("stated objective vs rescored plan EC",
                            r.objective, rescored));
      Expect(NoBetterThan(rescored, static_oracle.best_objective),
             id,
             FormatMismatch("plan EC beats the exhaustive optimum", rescored,
                            static_oracle.best_objective));
      Expect(rescored <= static_oracle.worst_objective *
                             (1 + kOracleRelTol) +
                         kOracleRelTol,
             id,
             FormatMismatch("plan EC above the spectrum's worst", rescored,
                            static_oracle.worst_objective));
    };
    check_candidate_family(
        "I1:algorithm_a_regret",
        OptimizeAlgorithmA(w.query, w.catalog, ctx_.model, ctx_.memory));
    if (Stop()) return;
    check_candidate_family(
        "I1:algorithm_b_regret",
        OptimizeAlgorithmB(w.query, w.catalog, ctx_.model, ctx_.memory, 3));
    if (Stop()) return;
    // Algorithm D vs the exact multi-parameter oracle — only feasible for
    // small joint supports, and only exact under exact size propagation.
    if (w.query.num_tables() <= 4) {
      OptimizerOptions exact;
      exact.size_buckets = 4096;
      exact.size_mode = SizePropagationMode::kExactThenRebucket;
      OptimizeResult d = OptimizeAlgorithmD(w.query, w.catalog, ctx_.model,
                                            ctx_.memory, exact);
      double rescored = 0;
      bool feasible = true;
      try {
        rescored = ExactMultiParamEc(d.plan, w.query, w.catalog, ctx_.model,
                                     ctx_.memory);
      } catch (const std::invalid_argument&) {
        feasible = false;  // joint support too large; skip quietly
      }
      if (feasible) {
        Expect(ApproxEqual(d.objective, rescored, kBucketedEvaluatorRelTol),
               "I1:algorithm_d_walk",
               FormatMismatch("algorithm_d objective vs exact joint EC",
                              d.objective, rescored));
        // Regret must be measured in one metric. The bucketed plan walk is
        // biased relative to the joint enumeration (cube-root prebucketing
        // loses mass placement), so grading D's exact EC against a
        // bucketed oracle flags phantom negative regret. Compare exact
        // against exact — affordable only when the whole plan space fits
        // through the joint enumeration (n == 3).
        if (w.query.num_tables() == 3) {
          OptimizeResult exact_oracle = ExhaustiveBest(
              w.query, w.catalog, exact, [&](const PlanPtr& p) {
                return ExactMultiParamEc(p, w.query, w.catalog, ctx_.model,
                                         ctx_.memory);
              });
          // 10x the evaluator tolerance: D optimizes its bucketed metric,
          // which tracks the exact EC to kBucketedEvaluatorRelTol, so its
          // exact regret can dip slightly negative without being a bug.
          Expect(NoBetterThan(rescored, exact_oracle.objective,
                              10 * kBucketedEvaluatorRelTol),
                 "I1:algorithm_d_regret",
                 FormatMismatch(
                     "algorithm_d exact EC beats the exact oracle",
                     rescored, exact_oracle.objective));
        }
      }
    }
  }

  void CheckDegeneration() {
    if (Stop()) return;
    const Workload& w = ctx_.workload;
    // Memory collapsed to its mean: LEC must equal LSC there.
    Distribution point = Distribution::PointMass(ctx_.memory.Mean());
    OptimizeResult lec =
        OptimizeLecStatic(w.query, w.catalog, ctx_.model, point);
    OptimizeResult lsc =
        OptimizeLsc(w.query, w.catalog, ctx_.model, ctx_.memory.Mean());
    Expect(ApproxEqual(lec.objective, lsc.objective, kOracleRelTol),
           "I2:point_mass_collapse",
           FormatMismatch("lec_static at point mass vs lsc", lec.objective,
                          lsc.objective));
    if (Stop()) return;
    // Both data-uncertainty axes collapsed to spread 1: Algorithm D must
    // equal Algorithm C on the same base workload (the generator draws the
    // same base values regardless of spread).
    FuzzCase degen = case_;
    degen.selectivity_spread = 1.0;
    degen.table_size_spread = 1.0;
    CaseContext dctx = BuildContext(degen);
    OptimizeResult d = OptimizeAlgorithmD(dctx.workload.query,
                                          dctx.workload.catalog, ctx_.model,
                                          dctx.memory);
    OptimizeResult c = OptimizeLecStatic(dctx.workload.query,
                                         dctx.workload.catalog, ctx_.model,
                                         dctx.memory);
    Expect(ApproxEqual(d.objective, c.objective,
                       kSummationReassociationRelTol),
           "I2:spread_collapse",
           FormatMismatch("algorithm_d at spread 1 vs lec_static",
                          d.objective, c.objective));
  }

  void CheckMixtureLinearity() {
    if (Stop()) return;
    const Workload& w = ctx_.workload;
    PlanPtr plan = LecStatic().plan;
    double mean = ctx_.memory.Mean();
    Distribution point = Distribution::PointMass(mean);
    Rng rng(case_.seed ^ 0x6d69787475726521ULL);
    double wgt = rng.Uniform(0.2, 0.8);
    Distribution mixed = ctx_.memory.MixWith(point, wgt);
    double ec_mixed = PlanExpectedCostStatic(plan, w.query, w.catalog,
                                             ctx_.model, mixed);
    double ec_full = PlanExpectedCostStatic(plan, w.query, w.catalog,
                                            ctx_.model, ctx_.memory);
    double cost_at_mean =
        PlanCostAtMemory(plan, w.query, w.catalog, ctx_.model, mean);
    double expected = wgt * ec_full + (1 - wgt) * cost_at_mean;
    Expect(ApproxEqual(ec_mixed, expected, kSummationReassociationRelTol),
           "I3:mixture_linearity",
           FormatMismatch("EC under mixture vs mixture of ECs", ec_mixed,
                          expected));
  }

  void CheckRebucketing() {
    if (Stop()) return;
    const Workload& w = ctx_.workload;
    PlanPtr plan = LecStatic().plan;
    Distribution root = PropagateRootSize(plan, w.query, w.catalog, 27);
    // Mass conservation: Σ prob over the propagated root is exactly 1 (the
    // Distribution invariant must survive every product and rebucket).
    double mass = 0;
    for (const Bucket& b : root.buckets()) mass += b.prob;
    Expect(std::abs(mass - 1.0) <= 1e-9, "I4:mass_conservation",
           FormatMismatch("root size distribution total mass", mass, 1.0));
    if (Stop()) return;
    // Mean conservation: rebucketing collapses cells to conditional means,
    // so the root mean must equal the product of all factor means
    // (independence) no matter how few buckets survive.
    double want_mean = 1.0;
    double want_min = 1.0;
    double want_max = 1.0;
    for (QueryPos p = 0; p < w.query.num_tables(); ++p) {
      Distribution d = w.catalog.table(w.query.table(p)).SizeDistribution();
      want_mean *= d.Mean();
      want_min *= d.Min();
      want_max *= d.Max();
    }
    for (int i = 0; i < w.query.num_predicates(); ++i) {
      const Distribution& d = w.query.predicate(i).selectivity;
      want_mean *= d.Mean();
      want_min *= d.Min();
      want_max *= d.Max();
    }
    Expect(ApproxEqual(root.Mean(), want_mean, 1e-6),
           "I4:mean_conservation",
           FormatMismatch("root size mean vs product of factor means",
                          root.Mean(), want_mean));
    bool min_ok = root.Min() >= want_min * (1 - 1e-9);
    bool max_ok = root.Max() <= want_max * (1 + 1e-9);
    Expect(min_ok && max_ok, "I4:support_envelope",
           min_ok ? FormatMismatch("root support max above exact envelope",
                                   root.Max(), want_max)
                  : FormatMismatch("root support min below exact envelope",
                                   root.Min(), want_min));
  }

  void CheckFacadeParity() {
    if (Stop()) return;
    // Facade dispatch equals the direct entry point, bit for bit. Thread
    // and worker-count invariance of served results is I10's.
    Optimizer facade;
    OptimizeRequest req;
    req.query = &ctx_.workload.query;
    req.catalog = &ctx_.workload.catalog;
    req.model = &ctx_.model;
    req.memory = &ctx_.memory;
    OptimizeResult via_facade = facade.Optimize(StrategyId::kLecStatic, req);
    const OptimizeResult& direct = LecStatic();
    Expect(via_facade.objective == direct.objective &&
               PlanEquals(via_facade.plan, direct.plan),
           "I5:facade_parity",
           FormatMismatch("facade vs direct lec_static objective",
                          via_facade.objective, direct.objective));
  }

  void CheckKernelParity() {
    if (Stop()) return;
    const Workload& w = ctx_.workload;
    // (a) Algorithm D: the §3.6 fast-EC sweeps against the naive triple
    // enumeration, end to end. Objectives agree within the kernel bound;
    // plans are compared by re-scoring both under the plan-order
    // multi-parameter evaluator, not by structure, since true ties may
    // resolve either way across the two numeric paths.
    {
      OptimizerOptions fast_opts;
      fast_opts.use_fast_ec = true;
      OptimizerOptions naive_opts;
      naive_opts.use_fast_ec = false;
      OptimizeResult fast = OptimizeAlgorithmD(w.query, w.catalog, ctx_.model,
                                               ctx_.memory, fast_opts);
      OptimizeResult naive = OptimizeAlgorithmD(
          w.query, w.catalog, ctx_.model, ctx_.memory, naive_opts);
      Expect(ApproxEqual(fast.objective, naive.objective, kKernelParityRelTol),
             "I7:algorithm_d_fast_ec_parity",
             FormatMismatch("algorithm_d fast-EC vs naive objective",
                            fast.objective, naive.objective));
      double fast_rescored = PlanExpectedCostMultiParam(
          fast.plan, w.query, w.catalog, ctx_.model, ctx_.memory,
          fast_opts.size_buckets);
      double naive_rescored = PlanExpectedCostMultiParam(
          naive.plan, w.query, w.catalog, ctx_.model, ctx_.memory,
          naive_opts.size_buckets);
      Expect(ApproxEqual(fast_rescored, naive_rescored, kKernelParityRelTol),
             "I7:algorithm_d_fast_ec_plan",
             FormatMismatch("algorithm_d fast-EC vs naive plan, re-scored",
                            fast_rescored, naive_rescored));
    }
    if (Stop()) return;
    // (b) Operator level: the threshold-swept fast-EC kernels against the
    // paper's definition EC = Σ C(a, b, m)·Pr(a, b, m) (ExpectedJoinCost)
    // on this case's own distributions.
    {
      Distribution a =
          w.catalog.table(w.query.table(0)).SizeDistribution();
      Distribution b = w.catalog.table(w.query.table(w.query.num_tables() - 1))
                           .SizeDistribution();
      for (JoinMethod m : kAllJoinMethods) {
        double fast_ec = FastExpectedJoinCost(m, a, b, ctx_.memory);
        double naive_ec = ExpectedJoinCost(ctx_.model, m, a, b, ctx_.memory,
                                           /*left_sorted=*/false,
                                           /*right_sorted=*/false);
        Expect(ApproxEqual(fast_ec, naive_ec, kKernelParityRelTol),
               "I7:fast_ec_naive_parity",
               FormatMismatch("fast-EC kernel vs naive enumeration", fast_ec,
                              naive_ec));
        if (Stop()) return;
      }
    }
    if (Stop()) return;
    // (c) SIMD dispatch: the whole lec_static DP at the ambient SIMD level
    // against the same DP pinned to the scalar twins. Objectives agree
    // within the documented reassociation tolerance (dist/simd.h: Sum/Dot
    // fold lanes in a different order). Plans are deliberately NOT
    // compared: a true near-tie may legitimately resolve differently
    // across summation orders. Trivially green on scalar-only hosts.
    {
      OptimizeResult vec =
          OptimizeLecStatic(w.query, w.catalog, ctx_.model, ctx_.memory);
      OptimizeResult scal;
      {
        simd::ScopedLevel pin(simd::Level::kScalar);
        scal = OptimizeLecStatic(w.query, w.catalog, ctx_.model, ctx_.memory);
      }
      Expect(ApproxEqual(vec.objective, scal.objective, kKernelParityRelTol),
             "I7:simd_scalar_parity",
             FormatMismatch("lec_static SIMD vs scalar objective",
                            vec.objective, scal.objective));
    }
  }

  void CheckDpPruning() {
    if (Stop()) return;
    const Workload& w = ctx_.workload;
    // I9: cost-bounded pruning must be invisible in everything but the
    // work counters — bit-identical objective, structurally identical
    // plan, and no more candidates/evaluations than the unpruned run (per
    // phase, not just in aggregate).
    OptimizerOptions off_opts;
    off_opts.dp_pruning = DpPruning::kOff;
    OptimizerOptions on_opts;
    on_opts.dp_pruning = DpPruning::kOn;
    DpContext off_ctx(w.query, w.catalog, off_opts);
    DpContext on_ctx(w.query, w.catalog, on_opts);
    auto check = [&](const char* id, const auto& provider) {
      OptimizeResult off = RunDp(off_ctx, provider);
      OptimizeResult on = RunDp(on_ctx, provider);
      Expect(on.objective == off.objective, id,
             FormatMismatch("pruned vs unpruned objective", on.objective,
                            off.objective));
      Expect(PlanEquals(on.plan, off.plan), id,
             "pruned DP chose a different plan");
      bool counters_ok =
          on.candidates_considered <= off.candidates_considered &&
          on.cost_evaluations <= off.cost_evaluations &&
          off.pruned_expansions == 0 && off.pruned_candidates == 0 &&
          off.pruned_entries == 0 && off.incumbent_cost_evaluations == 0 &&
          on.candidates_by_phase.size() == off.candidates_by_phase.size();
      if (counters_ok) {
        for (size_t i = 0; i < on.candidates_by_phase.size(); ++i) {
          counters_ok = counters_ok && on.candidates_by_phase[i] <=
                                           off.candidates_by_phase[i];
        }
      }
      Expect(counters_ok, id, "pruning counter accounting is inconsistent");
    };
    check("I9:dp_pruning_lsc",
          LscCostProvider{ctx_.model, ctx_.memory.Mean()});
    if (Stop()) return;
    check("I9:dp_pruning_lec_static",
          LecStaticCostProvider{ctx_.model, ctx_.memory});
    if (Stop()) return;
    {
      // LEC-dynamic's memory-free floors are loose and default-off; kOn
      // forces them, which is exactly the leg that certifies they are
      // still admissible.
      int phases = std::max(w.query.num_tables() - 1, 1);
      std::vector<Distribution> marginals;
      marginals.reserve(static_cast<size_t>(phases));
      Distribution cur = ctx_.memory;
      for (int t = 0; t < phases; ++t) {
        marginals.push_back(cur);
        cur = ctx_.chain.Step(cur);
      }
      check("I9:dp_pruning_lec_dynamic",
            LecDynamicCostProvider{ctx_.model, marginals});
    }
  }

  void CheckSerdeCacheParity() {
    if (Stop()) return;
    const Workload& w = ctx_.workload;
    // Rotate the strategy and the encoding across rounds so the whole
    // request schema and both wire framings get coverage.
    StrategyId id = std::array{StrategyId::kLsc, StrategyId::kLecStatic,
                               StrategyId::kAlgorithmD}[case_.seed % 3];
    serde::Encoding enc = case_.seed % 2 == 0 ? serde::Encoding::kText
                                              : serde::Encoding::kBinary;
    Optimizer facade;
    OptimizeRequest req;
    req.query = &w.query;
    req.catalog = &w.catalog;
    req.model = &ctx_.model;
    req.memory = &ctx_.memory;
    OptimizeResult direct = facade.Optimize(id, req);

    // (a) serialize -> deserialize -> optimize ≡ optimize. The replay runs
    // on the reconstructed workload and memory, so any bit the wire format
    // loses would shift the objective or the plan.
    {
      serde::ServeRequest sreq;
      sreq.strategy = std::string(StrategyName(id));
      sreq.workload = w;
      sreq.memory = ctx_.memory;
      serde::ServeRequest back =
          serde::FromString<serde::ServeRequest>(serde::ToString(sreq, enc));
      OptimizeRequest replay_req = req;
      replay_req.query = &back.workload.query;
      replay_req.catalog = &back.workload.catalog;
      replay_req.memory = &back.memory;
      OptimizeResult replay = facade.Optimize(id, replay_req);
      Expect(replay.objective == direct.objective &&
                 PlanEquals(replay.plan, direct.plan) &&
                 replay.cost_evaluations == direct.cost_evaluations,
             "I8:serde_replay_parity",
             FormatMismatch("optimize after serde round trip vs direct",
                            replay.objective, direct.objective));
    }
    if (Stop()) return;

    // (b) plan cache on/off parity: the miss that fills the cache and the
    // hit that serves from it must both equal the uncached run, bit for
    // bit (elapsed_seconds excepted by contract).
    {
      PlanCache cache;
      OptimizeRequest cached_req = req;
      cached_req.options.plan_cache = &cache;
      OptimizeResult miss = facade.Optimize(id, cached_req);
      OptimizeResult hit = facade.Optimize(id, cached_req);
      Expect(miss.objective == direct.objective &&
                 hit.objective == direct.objective &&
                 PlanEquals(miss.plan, direct.plan) &&
                 PlanEquals(hit.plan, direct.plan) &&
                 hit.cost_evaluations == direct.cost_evaluations,
             "I8:cache_hit_parity",
             FormatMismatch("plan-cache hit vs uncached objective",
                            hit.objective, direct.objective));
      Expect(cache.stats().hits == 1 && cache.stats().misses == 1,
             "I8:cache_stats",
             "plan cache did not record exactly one miss then one hit");
      if (Stop()) return;

      // (c) snapshot round trip: a restarted service warm-loading the
      // snapshot serves the same bits without recomputing.
      PlanCache warmed;
      warmed.LoadSnapshot(cache.SaveSnapshot(enc));
      OptimizeRequest warmed_req = req;
      warmed_req.options.plan_cache = &warmed;
      OptimizeResult served = facade.Optimize(id, warmed_req);
      Expect(served.objective == direct.objective &&
                 PlanEquals(served.plan, direct.plan) &&
                 warmed.stats().hits == 1,
             "I8:snapshot_parity",
             FormatMismatch("snapshot-served vs uncached objective",
                            served.objective, direct.objective));
    }
    if (Stop()) return;

    // (d) The request memo, with rewrite_mode on: the case (given a filter
    // if it has none) is served through one cache, then served again (a
    // memo hit), relabeled (a new raw request: canonical hit or miss,
    // never the memo), and as a twin with one filter perturbed (a
    // different raw request). Each must equal its uncached recompute, down
    // to the rewrite's position map.
    {
      Workload base = w;
      if (base.query.num_filters() == 0) base.query.AddFilter(0, 0.5);
      std::vector<int> reverse(static_cast<size_t>(w.query.num_tables()));
      for (size_t p = 0; p < reverse.size(); ++p) {
        reverse[p] = static_cast<int>(reverse.size() - 1 - p);
      }
      Workload relabeled = Relabeled(base, reverse);
      Workload perturbed = base;
      perturbed.query = Query();
      for (QueryPos p = 0; p < base.query.num_tables(); ++p) {
        perturbed.query.AddTable(base.query.table(p));
      }
      for (const JoinPredicate& p : base.query.predicates()) {
        perturbed.query.AddPredicate(p.left, p.right, p.selectivity);
      }
      for (int i = 0; i < base.query.num_filters(); ++i) {
        const FilterPredicate& f = base.query.filter(i);
        perturbed.query.AddFilter(
            f.table, i == 0 ? Distribution::PointMass(
                                  f.selectivity.Mean() * 0.25)
                            : f.selectivity);
      }
      if (base.query.required_order()) {
        perturbed.query.RequireOrder(*base.query.required_order());
      }

      PlanCache cache;
      auto serve = [&](const Workload& x, PlanCache* c) {
        OptimizeRequest r = req;
        r.query = &x.query;
        r.catalog = &x.catalog;
        r.options.rewrite_mode = RewriteMode::kOn;
        r.options.plan_cache = c;
        return facade.Optimize(id, r);
      };
      auto same = [](const OptimizeResult& a, const OptimizeResult& b) {
        return a.objective == b.objective && PlanEquals(a.plan, b.plan) &&
               a.cost_evaluations == b.cost_evaluations &&
               a.candidates_considered == b.candidates_considered &&
               a.rewrite != nullptr && b.rewrite != nullptr &&
               a.rewrite->position_map == b.rewrite->position_map &&
               a.rewrite->total_applied() == b.rewrite->total_applied();
      };
      OptimizeResult fresh = serve(base, nullptr);
      bool ok = same(serve(base, &cache), fresh);
      OptimizeResult memo = serve(base, &cache);
      ok = ok && same(memo, fresh) && cache.stats().rewrites_skipped == 1;
      OptimizeResult moved = serve(relabeled, &cache);
      ok = ok && same(moved, serve(relabeled, nullptr));
      OptimizeResult twin = serve(perturbed, &cache);
      OptimizeResult twin_fresh = serve(perturbed, nullptr);
      ok = ok && same(twin, twin_fresh);
      PlanCache::Stats stats = cache.stats();
      ok = ok && stats.rewrites_skipped == 1 && stats.lookups() == 4;
      Expect(ok, "I8:cache_hit_parity",
             FormatMismatch("request memo: filter-twin serve vs uncached",
                            twin.objective, twin_fresh.objective));
    }
  }

  void CheckServePipeline() {
    if (Stop()) return;
    // Rotate the strategy, the worker count and the wire encoding by seed
    // so the catalog covers the pipeline's whole configuration lattice
    // over a fuzz run.
    StrategyId id = std::array{StrategyId::kLsc, StrategyId::kLecStatic,
                               StrategyId::kAlgorithmD}[case_.seed % 3];
    int workers = std::array{1, 2, 4}[(case_.seed / 3) % 3];
    serde::Encoding enc = case_.seed % 2 == 0 ? serde::Encoding::kText
                                              : serde::Encoding::kBinary;

    // A duplicate-bearing two-request corpus: this case's workload plus a
    // sibling, each submitted three times.
    FuzzCase sibling = case_;
    sibling.seed = case_.seed + 1;
    CaseContext sib_ctx = BuildContext(sibling);
    std::array<serde::ServeRequest, 2> corpus;
    corpus[0].strategy = std::string(StrategyName(id));
    corpus[0].workload = ctx_.workload;
    corpus[0].memory = ctx_.memory;
    corpus[0].seed = case_.seed;
    corpus[1] = corpus[0];
    corpus[1].workload = sib_ctx.workload;
    corpus[1].seed = sibling.seed;

    // Sequential ground truth through a plain facade, with the same field
    // mapping the pipeline applies (no caches attached).
    Optimizer facade;
    auto reference = [&](const serde::ServeRequest& r, StrategyId strat) {
      OptimizeRequest req;
      req.query = &r.workload.query;
      req.catalog = &r.workload.catalog;
      req.model = &ctx_.model;
      req.memory = &r.memory;
      req.options = r.options;
      req.lsc_estimate = r.lsc_estimate;
      req.top_c = r.top_c;
      req.seed = r.seed;
      req.randomized_restarts = r.randomized_restarts;
      req.randomized_patience = r.randomized_patience;
      req.sample_predicate = r.sample_predicate;
      return facade.Optimize(strat, req);
    };
    std::array<OptimizeResult, 2> expected = {reference(corpus[0], id),
                                              reference(corpus[1], id)};
    auto bit_equal = [](const OptimizeResult& a, const OptimizeResult& b) {
      return a.objective == b.objective && PlanEquals(a.plan, b.plan) &&
             a.cost_evaluations == b.cost_evaluations &&
             a.candidates_considered == b.candidates_considered &&
             a.candidates_by_phase == b.candidates_by_phase;
    };

    // (a) Concurrent serving with coalescing, duplicates and a shared
    // plan cache ≡ the sequential facade, bit for bit, at any worker
    // count. Only elapsed_seconds and the outcome markers may differ.
    {
      PlanCache cache;
      ServePipeline::Options popts;
      popts.workers = workers;
      popts.plan_cache = &cache;
      popts.model = &ctx_.model;
      ServePipeline pipeline(popts);
      std::vector<ServeTicket> tickets;
      for (int round = 0; round < 3; ++round) {
        for (const serde::ServeRequest& r : corpus) {
          tickets.push_back(pipeline.Submit(r));
        }
      }
      bool all_ok = true, bits_ok = true;
      for (size_t i = 0; i < tickets.size(); ++i) {
        const ServeOutcome& out = tickets[i].Wait();
        all_ok &= out.status == ServeStatus::kOk && !out.degraded;
        if (out.status == ServeStatus::kOk) {
          bits_ok &= bit_equal(out.result, expected[i % 2]);
        }
      }
      Expect(all_ok && bits_ok, "I10:pipeline_parity",
             "coalesced pipeline outcome differs from sequential facade "
             "(workers=" + std::to_string(workers) + ")");
      ServePipeline::Stats stats = pipeline.stats();
      Expect(stats.submitted == tickets.size() &&
                 stats.served == tickets.size() &&
                 stats.computed + stats.coalesced == stats.submitted &&
                 stats.rejected == 0 && stats.errors == 0,
             "I10:pipeline_stats",
             "stats do not conserve submissions: submitted=" +
                 std::to_string(stats.submitted) + " served=" +
                 std::to_string(stats.served) + " computed=" +
                 std::to_string(stats.computed) + " coalesced=" +
                 std::to_string(stats.coalesced));
    }
    if (Stop()) return;

    // (b) The zero-budget leg degrades every serve, and a degraded result
    // is exactly a facade run of the fallback strategy.
    {
      ServePipeline::Options popts;
      popts.workers = workers;
      popts.model = &ctx_.model;
      ServePipeline pipeline(popts);
      ServeOutcome out = pipeline.Submit(corpus[0], 0.0).Wait();
      OptimizeResult fallback =
          reference(corpus[0], popts.fallback_strategy);
      Expect(out.status == ServeStatus::kOk && out.degraded &&
                 bit_equal(out.result, fallback),
             "I10:degraded_parity",
             "zero-budget serve is not a bit-identical fallback run");
    }
    if (Stop()) return;

    // (c) Wire framing: the codec round-trips the request canonically,
    // and one real socket serve returns the reference bits.
    {
      std::string payload = EncodeWireRequest(corpus[0], 0.25, enc);
      WireRequest back = DecodeWireRequest(payload);
      Expect(back.encoding == enc &&
                 back.deadline_budget_seconds == 0.25 &&
                 serde::ToString(back.request) == serde::ToString(corpus[0]),
             "I10:wire_codec_roundtrip",
             "wire request does not round-trip canonically");

      ServePipeline::Options popts;
      popts.workers = workers;
      popts.model = &ctx_.model;
      ServePipeline pipeline(popts);
      WireServer server(&pipeline, WireServer::Options{});
      WireClient client(server.port());
      WireResponse response = client.Call(
          corpus[1], std::numeric_limits<double>::infinity(), enc);
      Expect(response.status == ServeStatus::kOk && !response.degraded &&
                 response.result.has_value() &&
                 bit_equal(*response.result, expected[1]),
             "I10:socket_serve_parity",
             "socket round trip differs from sequential facade");
    }
  }

  void CheckMeasuredStats() {
    if (Stop()) return;
    // (a) Materialize a scaled-down instance of this case's workload,
    // sketch the real rows, and hold every derived Distribution to the
    // documented CI bounds against exact ground truth (src/stats/
    // table_stats.h): derived size mean within sigma·1.04/sqrt(m) of the
    // true page count; derived selectivity mean never below the true
    // selectivity (CMS overestimates only) and at most the one-sided CMS
    // CI plus the one-match floor above it.
    stats::MeasureOptions mopts;
    mopts.max_pages = 12;
    Rng rng(case_.seed ^ 0x517cc1b727220a95ULL);
    stats::MeasuredWorkload mw =
        stats::MaterializeAndMeasure(ctx_.workload, mopts, &rng);
    const Query& mq = mw.workload.query;

    bool dists_valid = true;
    std::string invalid_detail;
    auto check_valid = [&](const Distribution& d, const char* what) {
      DistView v = d.AsView();
      double mass = 0;
      bool positive = d.Min() > 0;
      for (size_t i = 0; i < v.n; ++i) mass += v.probs[i];
      if (!(v.n >= 1 && positive && std::abs(mass - 1.0) <= 1e-9)) {
        dists_valid = false;
        invalid_detail = std::string(what) + " is not a valid positive " +
                         "normalized distribution";
      }
    };

    bool sizes_ok = true;
    std::string size_detail;
    for (QueryPos p = 0; p < mq.num_tables(); ++p) {
      const Table& t = mw.workload.catalog.table(mq.table(p));
      Distribution size = t.SizeDistribution();
      check_valid(size, "derived size distribution");
      double true_pages = static_cast<double>(mw.truth[p].rows) /
                          static_cast<double>(kTuplesPerPage);
      double bound = mopts.derive.sigma *
                     mw.sketches[p].row_distinct().relative_error();
      if (std::abs(size.Mean() - true_pages) > bound * true_pages + 1e-9) {
        sizes_ok = false;
        size_detail = FormatMismatch("derived size mean (pages)",
                                     size.Mean(), true_pages);
      }
    }
    Expect(sizes_ok, "I11:size_moment", size_detail);

    bool sels_ok = true;
    std::string sel_detail;
    for (int i = 0; i < mq.num_predicates(); ++i) {
      const JoinPredicate& pred = mq.predicate(i);
      check_valid(pred.selectivity, "derived selectivity distribution");
      double true_sel = mw.true_selectivity[i];
      double est = pred.selectivity.Mean();
      double rows_l = static_cast<double>(mw.truth[pred.left].rows);
      double rows_r = static_cast<double>(mw.truth[pred.right].rows);
      double floor_sel =
          static_cast<double>(kTuplesPerPage) / (rows_l * rows_r);
      double ci = mopts.derive.sigma *
                  mw.sketches[pred.left].column(mw.pred_cols[i][0]).epsilon() *
                  static_cast<double>(kTuplesPerPage);
      bool lower_ok = est >= true_sel * (1 - 1e-9);
      bool upper_ok = est <= true_sel + ci + floor_sel + 1e-12;
      if (!lower_ok || !upper_ok) {
        sels_ok = false;
        sel_detail = FormatMismatch(
            lower_ok ? "derived selectivity above one-sided CI"
                     : "derived selectivity below ground truth (CMS must "
                       "overestimate)",
            est, true_sel);
      }
    }
    Expect(sels_ok, "I11:selectivity_ci", sel_detail);
    Expect(dists_valid, "I11:derived_valid", invalid_detail);

    // Derivation is a pure function of sketch state: re-deriving must
    // reproduce byte-identical distributions (same ContentHash).
    Expect(stats::DeriveSizeDistribution(mw.sketches[0], mopts.derive)
                   .ContentHash() ==
               stats::DeriveSizeDistribution(mw.sketches[0], mopts.derive)
                   .ContentHash(),
           "I11:derive_deterministic",
           "re-deriving the same sketch produced different bytes");
    if (Stop()) return;

    // (b) Precise invalidation: cache three entries (this measured
    // workload, a sibling's, and the hand-authored one), drift one
    // relation, invalidate exactly the replaced ContentHashes, and check
    // that every entry consuming a stale hash is dropped while every
    // survivor still replays bit-identical to a fresh optimize.
    FuzzCase sibling = case_;
    sibling.seed = case_.seed + 1;
    CaseContext sib_ctx = BuildContext(sibling);
    Rng sib_rng(sibling.seed ^ 0x517cc1b727220a95ULL);
    stats::MeasuredWorkload sib_mw =
        stats::MaterializeAndMeasure(sib_ctx.workload, mopts, &sib_rng);

    // The pre-drift workloads are what stale clients keep submitting.
    std::array<Workload, 3> pre = {mw.workload, sib_mw.workload,
                                   ctx_.workload};

    PlanCache cache;
    Optimizer facade;
    auto cached_opt = [&](const Workload& w) {
      OptimizeRequest req;
      req.query = &w.query;
      req.catalog = &w.catalog;
      req.model = &ctx_.model;
      req.memory = &ctx_.memory;
      req.options.plan_cache = &cache;
      return facade.Optimize(StrategyId::kLecStatic, req);
    };
    auto uncached_opt = [&](const Workload& w) {
      OptimizeRequest req;
      req.query = &w.query;
      req.catalog = &w.catalog;
      req.model = &ctx_.model;
      req.memory = &ctx_.memory;
      return facade.Optimize(StrategyId::kLecStatic, req);
    };
    auto bit_equal = [](const OptimizeResult& a, const OptimizeResult& b) {
      return a.objective == b.objective && PlanEquals(a.plan, b.plan) &&
             a.cost_evaluations == b.cost_evaluations;
    };
    for (const Workload& w : pre) cached_opt(w);

    stats::DriftReport drift = stats::DriftTable(&mw, 0, 2.0, mopts, &rng);
    if (!Expect(!drift.stale_hashes.empty(), "I11:drift_changes_stats",
                "doubling a relation left every derived hash unchanged")) {
      return;
    }
    std::unordered_set<uint64_t> stale(drift.stale_hashes.begin(),
                                       drift.stale_hashes.end());
    // Which cached entries consumed a stale distribution? Identical
    // content means identical ContentHash, so two workloads can
    // legitimately share a distribution — membership is decided by
    // content, not by which workload the drift targeted.
    auto consumes_stale = [&](const Workload& w) {
      for (QueryPos p = 0; p < w.query.num_tables(); ++p) {
        if (stale.count(w.catalog.table(w.query.table(p))
                            .SizeDistribution()
                            .ContentHash())) {
          return true;
        }
      }
      for (const JoinPredicate& pred : w.query.predicates()) {
        if (stale.count(pred.selectivity.ContentHash())) return true;
      }
      return false;
    };
    size_t expect_dropped = 0;
    for (const Workload& w : pre) {
      if (consumes_stale(w)) ++expect_dropped;
    }

    size_t dropped = 0;
    for (uint64_t h : drift.stale_hashes) {
      dropped += cache.InvalidateDistribution(h);
    }
    Expect(dropped == expect_dropped &&
               cache.stats().invalidated == expect_dropped &&
               expect_dropped >= 1,
           "I11:precise_drop_count",
           "InvalidateDistribution dropped " + std::to_string(dropped) +
               " entries, expected " + std::to_string(expect_dropped));

    // Affected entries must now recompute (miss); survivors must hit, and
    // every post-invalidation serve must be bit-identical to a fresh
    // uncached optimize.
    bool replay_ok = true;
    std::string replay_detail;
    for (const Workload& w : pre) {
      PlanCache::Stats before = cache.stats();
      OptimizeResult served = cached_opt(w);
      PlanCache::Stats after = cache.stats();
      bool expect_hit = !consumes_stale(w);
      bool hit = after.hits == before.hits + 1;
      if (hit != expect_hit || !bit_equal(served, uncached_opt(w))) {
        replay_ok = false;
        replay_detail = std::string(expect_hit
                                        ? "surviving entry missed or served "
                                          "non-identical bits"
                                        : "stale entry still served a hit");
      }
    }
    Expect(replay_ok, "I11:post_invalidation_replay", replay_detail);
  }

  void CheckPlanExecution() {
    if (Stop()) return;
    // Chain queries are the executor's scope (two join-key columns route
    // exactly a chain); the schedule rotates shapes, so ~1/5 of rounds
    // exercise I12.
    if (case_.shape != JoinGraphShape::kChain) return;
    const Workload& w = ctx_.workload;
    int n = w.query.num_tables();

    // Scaled-down executable mirror of the case's chain, the I11 idiom:
    // catalog sizes map to ~log2(pages) materialized pages, selectivities
    // re-draw log-uniformly high enough to produce matches at this scale.
    Rng rng(case_.seed ^ 0x12c8f2d1b0b3a845ULL);
    Catalog catalog;
    Query query;
    for (QueryPos p = 0; p < n; ++p) {
      double orig = w.catalog.table(w.query.table(p)).pages;
      double pages = std::clamp(std::round(std::log2(orig + 1.0)), 3.0, 12.0);
      // Two steps, not operator+: GCC 12's -Wrestrict false-fires on it.
      std::string name = "x";
      name += std::to_string(p);
      query.AddTable(catalog.AddTable(name, pages));
    }
    for (int i = 0; i + 1 < n; ++i) {
      query.AddPredicate(i, i + 1, rng.LogUniform(1e-2, 0.05));
    }
    EngineWorkload data = BuildChainEngineWorkload(query, catalog, &rng);
    std::vector<int64_t> want = PayloadMultiset(NaiveChainCompose(data));

    // (a) The LSC DP's chosen plan — whatever order it picks — must
    // reproduce the reference answer exactly.
    DpContext dp_ctx(query, catalog, OptimizerOptions{});
    OptimizeResult chosen = RunDp(dp_ctx, LscCostProvider{ctx_.model, 9.0});
    ExecutePlanOptions opts;
    opts.memory_by_phase = {9.0};
    ExecutionResult r = ExecutePlan(chosen.plan, query, data, opts);
    Expect(PayloadMultiset(r.result) == want && r.total_io() > 0,
           "I12:dp_plan_multiset",
           "executing the LSC-chosen plan diverged from the naive reference");
    if (Stop()) return;

    // (b) Every engine join method, across memory values straddling the
    // spill thresholds, on the forward plan.
    bool methods_ok = true;
    std::string method_detail;
    for (JoinMethod m : kAllJoinMethods) {
      for (double memory : {3.0, 5.0, 33.0}) {
        PlanPtr plan = StaleForwardChainPlan(n, m);
        ExecutePlanOptions mo;
        mo.memory_by_phase = {memory};
        ExecutionResult mr = ExecutePlan(plan, query, data, mo);
        uint64_t traced = 0;
        for (const PhaseTrace& t : mr.phases) {
          traced += t.page_reads + t.page_writes;
        }
        if (PayloadMultiset(mr.result) != want || traced != mr.total_io()) {
          methods_ok = false;
          method_detail = std::string(ToString(m)) + " at M=" +
                          std::to_string(memory) +
                          " diverged from the naive reference or its traces";
        }
      }
    }
    Expect(methods_ok, "I12:method_multisets", method_detail);
    if (Stop()) return;

    // (c) Adaptive leg: stale estimates + zero drift threshold force
    // mid-flight re-optimization after every phase that leaves work, and
    // the answer must still be bit-for-bit the same multiset.
    PlanPtr stale = StaleForwardChainPlan(n, JoinMethod::kGraceHash);
    ExecutePlanOptions ao;
    ao.memory_by_phase = {5.0, 9.0, 3.0, 16.0};
    ao.drift_threshold = 0.0;
    ao.reoptimize_on_drift = true;
    ao.max_reoptimizations = n;
    ao.model = &ctx_.model;
    ExecutionResult ar = ExecutePlan(stale, query, data, ao);
    int joins = 0;
    for (const PhaseTrace& t : ar.phases) joins += t.is_sort ? 0 : 1;
    bool adaptive_ok = PayloadMultiset(ar.result) == want && joins == n - 1 &&
                       (n < 3 || ar.reoptimizations > 0);
    Expect(adaptive_ok, "I12:adaptive_execution",
           adaptive_ok ? ""
                       : FormatMismatch("re-optimized execution (joins, "
                                        "reopts)",
                                        static_cast<double>(joins),
                                        static_cast<double>(n - 1)));
    // Re-optimization may reroute the tail, but it can never lose or
    // duplicate result rows — that is the invariant here; whether it also
    // SAVES I/O is benchmarked (E23), not asserted per round.
  }

  void CheckRewrite() {
    if (Stop()) return;
    // The I13 world: this case's options plus the structure knobs the
    // rewrite passes consume (parallel redundant edges, per-table filters,
    // optionally a disconnected graph), all derived from the seed so
    // verify_repro rebuilds the identical workload. Capped at 6 tables:
    // this check runs six exhaustive oracle solves per round.
    WorkloadOptions wopts;
    wopts.num_tables = std::min(case_.num_tables, 6);
    wopts.shape = case_.shape;
    wopts.selectivity_spread = case_.selectivity_spread;
    wopts.table_size_spread = case_.table_size_spread;
    wopts.order_by_probability = case_.order_by ? 1.0 : 0.0;
    if (case_.shape == JoinGraphShape::kRandom) {
      wopts.extra_edges = static_cast<int>(case_.seed % 3);
    }
    wopts.redundant_edge_probability = 0.25 + 0.5 * ((case_.seed >> 2) % 2);
    wopts.filter_probability = 0.5;
    if (wopts.num_tables >= 4 && case_.seed % 3 == 0) {
      wopts.num_components = 2;  // disconnected leg for cross_product pass
    }
    Rng rng(case_.seed ^ 0x9e3779b97f4a7c15ULL);
    Workload w = GenerateWorkload(wopts, &rng);

    // (a) Optimum preservation: each pass alone, and the standard pipeline,
    // may never increase the exhaustive oracle's optimum. Push-down shrinks
    // inputs, redundant merge conserves the combined selectivity the DP
    // applied anyway, derived sel-1 edges only widen the admissible plan
    // space, canonicalization is a pure relabeling.
    OracleOptions oopts;
    oopts.objective = OracleObjective::kLecStatic;
    oopts.collect_spectrum = false;
    OracleResult raw =
        SolveOracle(w.query, w.catalog, ctx_.model, ctx_.memory, oopts);
    auto check_leg = [&](const char* id, rewrite::PassManager mgr) {
      rewrite::RewriteOutcome out = mgr.Run(w.query, w.catalog);
      OracleResult rw =
          SolveOracle(out.query, out.catalog, ctx_.model, ctx_.memory, oopts);
      Expect(NoBetterThan(raw.best_objective, rw.best_objective),
             id,
             FormatMismatch("rewritten oracle optimum vs raw optimum",
                            rw.best_objective, raw.best_objective));
    };
    {
      rewrite::PassManager m1, m2, m3, m4;
      m1.Add(rewrite::MakeSelectionPushdownPass());
      m2.Add(rewrite::MakeRedundantPredicatePass());
      m3.Add(rewrite::MakeCrossProductAvoidancePass());
      m4.Add(rewrite::MakeCanonicalizationPass());
      check_leg("I13:pushdown_oracle", std::move(m1));
      if (Stop()) return;
      check_leg("I13:redundant_oracle", std::move(m2));
      if (Stop()) return;
      check_leg("I13:crossproduct_oracle", std::move(m3));
      if (Stop()) return;
      check_leg("I13:canonicalize_oracle", std::move(m4));
      if (Stop()) return;
      check_leg("I13:pipeline_oracle", rewrite::StandardPassManager());
      if (Stop()) return;
    }

    // (b) Answer preservation, executed for real (chain cases — the
    // executor's scope): the DP plan of the redundant-merged query and the
    // DP plan of the raw duplicate-edge query both reproduce the naive
    // reference answer as an exact payload multiset on the SAME physical
    // data. (Canonical permutations and filters are outside the chain
    // executor's reach; their answer contracts are certified analytically
    // in (a) and structurally in (c).)
    if (case_.shape == JoinGraphShape::kChain) {
      int n = ctx_.workload.query.num_tables();
      Rng brng(case_.seed ^ 0x5bd1e995c6b3a1f7ULL);
      Catalog catalog;
      Query raw_q;
      for (QueryPos p = 0; p < n; ++p) {
        double orig =
            ctx_.workload.catalog.table(ctx_.workload.query.table(p)).pages;
        double pages =
            std::clamp(std::round(std::log2(orig + 1.0)), 3.0, 12.0);
        std::string name = "r";
        name += std::to_string(p);
        raw_q.AddTable(catalog.AddTable(name, pages));
      }
      int dup = static_cast<int>(brng.UniformInt(0, n - 2));
      for (int i = 0; i + 1 < n; ++i) {
        if (i == dup) {
          // Mild parallel pair: the merged product stays executable at
          // this scale (I12 draws a single edge from [1e-2, 0.05]).
          raw_q.AddPredicate(i, i + 1, brng.LogUniform(0.1, 0.3));
          raw_q.AddPredicate(i, i + 1, brng.LogUniform(0.1, 0.3));
        } else {
          raw_q.AddPredicate(i, i + 1, brng.LogUniform(1e-2, 0.05));
        }
      }
      rewrite::PassManager merge_mgr;
      merge_mgr.Add(rewrite::MakeRedundantPredicatePass());
      rewrite::RewriteOutcome out = merge_mgr.Run(raw_q, catalog);
      Expect(out.query.num_predicates() == n - 1 &&
                 out.total_applied() == 1 && out.reached_fixed_point,
             "I13:redundant_merge_shape",
             "merging one duplicate edge should leave a strict chain in "
             "one application");
      if (Stop()) return;

      EngineWorkload data =
          BuildChainEngineWorkload(out.query, out.catalog, &brng);
      std::vector<int64_t> want = PayloadMultiset(NaiveChainCompose(data));
      ExecutePlanOptions eo;
      eo.memory_by_phase = {9.0};

      DpContext rw_ctx(out.query, out.catalog, OptimizerOptions{});
      OptimizeResult rw_best = RunDp(rw_ctx, LscCostProvider{ctx_.model, 9.0});
      ExecutionResult rw_run = ExecutePlan(rw_best.plan, out.query, data, eo);

      DpContext raw_ctx(raw_q, catalog, OptimizerOptions{});
      OptimizeResult raw_best =
          RunDp(raw_ctx, LscCostProvider{ctx_.model, 9.0});
      ExecutionResult raw_run = ExecutePlan(raw_best.plan, raw_q, data, eo);

      Expect(PayloadMultiset(rw_run.result) == want &&
                 PayloadMultiset(raw_run.result) == want,
             "I13:answer_multiset",
             "rewritten-plan execution diverged from the raw plan's naive "
             "reference answer");
      if (Stop()) return;
    }

    // (c) Canonicalized cache sharing through the facade: a relabeled
    // duplicate with rewrite_mode on must replay bit-identical to an
    // uncached rewrite-on optimize, and must HIT the original's entry
    // whenever the canonical position keys are pairwise distinct (ties
    // degrade to a miss, never to wrong bits).
    {
      int n = w.query.num_tables();
      std::vector<int> perm(static_cast<size_t>(n));
      for (int p = 0; p < n; ++p) perm[static_cast<size_t>(p)] = p;
      for (int p = n - 1; p > 0; --p) {
        std::swap(perm[static_cast<size_t>(p)],
                  perm[static_cast<size_t>(rng.UniformInt(0, p))]);
      }
      Workload twin = Relabeled(w, perm);

      Optimizer facade;
      OptimizeRequest req;
      req.query = &w.query;
      req.catalog = &w.catalog;
      req.model = &ctx_.model;
      req.memory = &ctx_.memory;
      req.options.rewrite_mode = RewriteMode::kOn;
      OptimizeRequest twin_req = req;
      twin_req.query = &twin.query;
      twin_req.catalog = &twin.catalog;
      OptimizeResult base = facade.Optimize(StrategyId::kLecStatic, req);
      OptimizeResult twin_base =
          facade.Optimize(StrategyId::kLecStatic, twin_req);

      PlanCache cache;
      OptimizeRequest c1 = req, c2 = twin_req;
      c1.options.plan_cache = &cache;
      c2.options.plan_cache = &cache;
      OptimizeResult r1 = facade.Optimize(StrategyId::kLecStatic, c1);
      OptimizeResult r2 = facade.Optimize(StrategyId::kLecStatic, c2);
      auto bits = [](const OptimizeResult& a, const OptimizeResult& b) {
        return a.objective == b.objective && PlanEquals(a.plan, b.plan) &&
               a.cost_evaluations == b.cost_evaluations;
      };
      Expect(bits(r1, base) && bits(r2, twin_base),
             "I13:rewrite_cache_recompute_parity",
             FormatMismatch("cached rewrite-on serve vs uncached",
                            r2.objective, twin_base.objective));
      if (Stop()) return;

      rewrite::RewriteOutcome canon =
          rewrite::StandardPassManager().Run(w.query, w.catalog);
      std::vector<uint64_t> keys =
          rewrite::CanonicalPositionKeys(canon.query, canon.catalog);
      std::vector<uint64_t> sorted_keys = keys;
      std::sort(sorted_keys.begin(), sorted_keys.end());
      bool distinct = std::adjacent_find(sorted_keys.begin(),
                                         sorted_keys.end()) ==
                      sorted_keys.end();
      if (distinct) {
        Expect(cache.stats().hits == 1 && bits(r2, r1),
               "I13:canonical_cache_hit",
               "relabeled duplicate with distinct canonical keys missed "
               "the cache or served different bits (hits=" +
                   std::to_string(cache.stats().hits) + ")");
      }
    }
  }

  void CheckMonteCarlo() {
    if (Stop()) return;
    const Workload& w = ctx_.workload;
    PlanPtr plan = LecStatic().plan;
    // The shared gate policy (CheckPlanEcWithEscalation): strict coverage
    // first, 16x resample on a miss, violation only when the escalated run
    // still misses AND deviates materially — skewed cost distributions
    // under-cover at small N, and thousands of nightly rounds would
    // otherwise false-alarm on pure chance. The strict Covers() contract
    // is exercised deterministically in tests/verify_mc_test.cc.
    auto check_regime = [&](const char* id, const MarkovChain* chain) {
      McOptions mc;
      mc.samples = options_.mc_samples;
      mc.confidence = 0.999;
      mc.seed = case_.seed ^ 0x6d63736565640a21ULL;
      mc.chain = chain;
      EscalatedCheck check = CheckPlanEcWithEscalation(
          plan, w.query, w.catalog, ctx_.model, ctx_.memory, mc);
      Expect(check.ok, id,
             FormatMismatch("MC mean vs analytic EC (post-escalation)",
                            check.ci.empirical_mean, check.ci.analytic_ec));
    };
    check_regime("I6:mc_static", nullptr);
    if (Stop()) return;
    check_regime("I6:mc_dynamic", &ctx_.chain);
  }

  FuzzCase case_;
  const FuzzOptions& options_;
  CaseContext ctx_;
  std::optional<OptimizeResult> lec_static_;
  std::vector<FuzzViolation> violations_;
  size_t checked_ = 0;
};

}  // namespace

MemoryEnvironment MakeMemoryEnvironment(Rng* rng) {
  MemoryEnvironment env;
  size_t buckets = static_cast<size_t>(rng->UniformInt(3, 5));
  std::vector<Bucket> mem;
  for (size_t i = 0; i < buckets; ++i) {
    mem.push_back({rng->LogUniform(16, 4096), rng->Uniform(0.1, 1.0)});
  }
  env.memory = Distribution(std::move(mem));
  std::vector<double> states;
  for (const Bucket& b : env.memory.buckets()) states.push_back(b.value);
  env.chain = MarkovChain::Drift(states, rng->Uniform(0.3, 0.9));
  return env;
}

std::string FuzzCase::Encode() const {
  std::ostringstream os;
  // Max precision: the round-trip contract must survive spreads that are
  // not short decimals (default 6-significant-digit formatting would
  // collapse 1.0000000123 to 1, replaying a different world). Integral
  // spreads still print compactly ("3", not "3.0000000000000000").
  os.precision(17);
  os << "f1:" << NameOf(shape) << ":" << num_tables << ":" << seed << ":"
     << selectivity_spread << ":" << table_size_spread << ":"
     << (order_by ? 1 : 0);
  return os.str();
}

std::optional<FuzzCase> FuzzCase::Decode(std::string_view text) {
  std::string s(text);
  std::istringstream is(s);
  std::string field;
  auto next = [&](std::string* out) {
    return static_cast<bool>(std::getline(is, *out, ':'));
  };
  if (!next(&field) || field != "f1") return std::nullopt;
  FuzzCase c;
  if (!next(&field)) return std::nullopt;
  auto shape = ShapeOf(field);
  if (!shape) return std::nullopt;
  c.shape = *shape;
  // Strict numeric parsing: the std::sto* family accepts trailing junk
  // ("4junk" -> 4) and stoull wraps a leading '-' ("-1" -> 2^64-1), either
  // of which would silently replay a case the caller never named; require
  // every field to be consumed in full and the unsigned field to carry
  // digits only.
  auto digits_only = [](const std::string& s) {
    if (s.empty()) return false;
    for (char ch : s) {
      if (ch < '0' || ch > '9') return false;
    }
    return true;
  };
  try {
    size_t pos = 0;
    if (!next(&field)) return std::nullopt;
    c.num_tables = std::stoi(field, &pos);
    if (pos != field.size()) return std::nullopt;
    if (!next(&field)) return std::nullopt;
    if (!digits_only(field)) return std::nullopt;
    c.seed = std::stoull(field, &pos);
    if (pos != field.size()) return std::nullopt;
    if (!next(&field)) return std::nullopt;
    c.selectivity_spread = std::stod(field, &pos);
    if (pos != field.size()) return std::nullopt;
    if (!next(&field)) return std::nullopt;
    c.table_size_spread = std::stod(field, &pos);
    if (pos != field.size()) return std::nullopt;
    if (!next(&field)) return std::nullopt;
    int order_by = std::stoi(field, &pos);
    if (pos != field.size()) return std::nullopt;
    c.order_by = order_by != 0;
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (next(&field)) return std::nullopt;  // trailing fields
  // 8 is the exhaustive-oracle ceiling (OracleOptions::max_tables): a
  // larger case would abort mid-CheckCase instead of failing decode.
  // Spreads must be finite and >= 1 — std::stod happily parses "nan" and
  // "inf", neither of which any campaign can produce.
  if (c.num_tables < 2 || c.num_tables > 8 ||
      !std::isfinite(c.selectivity_spread) || c.selectivity_spread < 1.0 ||
      !std::isfinite(c.table_size_spread) || c.table_size_spread < 1.0) {
    return std::nullopt;
  }
  return c;
}

namespace {

/// SplitMix64 finalizer: consecutive inputs map to statistically
/// independent outputs.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FuzzCase CaseForRound(uint64_t base_seed, int round) {
  // Spread the rounds across all five shapes, both spread axes, and the
  // ORDER BY toggle. Table counts stay small enough that the exhaustive
  // oracle is instant for the dense shapes.
  static constexpr struct {
    JoinGraphShape shape;
    int max_tables;
  } kShapes[] = {
      {JoinGraphShape::kChain, 6},  {JoinGraphShape::kStar, 5},
      {JoinGraphShape::kCycle, 5},  {JoinGraphShape::kClique, 4},
      {JoinGraphShape::kRandom, 5},
  };
  static constexpr double kSpreads[] = {1.0, 2.0, 3.0, 5.0};
  FuzzCase c;
  size_t si = static_cast<size_t>(round) % std::size(kShapes);
  c.shape = kShapes[si].shape;
  // Nonlinear (base_seed, round) mix: base_seed + round would make two
  // nightly campaigns with date-adjacent seeds share nearly every case
  // (the nightly passes --seed=YYYYMMDD), defeating "the sampled corner
  // of the workload space keeps moving".
  c.seed = Mix64(base_seed ^ Mix64(static_cast<uint64_t>(round)));
  Rng rng(c.seed * 0x9e3779b97f4a7c15ULL + 1);
  c.num_tables =
      static_cast<int>(rng.UniformInt(3, kShapes[si].max_tables));
  c.selectivity_spread = kSpreads[rng.UniformInt(0, 3)];
  c.table_size_spread = kSpreads[rng.UniformInt(0, 3)];
  c.order_by = rng.UniformInt(0, 1) == 1;
  return c;
}

std::vector<FuzzViolation> CheckCase(const FuzzCase& fuzz_case,
                                     const FuzzOptions& options,
                                     size_t* invariants_checked) {
  CaseChecker checker(fuzz_case, options);
  std::vector<FuzzViolation> violations = checker.Run();
  if (invariants_checked != nullptr) {
    *invariants_checked += checker.invariants_checked();
  }
  return violations;
}

std::string DescribeCase(const FuzzCase& fuzz_case) {
  CaseContext ctx = BuildContext(fuzz_case);
  const Workload& w = ctx.workload;
  std::ostringstream os;
  os.precision(10);
  os << "case " << fuzz_case.Encode() << ": " << w.query.num_tables()
     << " tables, " << w.query.num_predicates() << " predicates"
     << (w.query.required_order() ? ", ORDER BY" : "") << "\n";
  os << "memory " << ctx.memory.ToString() << "\n";
  OracleOptions oopt;
  oopt.objective = OracleObjective::kLecStatic;
  OracleResult oracle =
      SolveOracle(w.query, w.catalog, ctx.model, ctx.memory, oopt);
  os << "static oracle: optimum " << oracle.best_objective << ", worst "
     << oracle.worst_objective << " over " << oracle.plans_enumerated
     << " plans\n";
  const struct {
    const char* name;
    OptimizeResult result;
  } strategies[] = {
      {"lsc", OptimizeLscAtEstimate(w.query, w.catalog, ctx.model,
                                    ctx.memory, PointEstimate::kMean)},
      {"algorithm_a",
       OptimizeAlgorithmA(w.query, w.catalog, ctx.model, ctx.memory)},
      {"algorithm_b",
       OptimizeAlgorithmB(w.query, w.catalog, ctx.model, ctx.memory, 3)},
      {"lec_static",
       OptimizeLecStatic(w.query, w.catalog, ctx.model, ctx.memory)},
      {"lec_dynamic", OptimizeLecDynamic(w.query, w.catalog, ctx.model,
                                         ctx.chain, ctx.memory)},
  };
  for (const auto& s : strategies) {
    double ec = OraclePlanObjective(s.result.plan, w.query, w.catalog,
                                    ctx.model, ctx.memory, oopt);
    os << "  " << s.name << ": objective " << s.result.objective
       << ", plan EC " << ec << ", regret " << oracle.Regret(ec) << "\n";
  }
  return os.str();
}

FuzzReport RunFuzz(const FuzzOptions& options) {
  FuzzReport report;
  for (int round = 0; round < options.rounds; ++round) {
    FuzzCase c = CaseForRound(options.base_seed, round);
    std::vector<FuzzViolation> v =
        CheckCase(c, options, &report.invariants_checked);
    report.violations.insert(report.violations.end(), v.begin(), v.end());
    ++report.rounds_run;
  }
  return report;
}

}  // namespace lec::verify
