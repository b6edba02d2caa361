// Linear-time expected join costs (§3.6.1, §3.6.2).
//
// The naive expected cost of a join under independent distributions over
// |A|, |B| and M enumerates all b_|A| · b_|B| · b_M triples. The paper shows
// that for the simple Shapiro formulas the computation collapses to
// O(b_M + b_|A| + b_|B|): condition on which input is larger, sweep the
// conditioning variable in ascending order, and maintain running prefix /
// suffix partial expectations plus two-pointer scans over M's CDF (the
// thresholds √b, ∛b, b+2 are monotone in b, so each pointer only advances).
//
// The entry points run the flat SoA kernels of dist/kernel.h: the memory
// distribution is precompiled once into an EcMemoryProfile whose *exact
// step thresholds* replace the per-swept-element sqrt/cbrt calls (x >=
// threshold_i classifies identically to m_i <= fl(f(x)) by construction —
// see StepThreshold), so the per-candidate sweep is branchy compares and
// multiply-adds only. Algorithm D builds the profile once per optimization
// and amortizes it over every candidate.
//
// These functions evaluate the *paper* formulas (default CostModelOptions,
// unsorted inputs). Their reference is the paper's EC definition itself,
// the naive triple enumeration ExpectedJoinCost (cost/expected_cost.h):
// tests/fast_expected_cost_test.cc, tests/dist_kernel_test.cc and fuzz
// invariant I7 hold the sweeps to it.
//
// Note on the paper's F_b = E(|A| : |A| ≤ b) + b: we use the partial
// expectation Σ_{a≤b} a·Pr(A=a) together with b·Pr(A ≤ b), which is the
// variant that makes equation (1) exact (see DESIGN.md, "Fidelity notes");
// the asymptotics are unchanged.
#ifndef LECOPT_COST_FAST_EXPECTED_COST_H_
#define LECOPT_COST_FAST_EXPECTED_COST_H_

#include "cost/cost_model.h"
#include "dist/arena.h"
#include "dist/distribution.h"
#include "dist/kernel.h"
#include "plan/plan.h"

namespace lec {

/// The memory distribution precompiled for the fast-EC sweeps: its view
/// plus exact step thresholds for the √x and ∛x pass-count cursors
/// (sqrt_step[i] is the smallest x with values[i] <= fl(sqrt(x)), ditto
/// cbrt). Arrays live in the arena the profile was built in; rebuild after
/// a reset. Building costs O(b_M) sqrt/cbrt evaluations — once per DP
/// instance, not once per candidate.
struct EcMemoryProfile {
  DistView memory;
  const double* sqrt_step = nullptr;
  const double* cbrt_step = nullptr;
};

EcMemoryProfile BuildEcMemoryProfile(DistView memory, DistArena* arena);

// -- View-level kernels (allocation- and transcendental-free sweeps) --------
//
// The nested-loop and Grace-hash sweeps need the inputs' means for their
// suffix statistics. A Distribution caches its mean; a raw view does not,
// so the primary overloads take the means explicitly — Algorithm D feeds
// its per-subset mean table and pays nothing. The convenience overloads
// without means recompute them (one O(n) pass each).

double FastEcSortMerge(DistView left, DistView right,
                       const EcMemoryProfile& memory);
double FastEcNestedLoop(DistView left, DistView right, DistView memory,
                        double left_mean, double right_mean);
double FastEcNestedLoop(DistView left, DistView right, DistView memory);
double FastEcGraceHash(DistView left, DistView right,
                       const EcMemoryProfile& memory, double left_mean,
                       double right_mean);
double FastEcGraceHash(DistView left, DistView right,
                       const EcMemoryProfile& memory);
/// Dispatch over the three methods (kHybridHash throws, as below).
double FastEcJoin(JoinMethod method, DistView left, DistView right,
                  const EcMemoryProfile& memory, double left_mean,
                  double right_mean);
double FastEcJoin(JoinMethod method, DistView left, DistView right,
                  const EcMemoryProfile& memory);

/// The three kernels' values for one (left, right) pair.
struct FastEcByMethod {
  double nested_loop = 0;
  double sort_merge = 0;
  double grace_hash = 0;

  /// The value of `method` (kHybridHash throws, as FastEcJoin does).
  double Of(JoinMethod method) const;
};

/// FastEcNestedLoop, FastEcSortMerge and FastEcGraceHash of one pair in one
/// fused sweep pair: all three condition on the same two branches, so one
/// ascending sweep over `left` (strict prefix over `right`, one pass-weight
/// cursor, one S + 2 memory cursor) and one over `right` serve every
/// method. Each method keeps its own accumulation order, so every value is
/// bit-identical to its single kernel: nested loop and Grace hash add
/// their left-sweep terms first, sort-merge adds its right-sweep terms
/// first — its left-sweep terms wait in `sm_left_terms`, which must hold
/// left.n doubles.
FastEcByMethod FastEcAllMethods(DistView left, DistView right,
                                const EcMemoryProfile& memory,
                                double left_mean, double right_mean,
                                double* sm_left_terms);

// -- Branch-and-bound floor hook (§3.6 prefix partial expectations) ---------

/// E_M[CostModel::JoinCostRemFloor(method, outer_min_pages, right_pages, M)]
/// under the fixed-size memory distribution `memory`: an admissible lower
/// bound, for every outer of at least `outer_min_pages` pages and any
/// sortedness flags, on the expected cost of the join step that consumes an
/// inner of `right_pages` pages. One O(b_M) sweep (CountLeq class masses —
/// the same prefix-partial-expectation machinery as the fast-EC paths);
/// the cost-bounded DP evaluates it once per (table, method) per run.
double EcJoinCostRemFloorFixedSizeView(const CostModel& model,
                                       JoinMethod method,
                                       double outer_min_pages,
                                       double right_pages, DistView memory);

// -- Distribution-level API (kernel-backed) ---------------------------------

/// EC of a sort-merge join of A (left) and B (right) — §3.6.1.
double FastExpectedSortMergeCost(const Distribution& left,
                                 const Distribution& right,
                                 const Distribution& memory);

/// EC of a page nested-loop join with A as the outer — §3.6.2.
double FastExpectedNestedLoopCost(const Distribution& left,
                                  const Distribution& right,
                                  const Distribution& memory);

/// EC of a Grace hash join (thresholds keyed on the smaller input; same
/// sweep structure as sort-merge).
double FastExpectedGraceHashCost(const Distribution& left,
                                 const Distribution& right,
                                 const Distribution& memory);

/// Dispatch over the three methods.
double FastExpectedJoinCost(JoinMethod method, const Distribution& left,
                            const Distribution& right,
                            const Distribution& memory);

}  // namespace lec

#endif  // LECOPT_COST_FAST_EXPECTED_COST_H_
