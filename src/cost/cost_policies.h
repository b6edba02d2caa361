// The costing-regime policies: one struct per way of charging an operator.
//
// Every regime exposes the same statically-dispatched shape —
// JoinCost(method, left_pages, right_pages, left_sorted, right_sorted,
// phase_idx) and SortCost(pages, phase_idx) — so a single policy type
// serves both consumers of operator costs: the optimizer DP cores
// (RunDp/RunBushyDp, via optimizer/cost_providers.h) and the plan-costing
// walks in expected_cost.cc. Keeping them here in the cost layer means a
// regime fix (marginal clamping, EC dispatch) lands in optimizer and
// plan-costing simultaneously; there is deliberately no second copy.
#ifndef LECOPT_COST_COST_POLICIES_H_
#define LECOPT_COST_COST_POLICIES_H_

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cost/cost_model.h"
#include "cost/expected_cost.h"
#include "cost/fast_expected_cost.h"
#include "dist/distribution.h"

namespace lec {

/// Memory-free admissible floor on one join step at the ACTUAL input sizes
/// (a, b): a lower bound on the provider's JoinCost for any memory value /
/// distribution, any phase and any sortedness flags. O(1), no sqrt — this
/// runs per candidate group inside the branch-and-bound DP, so it trades
/// tightness for being essentially free. Derivation per method (minimum
/// pass multipliers): NL pays a plus the cheaper of one probe pass (b) or
/// the quadratic a·b; SM's multiplier is >= 2 without the sorted-input
/// discount and >= 1 with it; GH's multiplier is >= 2; HH's factor is
/// floored at 1.
inline double JoinStepFloorAnyMemory(JoinMethod method, double a, double b,
                                     bool sorted_input_discount) {
  switch (method) {
    case JoinMethod::kSortMerge:
      return sorted_input_discount ? a + b : 2.0 * (a + b);
    case JoinMethod::kGraceHash:
      return 2.0 * (a + b);
    case JoinMethod::kNestedLoop:
      return a + std::min(b, a * b);
    case JoinMethod::kHybridHash:
      return a + b;
  }
  throw std::logic_error("unknown join method");
}

/// Specific cost at one memory value — System R / LSC (§2.2).
struct LscCostProvider {
  const CostModel& model;
  double memory;

  /// LSC's bound is exact-admissible (the floors are the formulas' own
  /// minima at the fixed memory value): pruning defaults on.
  static constexpr bool kPruningDefaultOn = true;

  double JoinCost(JoinMethod m, double left_pages, double right_pages,
                  bool left_sorted, bool right_sorted, int) const {
    return model.JoinCost(m, left_pages, right_pages, memory, left_sorted,
                          right_sorted);
  }
  double SortCost(double pages, int) const {
    return model.SortCost(pages, memory);
  }
  double StepFloor(JoinMethod m, double a, double b) const {
    return JoinStepFloorAnyMemory(m, a, b,
                                  model.options().sorted_input_discount);
  }
  double RemStepFloor(JoinMethod m, double outer_min, double b) const {
    return model.JoinCostRemFloor(m, outer_min, b, memory);
  }
};

/// Specific cost with a realized per-phase memory trajectory (C(p, v) for
/// one point v of the parameter space; out-of-range phases clamp to the
/// last value).
struct RealizedCostProvider {
  const CostModel& model;
  const std::vector<double>& memory_by_phase;

  double MemoryAt(int idx) const {
    if (memory_by_phase.empty()) {
      throw std::invalid_argument("realization has no memory values");
    }
    size_t i = std::min<size_t>(static_cast<size_t>(std::max(idx, 0)),
                                memory_by_phase.size() - 1);
    return memory_by_phase[i];
  }
  double JoinCost(JoinMethod m, double left_pages, double right_pages,
                  bool left_sorted, bool right_sorted, int phase_idx) const {
    return model.JoinCost(m, left_pages, right_pages, MemoryAt(phase_idx),
                          left_sorted, right_sorted);
  }
  double SortCost(double pages, int phase_idx) const {
    return model.SortCost(pages, MemoryAt(phase_idx));
  }
};

/// Expected cost under one static memory distribution — Algorithm C (§3.4).
/// Sweeps the memory SoA view directly (AsView is two pointer loads): the
/// per-candidate loop touches only the flat values/probs arrays.
struct LecStaticCostProvider {
  const CostModel& model;
  const Distribution& memory;

  /// The REM floor is the exact expectation of a pointwise-admissible
  /// bound under the same static distribution the objective integrates
  /// over: exact-admissible, so pruning defaults on.
  static constexpr bool kPruningDefaultOn = true;

  double JoinCost(JoinMethod m, double left_pages, double right_pages,
                  bool left_sorted, bool right_sorted, int) const {
    return ExpectedJoinCostFixedSizesView(model, m, left_pages, right_pages,
                                          memory.AsView(), left_sorted,
                                          right_sorted);
  }
  double SortCost(double pages, int) const {
    return ExpectedSortCostFixedSizeView(model, pages, memory.AsView());
  }
  double StepFloor(JoinMethod m, double a, double b) const {
    return JoinStepFloorAnyMemory(m, a, b,
                                  model.options().sorted_input_discount);
  }
  double RemStepFloor(JoinMethod m, double outer_min, double b) const {
    return EcJoinCostRemFloorFixedSizeView(model, m, outer_min, b,
                                           memory.AsView());
  }
};

/// Expected cost under per-phase Markov marginals — dynamic Algorithm C
/// (§3.5). `marginals[t]` is the memory distribution in force during join
/// phase t; out-of-range phases clamp to the last marginal.
struct LecDynamicCostProvider {
  const CostModel& model;
  const std::vector<Distribution>& marginals;

  /// The floors below are memory-free, hence valid for every per-phase
  /// marginal — admissible but loose (a remaining join's phase is not
  /// known, so no marginal-specific refinement applies). Pruning is
  /// opt-in (dp_pruning = kOn) rather than default for this regime.
  static constexpr bool kPruningDefaultOn = false;

  const Distribution& MarginalAt(int idx) const {
    size_t i = std::min<size_t>(static_cast<size_t>(std::max(idx, 0)),
                                marginals.size() - 1);
    return marginals[i];
  }
  double JoinCost(JoinMethod m, double left_pages, double right_pages,
                  bool left_sorted, bool right_sorted, int phase_idx) const {
    return ExpectedJoinCostFixedSizesView(model, m, left_pages, right_pages,
                                          MarginalAt(phase_idx).AsView(),
                                          left_sorted, right_sorted);
  }
  double SortCost(double pages, int phase_idx) const {
    return ExpectedSortCostFixedSizeView(model, pages,
                                         MarginalAt(phase_idx).AsView());
  }
  double StepFloor(JoinMethod m, double a, double b) const {
    return JoinStepFloorAnyMemory(m, a, b,
                                  model.options().sorted_input_discount);
  }
  double RemStepFloor(JoinMethod m, double outer_min, double b) const {
    return JoinStepFloorAnyMemory(m, outer_min, b,
                                  model.options().sorted_input_discount);
  }
};

}  // namespace lec

#endif  // LECOPT_COST_COST_POLICIES_H_
