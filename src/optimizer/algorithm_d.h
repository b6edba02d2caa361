// Algorithm D (§3.6): multiple uncertain parameters.
//
// Memory, every table size, and every predicate selectivity are independent
// random variables. Each DP node carries, besides its LEC plan, the
// distribution of its result size |B_j| (Figure 1): three distributions
// (M, |B_j|, |A_j|) feed the expected join cost and a fourth (σ) feeds the
// distribution of |B_j ⋈ A_j| handed to the parent, so the per-node state
// stays constant no matter how many base parameters exist.
//
// Expected join costs use either the naive triple enumeration or the
// linear-time §3.6.1/3.6.2 algorithms (options.use_fast_ec); result-size
// distributions are kept to options.size_buckets buckets via §3.6.3
// cube-root pre-bucketing.
//
// D is the shared DP core (RunDpInto, optimizer/dp_common.h) run with
// AlgorithmDSteps as its provider: the enumeration, tie-breaks and decision
// table are the scalar strategies' own, and only the costing differs.
#ifndef LECOPT_OPTIMIZER_ALGORITHM_D_H_
#define LECOPT_OPTIMIZER_ALGORITHM_D_H_

#include <cstddef>

#include "cost/cost_model.h"
#include "cost/fast_expected_cost.h"
#include "optimizer/dp_common.h"

namespace lec {

namespace internal {
struct AlgorithmDTables;
}  // namespace internal

/// Algorithm D's costing hooks for RunDpInto — a DpStepProvider:
///
///   * A leaf costs, and every live slot caches, the mean of its subset's
///     result-size distribution (base sizes rebucketed to size_buckets).
///     A subset's distribution is derived when its slot closes live.
///   * A step's cost is its expected cost over the memory distribution and
///     the two inputs' size distributions. Every use is charged its
///     formula's weight — b_A + b_B + b_M on the fast path, b_A · b_B · b_M
///     on the naive one — memoized or not, and the fast path's three
///     methods come from one fused sweep per (S_j, j) (FastEcAllMethods).
///   * Enforcer and root sorts are expected sort costs, charged nothing.
///
/// Construction starts a run: it resets the scratch arena
/// (options.dist_arena, else a per-thread one) and this thread's size
/// records, so one provider is live per thread at a time and views from
/// an earlier run die. Everything it keeps has its capacity retained
/// across runs: a warmed provider and DP make no heap allocations.
class AlgorithmDSteps {
 public:
  struct SizeRecord;

  /// The step context of one (S_j, j) pair (see DpStepProvider).
  class StepContext {
   public:
    double Join(JoinMethod method, bool left_sorted, bool inner_sorted,
                size_t* evaluations);
    double Enforcer(size_t* evaluations);

   private:
    friend class AlgorithmDSteps;
    StepContext(const AlgorithmDSteps& d, const SizeRecord& left,
                const SizeRecord& right)
        : d_(&d), left_(&left), right_(&right) {}

    const AlgorithmDSteps* d_;
    const SizeRecord* left_;
    const SizeRecord* right_;
    StepMemo memo_;
    bool have_fast_ = false;
    FastEcByMethod fast_;  ///< the fused sweep's values, once have_fast_
  };

  AlgorithmDSteps(const DpContext& ctx, const CostModel& model,
                  const Distribution& memory);

  double LeafCost(QueryPos p) const;
  double SlotPages(TableSet s) const;
  StepContext Step(const DpSlot& left, QueryPos j, int phase) const;
  double RootSort(TableSet s, double pages, int phase,
                  size_t* evaluations) const;

 private:
  double SortEc(const SizeRecord& r) const;
  /// Room for `n` doubles in the arena, reused while it is large enough.
  double* SortMergeTerms(size_t n) const;

  const DpContext* ctx_;
  const CostModel* model_;
  DistArena* arena_;
  internal::AlgorithmDTables* tables_;
  DistView mem_;
  EcMemoryProfile profile_;
  mutable double* sm_terms_ = nullptr;
  mutable size_t sm_terms_room_ = 0;
};

/// LEC plan under independent distributions over memory (static), table
/// sizes, and predicate selectivities. `objective` is the expected cost
/// as estimated with the configured bucket budget.
OptimizeResult OptimizeAlgorithmD(const Query& query, const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  const OptimizerOptions& options = {});

}  // namespace lec

#endif  // LECOPT_OPTIMIZER_ALGORITHM_D_H_
