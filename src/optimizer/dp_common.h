// Shared scaffolding for the System R-style bottom-up optimizers (§2.2).
//
// All the paper's algorithms share one skeleton: walk the subset DAG from
// single relations to the full set, and for each node S consider joining
// B_j = ⋈_{i ∈ S_j} A_i with A_j for every j ∈ S, every join method, and
// (our interesting-orders extension) every choice of sort-merge key /
// enforcer. They differ only in how a candidate join step is *costed*
// (specific cost at one memory value, expected cost under a distribution,
// per-phase expected cost under Markov marginals, expected cost over
// result-size distributions for Algorithm D) and in how many entries are
// retained per node (one per order for System R, Algorithm C and
// Algorithm D, top-c for Algorithm B). The common skeleton, RunDpInto,
// lives here, parameterized by a statically dispatched cost provider, and
// so does ForEachJoinStep, the (method, key, enforcer) plan space of one
// join step that every left-deep optimizer enumerates through.
#ifndef LECOPT_OPTIMIZER_DP_COMMON_H_
#define LECOPT_OPTIMIZER_DP_COMMON_H_

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "catalog/catalog.h"
#include "cost/cost_model.h"
#include "cost/size_propagation.h"
#include "dist/arena.h"
#include "plan/plan.h"
#include "query/query.h"
#include "util/wall_timer.h"

namespace lec {

class PlanCache;
namespace rewrite {
struct RewriteOutcome;
}  // namespace rewrite

/// How the runtime-dispatched SIMD layer (dist/simd.h) is selected for one
/// optimization. kAuto inherits the ambient level (the CPU's best, clamped
/// by the LECOPT_SIMD environment variable); the pinned values force a
/// specific tier for A/B comparisons, clamped to what the CPU supports.
enum class SimdMode : int { kAuto = 0, kScalar = 1, kSse2 = 2, kAvx2 = 3 };

/// Whether the lec::Optimizer facade runs the logical rewrite pipeline
/// (rewrite/rewrite.h) before optimizing. kOn rewrites the query/catalog
/// through the standard passes (selection push-down, redundant-predicate
/// elimination, cross-product avoidance, canonicalization) and computes
/// the plan-cache signature on the REWRITTEN request, so relabeled
/// duplicates share one entry. The returned plan is expressed in the
/// rewritten query's positions; OptimizeResult::rewrite carries the
/// rewritten query/catalog and the position map back to the original.
/// Part of the plan-cache key: rewritten and raw runs never share bits.
enum class RewriteMode : int { kOff = 0, kOn = 1 };

/// Cost-bounded DP pruning (branch-and-bound over the DP objective).
/// kAuto enables pruning exactly for the providers whose lower bound is
/// exact-admissible (LSC and the static LEC regimes — see
/// kPruningDefaultOn on each provider in cost/cost_policies.h); kOn forces
/// it for any provider exposing floors (admissible but possibly loose,
/// e.g. LEC-dynamic); kOff disables it everywhere. Pruned and unpruned
/// runs return bit-identical objectives and plans (fuzz invariant I9) —
/// the toggle trades enumeration work, never result quality.
enum class DpPruning : int { kAuto = 0, kOn = 1, kOff = 2 };

/// Knobs shared by every optimizer in the family.
struct OptimizerOptions {
  /// Join algorithms to consider at each step; defaults to the paper's
  /// three. (Initialized from the static array rather than a braced list:
  /// GCC 12's -Wdangling-pointer false-fires on the inlined
  /// initializer_list backing store.)
  std::vector<JoinMethod> join_methods = std::vector<JoinMethod>(
      std::begin(kAllJoinMethods), std::end(kAllJoinMethods));
  /// System R heuristic: never introduce a cross product unless the query
  /// graph itself is disconnected.
  bool avoid_cross_products = true;
  /// Consider Sort enforcers over the inner relation for sort-merge joins
  /// (only useful when the cost model's sorted_input_discount is on).
  bool consider_sort_enforcers = false;
  /// Algorithm D: bucket budget per result-size distribution (§3.6.3).
  size_t size_buckets = 27;
  /// Algorithm D: how result-size distributions are kept small.
  SizePropagationMode size_mode = SizePropagationMode::kCubeRootPrebucket;
  /// Algorithm D: use the §3.6 linear-time EC paths when valid.
  bool use_fast_ec = true;
  /// Algorithm D: borrowed scratch arena for its size-propagation and EC
  /// kernels (dist/kernel.h), reset per DP instance. Null uses a
  /// per-thread arena; tests inject their own to pin the
  /// steady-state-zero-allocation property.
  DistArena* dist_arena = nullptr;
  /// Unread; kept only because the lecbench harness still assigns nullptr.
  std::nullptr_t ec_cache = nullptr;
  /// Optional whole-result plan cache (borrowed, not owned; see
  /// service/plan_cache.h). Consulted only by the lec::Optimizer facade —
  /// the strategy entry points below it never look: the cache key is the
  /// full request identity, which only the facade sees. A PlanCache is
  /// internally synchronized and MEANT to be shared across the serving
  /// pipeline's workers. A hit returns a result bit-identical to
  /// recomputing (except elapsed_seconds, which reports the serving call).
  PlanCache* plan_cache = nullptr;
  /// SIMD dispatch tier for this optimization. Applied by the
  /// lec::Optimizer facade via simd::ScopedLevel before any costing runs;
  /// the strategy entry points below the facade run at whatever level is
  /// ambient. Part of the plan-cache key (a pinned tier can change result
  /// bits on the reassociating kernels).
  SimdMode simd_mode = SimdMode::kAuto;
  /// Cost-bounded DP pruning; see the DpPruning enum above. NOT part of
  /// the plan-cache key: pruned and unpruned runs are bit-identical.
  DpPruning dp_pruning = DpPruning::kAuto;
  /// Logical rewrite pipeline; see the RewriteMode enum above. Honored by
  /// the lec::Optimizer facade only (the strategy entry points below it
  /// always see the query as given). Part of the plan-cache key.
  RewriteMode rewrite_mode = RewriteMode::kOff;
};

/// Result of one optimizer invocation. `objective` is whatever the
/// algorithm minimizes: specific cost for LSC, expected cost for the LEC
/// family — always including the final ORDER BY enforcement if the query
/// requires one.
struct OptimizeResult {
  PlanPtr plan;
  double objective = 0;
  /// Join candidates (subset, j, method, enforcer) examined.
  size_t candidates_considered = 0;
  /// Invocations of the underlying cost formulas; the paper's complexity
  /// statements (Theorems 3.2/3.3) are in these units.
  size_t cost_evaluations = 0;
  /// Wall-clock seconds this optimization took. Stamped by every Optimize*
  /// entry point (and re-stamped by the lec::Optimizer facade with its full
  /// span), so EXPLAIN, bench and service throughput all read one source.
  double elapsed_seconds = 0;
  /// candidates_considered broken down by join phase (the join forming a
  /// subset of size s runs in phase s-2; §3.5). Filled by the DP-based
  /// strategies; left empty by strategies without a linear phase structure.
  std::vector<size_t> candidates_by_phase;
  /// Branch-and-bound accounting (all zero when pruning is disabled or the
  /// provider exposes no floors). Left-entry expansions skipped because the
  /// entry's cost plus the remaining-work floor already exceeded the
  /// incumbent:
  size_t pruned_expansions = 0;
  /// Candidates skipped by a per-method step floor before their cost
  /// formulas ran:
  size_t pruned_candidates = 0;
  /// Evaluated candidates whose total could no longer beat the incumbent
  /// after completing the plan, dropped instead of retained:
  size_t pruned_entries = 0;
  /// Cost-formula runs spent seeding the greedy incumbent (kept separate
  /// so cost_evaluations still counts exactly the DP's own formula runs,
  /// the units of Theorems 3.2/3.3):
  size_t incumbent_cost_evaluations = 0;
  /// Rewrite provenance, stamped by the lec::Optimizer facade when
  /// rewrite_mode is kOn — on cache hits and misses alike, since the
  /// outcome (rewritten query/catalog, position map, per-pass counters) is
  /// what makes the served plan interpretable. It is the request's own:
  /// computed by this call, or, on a plan-cache request-memo hit, the
  /// equal outcome an earlier byte-identical request computed.
  /// Null when the facade did not rewrite. NOT serialized by serde: the
  /// wire carries only the plan and its counters.
  std::shared_ptr<const rewrite::RewriteOutcome> rewrite;
};

/// Per-query quantities shared by the DP algorithms. Nothing here is
/// sized 2^n: subset page counts are computed on demand and the minimum
/// over all subsets is computed once, on first use.
class DpContext {
 public:
  DpContext(const Query& query, const Catalog& catalog,
            const OptimizerOptions& options);

  const Query& query() const { return *query_; }
  const Catalog& catalog() const { return *catalog_; }
  const OptimizerOptions& options() const { return options_; }

  int num_tables() const { return query_->num_tables(); }

  /// Mean page count of relation at position p.
  double TablePages(QueryPos p) const { return table_pages_[p]; }

  /// Mean page count of ⋈_{i ∈ S} A_i (product of table sizes and internal
  /// predicate mean selectivities — independent of join order, the
  /// dynamic-programming property of §2.2 observation 3). Computed on
  /// demand in O(n + P): table sizes with members ascending, then
  /// selectivities with predicates ascending. That multiplication order is
  /// part of the contract — every caller sees the same bits for a subset.
  double SubsetPages(TableSet s) const;

  /// min over nonempty subsets S of SubsetPages(S) — the smallest outer
  /// any join step can ever see, anchoring the branch-and-bound
  /// RemStepFloor bounds (see RunDpInto). Exact (bit-identical to taking
  /// SubsetPages over all 2^n - 1 subsets), computed on first call and
  /// memoized; a DpContext is therefore not shareable across threads.
  double MinSubsetPages() const;

  /// The relations that share a predicate with relation j.
  TableSet Neighbors(QueryPos j) const {
    return neighbors_[static_cast<size_t>(j)];
  }

  /// True if a join step extending `subset` with `j` would be a cross
  /// product that the options forbid.
  bool CrossProductForbidden(TableSet subset, QueryPos j) const;

  /// Output order of a join (NL preserves the outer's order, SM emits its
  /// key's order, GH destroys order).
  static OrderId JoinOutputOrder(JoinMethod method, OrderId left_order,
                                 OrderId sm_key);

  /// Candidate sort-merge keys for joining `subset` with `j`: each
  /// connecting predicate may serve as the sort key.
  std::vector<int> ConnectingPredicates(TableSet subset, QueryPos j) const {
    return query_->ConnectingPredicates(subset, j);
  }

 private:
  double ComputeMinSubsetPages() const;

  const Query* query_;
  const Catalog* catalog_;
  /// Held by value (it is small) so a DpContext outlives any temporary it
  /// was constructed from.
  OptimizerOptions options_;
  std::vector<double> table_pages_;
  /// Per predicate: its endpoints as a TableSet, and its mean selectivity.
  std::vector<TableSet> pred_tables_;
  std::vector<double> pred_selectivity_;
  std::vector<TableSet> neighbors_;  ///< see Neighbors
  mutable double min_subset_pages_ = 0;
  mutable bool min_subset_pages_ready_ = false;
  bool query_connected_ = true;
};

/// One retained DP entry: a plan for some subset together with its
/// cumulative objective value under the algorithm's costing.
struct DpEntry {
  PlanPtr plan;
  double cost = 0;
};

/// Per-subset DP state keyed by output order (interesting orders).
using OrderMap = std::map<OrderId, DpEntry>;

/// How RunDp's cost provider is shaped: a join-step cost and a sort cost
/// (enforcers and the final ORDER BY), both phase-aware. `phase` is the
/// 0-based phase in which the step executes (the join forming a subset of
/// size s runs in phase s-2; §3.5). Concrete providers (cost/
/// cost_policies.h, one per costing regime) dispatch statically, so the
/// per-candidate hot path makes no indirect calls.
template <typename P>
concept DpCostProvider =
    requires(const P& p, JoinMethod m, double pages, bool sorted, int phase) {
      { p.JoinCost(m, pages, pages, sorted, sorted, phase) }
          -> std::convertible_to<double>;
      { p.SortCost(pages, phase) } -> std::convertible_to<double>;
    };

/// A cost provider that additionally exposes admissible lower bounds for
/// the cost-bounded DP (branch-and-bound; see RunDpInto):
///
///   * StepFloor(m, a, b)        <= JoinCost(m, a, b, ...) for any phase
///     and any sortedness flags — a floor on the step about to be costed
///     at its ACTUAL input sizes.
///   * RemStepFloor(m, a_min, b) <= the provider's cost of ANY future
///     join step that consumes an inner of b pages, given every possible
///     outer has at least a_min pages — a floor on remaining work.
///   * kPruningDefaultOn: whether DpPruning::kAuto engages pruning for
///     this provider (true exactly when its floors are exact-admissible;
///     see cost/cost_policies.h).
///
/// Providers without these members (RealizedCostProvider) simply never
/// prune — the DP checks the concept if-constexpr.
template <typename P>
concept DpPruningProvider =
    DpCostProvider<P> &&
    requires(const P& p, JoinMethod m, double a, double b) {
      { p.StepFloor(m, a, b) } -> std::convertible_to<double>;
      { p.RemStepFloor(m, a, b) } -> std::convertible_to<double>;
      { P::kPruningDefaultOn } -> std::convertible_to<bool>;
    };

namespace internal {

/// Keeps `entry` if it is the best seen for its order.
inline void RetainBest(OrderMap* node, OrderId order, DpEntry entry) {
  auto it = node->find(order);
  if (it == node->end() || entry.cost < it->second.cost) {
    (*node)[order] = std::move(entry);
  }
}

}  // namespace internal

/// The left-deep plan space of one join step, shared by RunDpInto,
/// GreedyIncumbent, Algorithm B's top-c DP and the randomized search:
/// visits the steps joining one relation to an outer, given the predicates
/// `preds` connecting them. Every method of `opts.join_methods` runs once,
/// except that sort-merge runs once per key in `preds` (none without one),
/// each key twice under consider_sort_enforcers: raw inner first, then
/// inner behind a sort enforcer. The tie-breaks assume this order.
///
///   * on_method(method, num_steps) -> bool runs before a method's steps;
///     false skips them.
///   * on_enforcer(key) runs before the steps of a key with a sorted-inner
///     alternative: where the enforcer's sort is costed, once per key.
///   * on_step(method, key, inner_sorted); `key` is kUnsorted unless SM.
///
/// Hooks are template parameters, and the enumerator is forced inline:
/// RunDpInto calls it once per left entry, and GCC otherwise keeps it out
/// of line there, so the hooks would reach the DP's state through memory.
/// The oracles (exhaustive.cc, bushy.cc's BushyPlansFor) and the bushy DP
/// keep their own loops on purpose; see DESIGN.md.
template <typename OnMethod, typename OnEnforcer, typename OnStep>
[[gnu::always_inline]] inline void ForEachJoinStep(const OptimizerOptions& opts,
                     const std::vector<int>& preds, OnMethod&& on_method,
                     OnEnforcer&& on_enforcer, OnStep&& on_step) {
  for (JoinMethod method : opts.join_methods) {
    bool sort_merge = method == JoinMethod::kSortMerge;
    if (sort_merge && preds.empty()) continue;  // SM needs a key
    size_t num_keys = sort_merge ? preds.size() : 1;
    bool with_enforcer = sort_merge && opts.consider_sort_enforcers;
    int num_inners = with_enforcer ? 2 : 1;
    if (!on_method(method, num_keys * static_cast<size_t>(num_inners))) {
      continue;
    }
    for (size_t ki = 0; ki < num_keys; ++ki) {
      OrderId key = sort_merge ? preds[ki] : kUnsorted;
      if (with_enforcer) on_enforcer(key);
      for (int inner = 0; inner < num_inners; ++inner) {
        on_step(method, key, inner == 1);
      }
    }
  }
}

/// ForEachJoinStep's on_method hook for callers that skip no method.
inline constexpr auto kEveryJoinMethod = [](JoinMethod, size_t) {
  return true;
};

// ---------------------------------------------------------------------------
// Allocation-free DP core.
//
// The textbook formulation keeps a 2^n table of std::maps and builds a
// plan tree per *candidate*, so it spends its time in the allocator. The
// core separates concerns instead:
//
//   * RunDpInto computes the objective over a sparse table owned by a
//     reusable DpScratch — no plan construction at all. Only LIVE subsets
//     (those that retained an entry) get a row, so storage scales with the
//     connected subsets of the join graph, never with 2^n: a 20-table
//     chain keeps 210 rows. Each retained entry records the *decision*
//     (joined relation, method, key, enforcer) that produced it. After one
//     warm-up call the scratch is capacity-stable and a full run performs
//     zero heap allocations (pinned by tests/dist_arena_test.cc with a
//     counting operator new).
//   * MaterializeDpPlan replays the recorded decisions into the plan tree
//     — O(n) shared_ptr nodes once per optimization, at the result
//     boundary.
//
// Candidates are enumerated by subset size, subsets ascending, then by
// joined relation, left entry (ascending order), then ForEachJoinStep's
// method, key and inner alternative; ties keep the first-seen entry
// (strict <). Objectives, plans and counters at n = 10, 19 and 20 are
// pinned bit for bit by tests/golden/dp_counters.txt, and optimality by
// the exhaustive oracle (fuzz invariant I1).
// ---------------------------------------------------------------------------

/// The decision that produced a retained DP entry.
struct DpDecision {
  int16_t j = -1;  ///< relation joined last; -1 marks an access leaf
  int16_t key = kUnsorted;          ///< SM join key, else kUnsorted
  int16_t left_order = kUnsorted;   ///< order of the outer subplan's entry
  JoinMethod method = JoinMethod::kNestedLoop;
  bool inner_sorted = false;  ///< explicit sort enforcer on the inner
};

/// One retained (subset, order) entry of the DP table.
struct DpFlatEntry {
  double cost = 0;
  OrderId order = kUnsorted;
  DpDecision decision;
};

/// One live subset's row of the DP table: its entries are
/// entries[offset, offset + count), sorted by order.
struct DpSlot {
  TableSet subset = 0;
  uint32_t offset = 0;
  uint32_t count = 0;
  /// Page estimate the plan annotations and the DP's left inputs use:
  /// DpContext::SubsetPages for RunDpInto, the size-distribution mean for
  /// Algorithm D. Cached when the slot closes.
  double pages = 0;
};

/// Reusable storage for RunDpInto: a sparse DP table with one slot per
/// live subset.
///
/// Slots are appended in waves of equal subset size, ascending within
/// each wave, and all slots share one entry vector. A wave is built one
/// slot at a time: OpenSlot(s) appends s with room for num_predicates + 1
/// entries (a subset holds at most one entry per distinct order: unsorted
/// or one of its internal predicates), RetainBest fills it, and CloseSlot
/// trims the room to the entries actually kept — or pops the slot when
/// it kept none, so only live subsets stay. Lookups binary-search the
/// subset's wave; singletons (always live) sit at slot p directly.
///
/// Every vector keeps its capacity across runs, so a warmed scratch never
/// re-allocates on a same-shape query, and what it retains is bounded by
/// the largest query's live subsets. Single-threaded, like the DP itself.
class DpScratch {
 public:
  /// Empties the table for a query with `num_tables` relations; reuses
  /// capacity.
  void Prepare(int num_tables, int num_predicates);

  /// Starts the next wave: returns the subsets one table larger than a
  /// slot of the last wave, deduplicated and ascending. The caller opens a
  /// slot for each (in order) and closes it before opening the next.
  const std::vector<TableSet>& NextWave();

  /// Appends `s` as the open slot. `s` must sort after every slot of the
  /// current wave.
  void OpenSlot(TableSet s);

  /// Retains (order, cost, decision) in the open slot if it beats the
  /// current entry for `order` (strict <, first-seen wins ties —
  /// RetainBest's contract).
  void RetainBest(OrderId order, double cost, const DpDecision& decision);

  /// Closes the open slot. A slot that retained an entry caches
  /// `pages()` and stays; an empty one is popped (pages() is not called).
  template <typename PagesFn>
  void CloseSlot(const PagesFn& pages) {
    DpSlot& slot = slots_.back();
    if (slot.count == 0) {
      slots_.pop_back();
      return;
    }
    slot.pages = pages();
    used_ = slot.offset + slot.count;
  }

  /// The slot of live subset `s`, or nullptr if `s` retained nothing (or
  /// its wave has not been built yet).
  const DpSlot* Find(TableSet s) const;

  /// The sorted entries of `slot`. Pointers stay valid until the next
  /// OpenSlot.
  const DpFlatEntry* Entries(const DpSlot& slot) const {
    return entries_.data() + slot.offset;
  }

  /// Scratch for ConnectingPredicatesInto.
  std::vector<int>& preds() { return preds_; }

  /// Per-table remaining-work floors (g_t) for the cost-bounded DP;
  /// filled by RunDpInto when pruning engages, capacity reserved by
  /// Prepare so the warmed hot path stays allocation-free.
  std::vector<double>& table_floor() { return table_floor_; }

  /// Bytes of heap capacity currently retained across all scratch
  /// buffers — the high-water mark the steady state holds onto.
  size_t RetainedBytes() const;

  /// Releases every retained buffer back to the allocator and returns the
  /// number of bytes that were held. The next Prepare re-grows from
  /// scratch (one warm-up run re-pays the allocations). For long-lived
  /// serving threads that ran one outsized query and then idle.
  size_t Release();

  /// Root decision recorded by RunDpInto for MaterializeDpPlan.
  OrderId best_root_order = kUnsorted;
  bool root_needs_sort = false;

 private:
  std::vector<DpSlot> slots_;
  std::vector<DpFlatEntry> entries_;
  /// Start of each wave in slots_: waves_[k - 1] is the first slot of
  /// size k.
  std::vector<uint32_t> waves_;
  std::vector<TableSet> cand_;
  std::vector<int> preds_;
  std::vector<double> table_floor_;
  size_t used_ = 0;  ///< entries held by closed slots
  size_t room_ = 1;  ///< entries reserved for the open slot
  int num_tables_ = 0;
};

/// The per-thread scratch RunDp and Algorithm D run on. Exposed so tests
/// and benches can warm it explicitly; do not hold references across
/// threads.
DpScratch& ThreadLocalDpScratch();

/// Frees this thread's DP memory — the DpScratch above, Algorithm D's
/// size records and its thread-local DistArena — and returns the bytes
/// given back. Service loops call this when a worker goes idle after an
/// unusually large query (see tools/lec_serve_main.cc). An arena passed in
/// through OptimizerOptions::dist_arena belongs to its caller and is not
/// touched.
size_t ReleaseThreadLocalDpScratch();

namespace internal {

/// Frees this thread's Algorithm D size records and thread-local arena
/// (optimizer/algorithm_d.cc) and returns the bytes given back; part of
/// ReleaseThreadLocalDpScratch.
size_t ReleaseThreadLocalAlgorithmDTables();

/// Seeds the branch-and-bound incumbent: one left-deep plan built
/// greedily — start from the smallest relation, repeatedly append the
/// (relation, method, key, enforcer) extension with the cheapest
/// accumulated total. The accumulation mirrors RunDpInto's arithmetic
/// term for term (`left + right + enforcer + step`, same association
/// order), so the returned value is exactly the objective the DP assigns
/// this plan — an upper bound on the optimum that the prune limit can be
/// anchored to without any cross-arithmetic fudge. Cost-formula runs tick
/// incumbent_cost_evaluations, keeping cost_evaluations the pure DP count
/// (the units of Theorems 3.2/3.3). Returns +inf if the walk gets stuck
/// (it cannot for queries the DP accepts: connected queries always offer
/// an adjacent extension, disconnected ones permit cross products — but
/// the caller guards anyway and just runs unpruned).
template <DpCostProvider P>
double GreedyIncumbent(const DpContext& ctx, const P& cost,
                       DpScratch* scratch, OptimizeResult* result) {
  const Query& query = ctx.query();
  const OptimizerOptions& opts = ctx.options();
  int n = ctx.num_tables();
  QueryPos start = 0;
  for (QueryPos p = 1; p < n; ++p) {
    if (ctx.TablePages(p) < ctx.TablePages(start)) start = p;
  }
  TableSet s = TableSet{1} << start;
  double total = ctx.TablePages(start);
  OrderId order = kUnsorted;
  for (int size = 2; size <= n; ++size) {
    int phase_idx = size - 2;
    double left_pages = ctx.SubsetPages(s);
    double best = std::numeric_limits<double>::infinity();
    int best_j = -1;
    OrderId best_order = kUnsorted;
    for (QueryPos j = 0; j < n; ++j) {
      if (s >> j & 1) continue;
      if (ctx.CrossProductForbidden(s, j)) continue;
      query.ConnectingPredicatesInto(s, j, &scratch->preds());
      double right_pages = ctx.TablePages(j);
      double enforcer_cost = 0;
      ForEachJoinStep(
          opts, scratch->preds(), kEveryJoinMethod,
          [&](OrderId) {
            ++result->incumbent_cost_evaluations;
            enforcer_cost = cost.SortCost(right_pages, phase_idx);
          },
          [&](JoinMethod method, OrderId key, bool inner_sorted) {
            ++result->incumbent_cost_evaluations;
            bool left_sorted = key != kUnsorted && order == key;
            double step = cost.JoinCost(method, left_pages, right_pages,
                                        left_sorted, inner_sorted, phase_idx);
            double cand = total + right_pages +
                          (inner_sorted ? enforcer_cost : 0.0) + step;
            if (cand < best) {
              best = cand;
              best_j = static_cast<int>(j);
              best_order = DpContext::JoinOutputOrder(method, order, key);
            }
          });
    }
    if (best_j < 0) return std::numeric_limits<double>::infinity();
    s |= TableSet{1} << best_j;
    total = best;
    order = best_order;
  }
  if (query.required_order() && order != *query.required_order()) {
    ++result->incumbent_cost_evaluations;
    total += cost.SortCost(ctx.SubsetPages(query.AllTables()),
                           std::max(n - 2, 0));
  }
  return total;
}

}  // namespace internal

/// Replays the decisions recorded in `scratch` by the immediately
/// preceding RunDpInto on `ctx` into a plan tree (including the final
/// ORDER BY enforcer when one was charged). Every node's est_pages
/// annotation is the page estimate cached in the slot of the subset it
/// covers — DpContext's mean page counts for the scalar providers,
/// per-subset size-distribution means for Algorithm D.
PlanPtr MaterializeDpPlan(const DpContext& ctx, const DpScratch& scratch);

// ---------------------------------------------------------------------------
// Step contexts: each distinct join step costed once.
//
// Once RunDpInto fixes a (S_j, j) pair, a step's operands (the left and
// right input sizes, the phase) are fixed too, so its cost depends only on
// (method, left_sorted, inner_sorted) — yet every left entry, sort-merge
// key and inner alternative of the pair asks again. A step context is the
// pair's stack-held memo: it runs each distinct (method, left_sorted,
// inner_sorted) cost and the inner's enforcer sort cost at most once.
// Counters are charged per use, memoized or not: cost_evaluations keeps
// counting the paper's formula applications per candidate (the units of
// Theorems 3.2/3.3), not the memo's work.
// ---------------------------------------------------------------------------

/// The memo of one step context: each (method, left_sorted, inner_sorted)
/// step cost and the inner's enforcer sort cost, computed at most once.
class StepMemo {
 public:
  /// User-provided, so even a value-initialized memo leaves value_
  /// unwritten: only done_ says which slots hold a value.
  StepMemo() {}

  template <typename F>
  double Join(JoinMethod method, bool left_sorted, bool inner_sorted,
              F&& compute) {
    size_t slot = 4 * static_cast<size_t>(method) + 2 * size_t{left_sorted} +
                  size_t{inner_sorted};
    if (!(done_ >> slot & 1)) {
      value_[slot] = compute();
      done_ |= uint32_t{1} << slot;
    }
    return value_[slot];
  }

  template <typename F>
  double Enforcer(F&& compute) {
    if (!have_enforcer_) {
      enforcer_ = compute();
      have_enforcer_ = true;
    }
    return enforcer_;
  }

 private:
  uint32_t done_ = 0;  ///< bit `slot` set once value_[slot] holds it
  bool have_enforcer_ = false;
  double enforcer_ = 0;
  double value_[4 * (static_cast<size_t>(JoinMethod::kHybridHash) + 1)];
};

/// A provider that supplies RunDpInto's costing hooks itself instead of
/// JoinCost/SortCost — Algorithm D, whose step costs are expectations over
/// result-size distributions (optimizer/algorithm_d.h):
///
///   * LeafCost(p): relation p's access cost, its depth-1 entry.
///   * SlotPages(s): the page estimate live subset s's slot caches — the
///     plan annotation, and the left input size of every step above it.
///   * Step(left, j, phase): the step context of joining j to the subset
///     of slot `left`. Its Join(method, left_sorted, inner_sorted,
///     &evaluations) and Enforcer(&evaluations) return a step's cost and
///     the inner's sort-enforcer cost, each adding the provider's charge
///     for that use to `evaluations`.
///   * RootSort(s, pages, phase, &evaluations): the final ORDER BY sort
///     over the whole query, with its charge.
///
/// Such a provider exposes no floors, so pruning stays compiled out.
/// Plain DpCostProviders get these hooks from internal::ScalarSteps.
template <typename P>
concept DpStepProvider =
    requires(const P& p, QueryPos j, TableSet s, const DpSlot& left,
             int phase, double pages, size_t* evaluations, JoinMethod m,
             bool sorted) {
      { p.LeafCost(j) } -> std::convertible_to<double>;
      { p.SlotPages(s) } -> std::convertible_to<double>;
      {
        p.Step(left, j, phase).Join(m, sorted, sorted, evaluations)
      } -> std::convertible_to<double>;
      { p.Step(left, j, phase).Enforcer(evaluations) }
          -> std::convertible_to<double>;
      { p.RootSort(s, pages, phase, evaluations) }
          -> std::convertible_to<double>;
    };

namespace internal {

/// RunDpInto's hooks for a plain DpCostProvider: leaves cost their mean
/// page count, slots cache DpContext::SubsetPages, and a step context
/// memoizes the provider's JoinCost and enforcer SortCost at the pair's
/// fixed sizes and phase. Every use charges one cost evaluation.
template <DpCostProvider P>
class ScalarSteps {
 public:
  struct StepContext {
    double Join(JoinMethod method, bool left_sorted, bool inner_sorted,
                size_t* evaluations) {
      ++*evaluations;
      return memo.Join(method, left_sorted, inner_sorted, [&] {
        return cost->JoinCost(method, left_pages, right_pages, left_sorted,
                              inner_sorted, phase);
      });
    }
    double Enforcer(size_t* evaluations) {
      ++*evaluations;
      return memo.Enforcer([&] { return cost->SortCost(right_pages, phase); });
    }

    const P* cost;
    double left_pages;
    double right_pages;
    int phase;
    StepMemo memo{};
  };

  ScalarSteps(const DpContext& ctx, const P& cost) : ctx_(&ctx), cost_(&cost) {}

  double LeafCost(QueryPos p) const { return ctx_->TablePages(p); }
  double SlotPages(TableSet s) const { return ctx_->SubsetPages(s); }
  StepContext Step(const DpSlot& left, QueryPos j, int phase) const {
    return {cost_, left.pages, ctx_->TablePages(j), phase};
  }
  double RootSort(TableSet, double pages, int phase,
                  size_t* evaluations) const {
    ++*evaluations;
    return cost_->SortCost(pages, phase);
  }

 private:
  const DpContext* ctx_;
  const P* cost_;
};

/// The DP core behind RunDpInto: `steps` supplies the costing hooks (see
/// DpStepProvider), `cost` the branch-and-bound floors when it is a
/// DpPruningProvider.
template <typename S, typename P>
void RunDpCore(const DpContext& ctx, const S& steps, const P& cost,
               DpScratch* scratch, OptimizeResult* result) {
  const Query& query = ctx.query();
  const OptimizerOptions& opts = ctx.options();
  int n = ctx.num_tables();
  scratch->Prepare(n, query.num_predicates());
  result->plan = nullptr;
  result->objective = 0;
  result->candidates_considered = 0;
  result->cost_evaluations = 0;
  result->elapsed_seconds = 0;
  result->candidates_by_phase.assign(static_cast<size_t>(std::max(n - 1, 1)),
                                     0);
  result->pruned_expansions = 0;
  result->pruned_candidates = 0;
  result->pruned_entries = 0;
  result->incumbent_cost_evaluations = 0;

  // Depth 1: access paths.
  for (QueryPos p = 0; p < n; ++p) {
    TableSet s = TableSet{1} << p;
    scratch->OpenSlot(s);
    scratch->RetainBest(kUnsorted, steps.LeafCost(p), DpDecision{});
    scratch->CloseSlot([&] { return steps.SlotPages(s); });
  }

  // Cost-bounded pruning (branch-and-bound). Seed an incumbent from a
  // greedy left-deep plan, then discard DP work that provably cannot
  // produce anything under the incumbent: an entry with accumulated cost
  // c for subset s can only finish at c + REM(s) or more, where REM(s) =
  // Σ_{t ∉ s} g_t sums per-table floors g_t = pages_t + min_m
  // RemStepFloor(m, a_min, pages_t) (every remaining table must still be
  // scanned and joined as the inner of SOME step whose outer has at least
  // a_min = MinSubsetPages() pages). The 1e-9 relative slack on the limit
  // keeps every prefix of an optimal chain strictly inside it despite
  // floating-point rounding in the bound arithmetic, so pruned and
  // unpruned runs return bit-identical objectives, plans and root
  // tie-breaks (fuzz invariant I9) — pruning only ever removes candidates
  // whose completed total strictly exceeds the optimum.
  bool prune = false;
  double prune_limit = std::numeric_limits<double>::infinity();
  if constexpr (DpPruningProvider<P>) {
    bool want =
        opts.dp_pruning == DpPruning::kOn ||
        (opts.dp_pruning == DpPruning::kAuto && P::kPruningDefaultOn);
    if (want && !opts.join_methods.empty() && n >= 2) {
      double incumbent = GreedyIncumbent(ctx, cost, scratch, result);
      if (std::isfinite(incumbent)) {
        prune = true;
        prune_limit = incumbent * (1.0 + 1e-9);
        double a_min = ctx.MinSubsetPages();
        std::vector<double>& g = scratch->table_floor();
        g.assign(static_cast<size_t>(n), 0.0);
        for (QueryPos t = 0; t < n; ++t) {
          double b = ctx.TablePages(t);
          double floor = std::numeric_limits<double>::infinity();
          for (JoinMethod m : opts.join_methods) {
            floor = std::min(floor, cost.RemStepFloor(m, a_min, b));
          }
          g[t] = b + floor;
        }
      }
    }
  }

  // Depths 2..n, in subset-size order (phase of the join = size - 2).
  // Wave enumeration: instead of scanning all 2^n subsets per size (which
  // dominates sparse join graphs — a chain has O(n^2) connected subsets
  // but the scan still pays n·2^n popcount tests), each wave's candidate
  // targets are the previous wave's live slots extended by one table,
  // deduplicated and ascending (DpScratch::NextWave). The per-size
  // processing order — and with it every RetainBest call, counter tick and
  // tie-break — is therefore bit-identical to the full ascending scan: a
  // subset the scan visits but this enumeration skips has no live child
  // and would have done nothing.
  for (int size = 2; size <= n; ++size) {
    int phase_idx = size - 2;
    for (TableSet s : scratch->NextWave()) {
      // Floor on everything outside s: still-unscanned tables plus their
      // eventual join steps. O(n) per candidate subset.
      double rem_after = 0;
      if (prune) {
        const std::vector<double>& g = scratch->table_floor();
        for (QueryPos t = 0; t < n; ++t) {
          if (!(s >> t & 1)) rem_after += g[t];
        }
      }
      scratch->OpenSlot(s);
      for (QueryPos j : MemberRange(s)) {
        TableSet sj = s & ~(TableSet{1} << j);
        const DpSlot* left = scratch->Find(sj);
        if (left == nullptr) continue;
        if (ctx.CrossProductForbidden(sj, j)) continue;
        query.ConnectingPredicatesInto(sj, j, &scratch->preds());
        const std::vector<int>& preds = scratch->preds();
        double right_cost =
            scratch->Entries(*scratch->Find(TableSet{1} << j))[0].cost;
        auto step = steps.Step(*left, j, phase_idx);

        // Cheapest conceivable step joining j to any left entry — shared
        // by every left expansion of this (s, j) pair.
        double step_floor_min = 0;
        if constexpr (DpPruningProvider<P>) {
          if (prune) {
            step_floor_min = std::numeric_limits<double>::infinity();
            for (JoinMethod m : opts.join_methods) {
              step_floor_min = std::min(
                  step_floor_min,
                  cost.StepFloor(m, left->pages, ctx.TablePages(j)));
            }
          }
        }

        const DpFlatEntry* lefts = scratch->Entries(*left);
        for (uint32_t li = 0; li < left->count; ++li) {
          OrderId left_order = lefts[li].order;
          double left_cost = lefts[li].cost;
          if constexpr (DpPruningProvider<P>) {
            if (prune && left_cost + right_cost + step_floor_min + rem_after >
                             prune_limit) {
              ++result->pruned_expansions;
              continue;
            }
          }
          double enforcer_cost = 0;
          ForEachJoinStep(
              opts, preds,
              [&]([[maybe_unused]] JoinMethod method,
                  [[maybe_unused]] size_t num_steps) {
                if constexpr (DpPruningProvider<P>) {
                  if (prune) {
                    double floor =
                        cost.StepFloor(method, left->pages, ctx.TablePages(j));
                    if (left_cost + right_cost + floor + rem_after >
                        prune_limit) {
                      result->pruned_candidates += num_steps;
                      return false;
                    }
                  }
                }
                return true;
              },
              [&](OrderId) {
                enforcer_cost = step.Enforcer(&result->cost_evaluations);
              },
              [&](JoinMethod method, OrderId key, bool inner_sorted) {
                ++result->candidates_considered;
                ++result->candidates_by_phase[static_cast<size_t>(phase_idx)];
                bool left_sorted = key != kUnsorted && left_order == key;
                double step_cost = step.Join(method, left_sorted, inner_sorted,
                                             &result->cost_evaluations);
                double total = left_cost + right_cost +
                               (inner_sorted ? enforcer_cost : 0.0) +
                               step_cost;
                if constexpr (DpPruningProvider<P>) {
                  // Evaluated but unable to beat the incumbent once its
                  // remaining work is added: drop instead of retain. Any
                  // candidate on an optimal chain has total + REM(s) at
                  // most the optimum, strictly inside the slacked limit.
                  if (prune && total + rem_after > prune_limit) {
                    ++result->pruned_entries;
                    return;
                  }
                }
                OrderId out_order =
                    DpContext::JoinOutputOrder(method, left_order, key);
                DpDecision d;
                d.j = static_cast<int16_t>(j);
                d.key = static_cast<int16_t>(key);
                d.left_order = static_cast<int16_t>(left_order);
                d.method = method;
                d.inner_sorted = inner_sorted;
                scratch->RetainBest(out_order, total, d);
              });
        }
      }
      scratch->CloseSlot([&] { return steps.SlotPages(s); });
    }
  }

  // Root: enforce the query's ORDER BY if present, then take the minimum.
  const DpSlot* root = scratch->Find(query.AllTables());
  if (root == nullptr) {
    throw std::runtime_error(
        "no plan found (disconnected query with cross products forbidden?)");
  }
  const DpFlatEntry* roots = scratch->Entries(*root);
  double best = std::numeric_limits<double>::infinity();
  int last_phase = std::max(n - 2, 0);
  scratch->best_root_order = kUnsorted;
  scratch->root_needs_sort = false;
  for (uint32_t ri = 0; ri < root->count; ++ri) {
    double total = roots[ri].cost;
    bool needs_sort =
        query.required_order() && roots[ri].order != *query.required_order();
    if (needs_sort) {
      total += steps.RootSort(root->subset, root->pages, last_phase,
                              &result->cost_evaluations);
    }
    if (total < best) {
      best = total;
      scratch->best_root_order = roots[ri].order;
      scratch->root_needs_sort = needs_sort;
    }
  }
  result->objective = best;
}

}  // namespace internal

/// The objective-only DP core: fills `result` (objective, counters; plan
/// left null) using `scratch` for all mutable state. Steady-state
/// allocation-free: after one warm-up call on a same-shape query, repeat
/// calls never touch the heap. See RunDp for the semantics.
///
/// `cost` is a DpCostProvider (costed through internal::ScalarSteps) or a
/// DpStepProvider (its own hooks). Each (S_j, j) pair gets one step
/// context on the stack, so each distinct step cost runs once per pair.
template <typename P>
  requires DpCostProvider<P> || DpStepProvider<P>
void RunDpInto(const DpContext& ctx, const P& cost, DpScratch* scratch,
               OptimizeResult* result) {
  if constexpr (DpStepProvider<P>) {
    internal::RunDpCore(ctx, cost, cost, scratch, result);
  } else {
    internal::RunDpCore(ctx, internal::ScalarSteps<P>(ctx, cost), cost,
                        scratch, result);
  }
}

/// Runs the shared single-best DP: one entry per (subset, order), costing
/// via the provider. This single routine *is* System R (LSC) when the
/// provider evaluates at one memory value and Algorithm C (LEC) when it
/// evaluates expected costs — the paper's point that the extension is "a
/// relatively small and localized change" (§3.3).
/// Runs on the thread-local scratch (objective core + one plan
/// materialization) for every query DpContext accepts (n ≤ 20); there is
/// no size threshold and no second path.
/// Note on timing: RunDp does not stamp elapsed_seconds — the public
/// Optimize* entry points own that field (their span includes context
/// construction and any per-phase precomputation). Direct RunDp callers
/// that want a time wrap the call in a WallTimer themselves.
template <typename P>
  requires DpCostProvider<P> || DpStepProvider<P>
OptimizeResult RunDp(const DpContext& ctx, const P& cost) {
  OptimizeResult result;
  DpScratch* scratch = &ThreadLocalDpScratch();
  RunDpInto(ctx, cost, scratch, &result);
  result.plan = MaterializeDpPlan(ctx, *scratch);
  return result;
}

}  // namespace lec

#endif  // LECOPT_OPTIMIZER_DP_COMMON_H_
