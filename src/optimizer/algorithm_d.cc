#include "optimizer/algorithm_d.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cost/ec_cache.h"
#include "cost/expected_cost.h"
#include "cost/fast_expected_cost.h"

namespace lec {

namespace {

/// Fast paths evaluate the undiscounted paper formulas for the three
/// classic methods; with the interesting-orders discount active for this
/// step, or for the hybrid-hash extension (whose cost is not a step
/// function of memory), we fall back to the naive enumeration.
bool FastPathValid(const CostModel& model, JoinMethod method,
                   bool left_sorted, bool right_sorted) {
  if (method == JoinMethod::kHybridHash) return false;
  return !model.options().sorted_input_discount ||
         (!left_sorted && !right_sorted);
}

// ---------------------------------------------------------------------------
// Size propagation and EC evaluation run on arena-backed SoA views
// (dist/kernel.h); decisions are recorded in the sparse DP table and the
// plan is materialized once at the end.
//
// Known duplication: the candidate-enumeration nest below repeats
// RunDpInto's shape (dp_common.h) with a distribution-valued cost seam —
// per-subset views/hashes/means, the cache-or-compute step, D's
// cost_evaluations accounting. Folding both into one template needs a
// richer provider seam (per-(subset, j) context) than DpCostProvider
// offers today. Until then the two copies are held to the same answers
// from outside: fuzz I1 re-scores D's plan and checks it against the
// exhaustive oracle, I2 collapses D onto lec_static when both spread axes
// are 1, and I7 holds the fast-EC sweeps to the naive enumerator.
// ---------------------------------------------------------------------------

/// Algorithm D's per-thread size tables, indexed by subset. They only
/// grow; ReleaseThreadLocalDpScratch frees them.
struct DScratch {
  std::vector<DistView> size_view;
  std::vector<uint64_t> size_hash;
  std::vector<double> size_mean;

  void Prepare(size_t num_subsets) {
    if (size_view.size() < num_subsets) {
      size_view.resize(num_subsets);
      size_hash.resize(num_subsets);
      size_mean.resize(num_subsets);
    }
  }

  size_t Release() {
    size_t bytes = size_view.capacity() * sizeof(DistView) +
                   size_hash.capacity() * sizeof(uint64_t) +
                   size_mean.capacity() * sizeof(double);
    std::vector<DistView>().swap(size_view);
    std::vector<uint64_t>().swap(size_hash);
    std::vector<double>().swap(size_mean);
    return bytes;
  }
};

DScratch& ThreadLocalDScratch() {
  thread_local DScratch scratch;
  return scratch;
}

DistArena& ThreadLocalDArena() {
  thread_local DistArena arena;
  return arena;
}

}  // namespace

OptimizeResult OptimizeAlgorithmD(const Query& query, const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  const OptimizerOptions& options) {
  WallTimer timer;
  DpContext ctx(query, catalog, options);
  int n = ctx.num_tables();
  size_t num_subsets = size_t{1} << n;
  OptimizeResult result;
  result.candidates_by_phase.assign(static_cast<size_t>(std::max(n - 1, 1)),
                                    0);
  EcCache* cache = options.ec_cache;
  DistArena* arena = options.dist_arena != nullptr ? options.dist_arena
                                                   : &ThreadLocalDArena();
  arena->Reset();  // per-DP-instance reset: all views below die with us
  DScratch& sc = ThreadLocalDScratch();
  sc.Prepare(num_subsets);
  DpScratch& dp = ThreadLocalDpScratch();
  dp.Prepare(n, query.num_predicates());

  DistView mem = memory.AsView();
  uint64_t mem_hash = cache != nullptr ? memory.ContentHash() : 0;
  EcMemoryProfile profile = BuildEcMemoryProfile(mem, arena);

  // Memoized expected sort cost (enforcers and the final ORDER BY).
  auto sort_ec = [&](TableSet s) {
    auto compute = [&]() {
      return ExpectedSortCostView(model, sc.size_view[s], mem);
    };
    return cache != nullptr
               ? cache->SortEcView(sc.size_view[s], sc.size_hash[s], mem,
                                   mem_hash, compute)
               : compute();
  };

  // Size distribution per subset (independent of join order; computed once
  // per subset as §3.6.3 recommends). Base-table views are copied into the
  // arena — SizeDistribution() returns a temporary.
  for (QueryPos p = 0; p < n; ++p) {
    TableSet s = TableSet{1} << p;
    Distribution base = catalog.table(query.table(p)).SizeDistribution();
    DistView rebucketed =
        RebucketInto(base.AsView(), options.size_buckets,
                     RebucketStrategy::kEqualWidth, arena);
    if (rebucketed.values == base.AsView().values) {
      rebucketed = CopyInto(rebucketed, arena);  // un-alias the temporary
    }
    sc.size_view[s] = rebucketed;
  }
  for (int size = 2; size <= n; ++size) {
    for (TableSet s = 1; s < num_subsets; ++s) {
      if (SetSize(s) != size) continue;
      // |S| = |S_j| · |A_j| · σ for any j ∈ S (every internal predicate is
      // counted exactly once across the recursive decomposition), so one
      // derivation per subset suffices (§3.6.3).
      QueryPos j = *MemberRange(s).begin();
      TableSet sj = s & ~(TableSet{1} << j);
      query.ConnectingPredicatesInto(sj, j, &dp.preds());
      DistView sel = CombinedSelectivityViewInto(query, dp.preds(),
                                                 options.size_buckets, arena);
      sc.size_view[s] =
          JoinSizeViewInto(sc.size_view[sj], sc.size_view[TableSet{1} << j],
                           sel, options.size_buckets, options.size_mode,
                           arena);
    }
  }
  for (TableSet s = 1; s < num_subsets; ++s) {
    sc.size_mean[s] = ViewMean(sc.size_view[s]);
    if (cache != nullptr) sc.size_hash[s] = ViewContentHash(sc.size_view[s]);
  }

  // The decision table is the same sparse live-subset table RunDpInto
  // fills (dp_common.h), built wave by wave; each slot caches its subset's
  // size-distribution mean, the page annotation of the replayed plan.
  for (QueryPos p = 0; p < n; ++p) {
    TableSet s = TableSet{1} << p;
    // Scan cost linear in size.
    dp.OpenSlot(s);
    dp.RetainBest(kUnsorted, sc.size_mean[s], DpDecision{});
    dp.CloseSlot([&] { return sc.size_mean[s]; });
  }

  for (int size = 2; size <= n; ++size) {
    for (TableSet s : dp.NextWave()) {
      dp.OpenSlot(s);
      for (QueryPos j : MemberRange(s)) {
        TableSet sj = s & ~(TableSet{1} << j);
        const DpSlot* left = dp.Find(sj);
        if (left == nullptr) continue;
        if (ctx.CrossProductForbidden(sj, j)) continue;
        query.ConnectingPredicatesInto(sj, j, &dp.preds());
        const std::vector<int>& preds = dp.preds();
        TableSet rs_set = TableSet{1} << j;
        DistView left_size = sc.size_view[sj];
        DistView right_size = sc.size_view[rs_set];
        double right_ec = dp.Entries(*dp.Find(rs_set))[0].cost;

        const DpFlatEntry* lefts = dp.Entries(*left);
        for (uint32_t li = 0; li < left->count; ++li) {
          OrderId left_order = lefts[li].order;
          double left_ec = lefts[li].cost;
          for (JoinMethod method : options.join_methods) {
            bool sort_merge = method == JoinMethod::kSortMerge;
            if (sort_merge && preds.empty()) continue;
            size_t num_keys = sort_merge ? preds.size() : 1;
            for (size_t ki = 0; ki < num_keys; ++ki) {
              OrderId key = sort_merge ? preds[ki] : kUnsorted;
              bool with_enforcer =
                  sort_merge && options.consider_sort_enforcers;
              double enforcer_ec = with_enforcer ? sort_ec(rs_set) : 0.0;
              for (int inner = 0; inner < (with_enforcer ? 2 : 1); ++inner) {
                bool rs = inner == 1;
                ++result.candidates_considered;
                ++result.candidates_by_phase[static_cast<size_t>(size - 2)];
                bool ls = key != kUnsorted && left_order == key;
                // The evaluation counters tick only when the formulas
                // actually run; a cache hit skips both the work and the
                // counter — cost_evaluations is the measure of work done.
                auto compute_step = [&]() -> double {
                  if (options.use_fast_ec &&
                      FastPathValid(model, method, ls, rs)) {
                    result.cost_evaluations +=
                        left_size.n + right_size.n + mem.n;
                    return FastEcJoin(method, left_size, right_size, profile,
                                      sc.size_mean[sj],
                                      sc.size_mean[rs_set]);
                  }
                  result.cost_evaluations +=
                      left_size.n * right_size.n * mem.n;
                  return ExpectedJoinCostView(model, method, left_size,
                                              right_size, mem, ls, rs);
                };
                double step_ec =
                    cache != nullptr
                        ? cache->JoinEcView(method, ls, rs, left_size,
                                            sc.size_hash[sj], right_size,
                                            sc.size_hash[rs_set], mem,
                                            mem_hash, compute_step)
                        : compute_step();
                double total =
                    left_ec + right_ec + (rs ? enforcer_ec : 0.0) + step_ec;
                OrderId out_order =
                    DpContext::JoinOutputOrder(method, left_order, key);
                DpDecision d;
                d.j = static_cast<int16_t>(j);
                d.key = static_cast<int16_t>(key);
                d.left_order = static_cast<int16_t>(left_order);
                d.method = method;
                d.inner_sorted = rs;
                dp.RetainBest(out_order, total, d);
              }
            }
          }
        }
      }
      dp.CloseSlot([&] { return sc.size_mean[s]; });
    }
  }

  TableSet all = query.AllTables();
  const DpSlot* root = dp.Find(all);
  if (root == nullptr) throw std::runtime_error("no plan found for query");
  const DpFlatEntry* roots = dp.Entries(*root);
  double best = std::numeric_limits<double>::infinity();
  OrderId best_order = kUnsorted;
  bool best_needs_sort = false;
  for (uint32_t ri = 0; ri < root->count; ++ri) {
    double total = roots[ri].cost;
    bool needs_sort =
        query.required_order() && roots[ri].order != *query.required_order();
    if (needs_sort) total += sort_ec(all);
    if (total < best) {
      best = total;
      best_order = roots[ri].order;
      best_needs_sort = needs_sort;
    }
  }
  result.objective = best;
  PlanPtr plan = ReplayDpDecisions(ctx, dp, all, best_order);
  if (best_needs_sort) plan = MakeSort(plan, *query.required_order());
  result.plan = plan;
  result.elapsed_seconds = timer.Seconds();
  return result;
}

namespace internal {

size_t ReleaseThreadLocalAlgorithmDTables() {
  return ThreadLocalDScratch().Release();
}

}  // namespace internal

}  // namespace lec
