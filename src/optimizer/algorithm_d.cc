#include "optimizer/algorithm_d.h"

#include <algorithm>
#include <limits>
#include <memory>
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
// RunDpInto's shape (dp_common.h) — the (s, j) walk over NextWave, the
// left-entry × method × key × enforcer loops and the DpDecision they
// retain — with a distribution-valued cost seam: per-subset size records,
// the memoized cache-or-compute step, D's cost_evaluations accounting.
// Folding both into one template needs a richer provider seam (per-(subset,
// j) context) than DpCostProvider offers today. Until then the two copies
// are held to the same answers from outside: fuzz I1 re-scores D's plan
// and checks it against the exhaustive oracle, I2 collapses D onto
// lec_static when both spread axes are 1, and I7 holds the fast-EC sweeps
// to the naive enumerator.
// ---------------------------------------------------------------------------

/// One subset's result-size distribution and what D reads off it.
struct SizeRecord {
  TableSet subset = 0;
  DistView view;
  double mean = 0;
  uint64_t hash = 0;  ///< content hash; 0 unless an EcCache is attached
};

/// Algorithm D's per-thread size records, keyed by subset: open addressing
/// with linear probing over a power-of-two window of `index_`, sized for
/// this run's records. Only the subsets D reads get a record (see
/// SizeOf), and both vectors keep their capacity across runs, so a warmed
/// table never allocates. ReleaseThreadLocalDpScratch frees them.
class SizeTable {
 public:
  /// Empties the table; records carry content hashes iff `hash` (only an
  /// EcCache reads them).
  void Clear(bool hash) {
    records_.clear();
    hash_ = hash;
    Rehash(kMinBits);
  }

  const SizeRecord* Find(TableSet s) const {
    for (size_t i = Home(s);; i = (i + 1) & Mask()) {
      uint32_t slot = index_[i];
      if (slot == 0) return nullptr;
      if (records_[slot - 1].subset == s) return &records_[slot - 1];
    }
  }

  /// Adds the record of `s`, which must not have one yet.
  const SizeRecord& Insert(TableSet s, DistView view) {
    if (2 * (records_.size() + 1) > (size_t{1} << bits_)) Rehash(bits_ + 1);
    SizeRecord r;
    r.subset = s;
    r.view = view;
    r.mean = ViewMean(view);
    if (hash_) r.hash = ViewContentHash(view);
    records_.push_back(r);
    Place(records_.size());
    return records_.back();
  }

  size_t Release() {
    size_t bytes = records_.capacity() * sizeof(SizeRecord) +
                   index_.capacity() * sizeof(uint32_t);
    std::vector<SizeRecord>().swap(records_);
    std::vector<uint32_t>().swap(index_);
    return bytes;
  }

 private:
  static constexpr int kMinBits = 6;

  size_t Mask() const { return (size_t{1} << bits_) - 1; }
  size_t Home(TableSet s) const {  // Fibonacci hashing
    return static_cast<size_t>((uint64_t{s} * 0x9E3779B97F4A7C15ull) >>
                               (64 - bits_));
  }
  void Place(size_t slot) {
    size_t i = Home(records_[slot - 1].subset);
    while (index_[i] != 0) i = (i + 1) & Mask();
    index_[i] = static_cast<uint32_t>(slot);
  }
  /// Zeroes a window of 2^bits slots and re-places every record in it.
  void Rehash(int bits) {
    bits_ = bits;
    if (index_.size() < (size_t{1} << bits_)) index_.resize(size_t{1} << bits_);
    std::fill_n(index_.begin(), size_t{1} << bits_, 0u);
    for (size_t slot = 1; slot <= records_.size(); ++slot) Place(slot);
  }

  std::vector<SizeRecord> records_;
  std::vector<uint32_t> index_;  ///< record position + 1; 0 is empty
  int bits_ = kMinBits;
  bool hash_ = false;
};

SizeTable& ThreadLocalSizeTable() {
  thread_local SizeTable table;
  return table;
}

/// Held by pointer so ReleaseThreadLocalDpScratch can give the arena's
/// blocks back; the next run re-creates it.
std::unique_ptr<DistArena>& ThreadLocalDArenaSlot() {
  thread_local std::unique_ptr<DistArena> arena;
  return arena;
}

DistArena& ThreadLocalDArena() {
  std::unique_ptr<DistArena>& arena = ThreadLocalDArenaSlot();
  if (arena == nullptr) arena = std::make_unique<DistArena>();
  return *arena;
}

/// What SizeOf needs to derive a record.
struct SizeDerivation {
  const Query& query;
  const OptimizerOptions& options;
  DistArena* arena;
  std::vector<int>* preds;
  SizeTable* table;
};

/// The size record of subset `s` (|s| >= 1; singletons are seeded up
/// front). |S| = |S_j| · |A_j| · σ for any j ∈ S (every internal predicate
/// is counted exactly once across the recursive decomposition), so one
/// derivation per subset suffices (§3.6.3). It always drops the lowest
/// member j, so a missing record first derives the subsets that chain
/// passes through — which is all D ever computes besides the live
/// subsets, and every record has the bits a full 2^n sweep would give it.
SizeRecord SizeOf(const SizeDerivation& d, TableSet s) {
  if (const SizeRecord* r = d.table->Find(s)) return *r;
  QueryPos j = *MemberRange(s).begin();
  TableSet sj = s & ~(TableSet{1} << j);
  DistView left = SizeOf(d, sj).view;
  DistView right = d.table->Find(TableSet{1} << j)->view;
  d.query.ConnectingPredicatesInto(sj, j, d.preds);
  DistView sel = CombinedSelectivityViewInto(d.query, *d.preds,
                                             d.options.size_buckets, d.arena);
  return d.table->Insert(
      s,
      JoinSizeViewInto(left, right, sel, d.options.size_buckets,
                       d.options.size_mode, d.arena));
}

/// One memoized step EC of the current (S_j, j); see the (s, j) loop.
struct StepMemo {
  double value = 0;
  bool done = false;
};

constexpr size_t kStepMemoSlots =
    4 * (static_cast<size_t>(JoinMethod::kHybridHash) + 1);

size_t StepMemoSlot(JoinMethod method, bool left_sorted, bool right_sorted) {
  return 4 * static_cast<size_t>(method) + 2 * size_t{left_sorted} +
         size_t{right_sorted};
}

}  // namespace

OptimizeResult OptimizeAlgorithmD(const Query& query, const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  const OptimizerOptions& options) {
  WallTimer timer;
  DpContext ctx(query, catalog, options);
  int n = ctx.num_tables();
  OptimizeResult result;
  result.candidates_by_phase.assign(static_cast<size_t>(std::max(n - 1, 1)),
                                    0);
  EcCache* cache = options.ec_cache;
  DistArena* arena = options.dist_arena != nullptr ? options.dist_arena
                                                   : &ThreadLocalDArena();
  arena->Reset();  // per-DP-instance reset: all views below die with us
  SizeTable& sizes = ThreadLocalSizeTable();
  sizes.Clear(cache != nullptr);
  DpScratch& dp = ThreadLocalDpScratch();
  dp.Prepare(n, query.num_predicates());
  SizeDerivation derive{query, options, arena, &dp.preds(), &sizes};

  DistView mem = memory.AsView();
  uint64_t mem_hash = cache != nullptr ? memory.ContentHash() : 0;
  EcMemoryProfile profile = BuildEcMemoryProfile(mem, arena);

  // Memoized expected sort cost (enforcers and the final ORDER BY).
  auto sort_ec = [&](const SizeRecord& r) {
    auto compute = [&]() { return ExpectedSortCostView(model, r.view, mem); };
    return cache != nullptr
               ? cache->SortEcView(r.view, r.hash, mem, mem_hash, compute)
               : compute();
  };

  // Base-table size views are copied into the arena — SizeDistribution()
  // returns a temporary. Every other record is derived on demand (SizeOf)
  // when its subset's slot closes live.
  for (QueryPos p = 0; p < n; ++p) {
    Distribution base = catalog.table(query.table(p)).SizeDistribution();
    DistView rebucketed =
        RebucketInto(base.AsView(), options.size_buckets,
                     RebucketStrategy::kEqualWidth, arena);
    if (rebucketed.values == base.AsView().values) {
      rebucketed = CopyInto(rebucketed, arena);  // un-alias the temporary
    }
    sizes.Insert(TableSet{1} << p, rebucketed);
  }

  // The decision table is the same sparse live-subset table RunDpInto
  // fills (dp_common.h), built wave by wave; each slot caches its subset's
  // size-distribution mean, the page annotation of the replayed plan.
  for (QueryPos p = 0; p < n; ++p) {
    TableSet s = TableSet{1} << p;
    double mean = sizes.Find(s)->mean;
    // Scan cost linear in size.
    dp.OpenSlot(s);
    dp.RetainBest(kUnsorted, mean, DpDecision{});
    dp.CloseSlot([&] { return mean; });
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
        // Both live, so both already hold a record.
        const SizeRecord left_size = *sizes.Find(sj);
        const SizeRecord right_size = *sizes.Find(rs_set);
        double right_ec = dp.Entries(*dp.Find(rs_set))[0].cost;

        // The step EC's operands are fixed by (S_j, j), so it depends only
        // on (method, left_sorted, right_sorted): each distinct triple runs
        // once and is reused for every left entry and sort-merge key, and
        // the enforcer's sort EC runs once. A reuse charges what a
        // recompute would: the formula's weight without an EcCache,
        // nothing with one (a cache hit skips both the work and the
        // counter). The memo key is the exact triple even where the
        // discount is off and the flags do not change the value, because
        // the cache's key holds them too: the first use of each triple
        // meets the cache in the order the unmemoized loop did, so the
        // cache's misses and entries do not change.
        StepMemo memo[kStepMemoSlots];
        auto step_ec = [&](JoinMethod method, bool ls, bool rs) {
          bool fast =
              options.use_fast_ec && FastPathValid(model, method, ls, rs);
          size_t weight = fast ? left_size.view.n + right_size.view.n + mem.n
                               : left_size.view.n * right_size.view.n * mem.n;
          StepMemo& m = memo[StepMemoSlot(method, ls, rs)];
          if (m.done) {
            if (cache == nullptr) result.cost_evaluations += weight;
            return m.value;
          }
          auto compute = [&]() -> double {
            result.cost_evaluations += weight;
            return fast ? FastEcJoin(method, left_size.view, right_size.view,
                                     profile, left_size.mean, right_size.mean)
                        : ExpectedJoinCostView(model, method, left_size.view,
                                               right_size.view, mem, ls, rs);
          };
          m.value = cache != nullptr
                        ? cache->JoinEcView(method, ls, rs, left_size.view,
                                            left_size.hash, right_size.view,
                                            right_size.hash, mem, mem_hash,
                                            compute)
                        : compute();
          m.done = true;
          return m.value;
        };
        bool have_enforcer_ec = false;
        double enforcer_ec = 0.0;

        const DpFlatEntry* lefts = dp.Entries(*left);
        for (uint32_t li = 0; li < left->count; ++li) {
          OrderId left_order = lefts[li].order;
          double left_ec = lefts[li].cost;
          for (JoinMethod method : options.join_methods) {
            bool sort_merge = method == JoinMethod::kSortMerge;
            if (sort_merge && preds.empty()) continue;
            size_t num_keys = sort_merge ? preds.size() : 1;
            bool with_enforcer = sort_merge && options.consider_sort_enforcers;
            if (with_enforcer && !have_enforcer_ec) {
              enforcer_ec = sort_ec(right_size);
              have_enforcer_ec = true;
            }
            for (size_t ki = 0; ki < num_keys; ++ki) {
              OrderId key = sort_merge ? preds[ki] : kUnsorted;
              bool ls = key != kUnsorted && left_order == key;
              for (int inner = 0; inner < (with_enforcer ? 2 : 1); ++inner) {
                bool rs = inner == 1;
                ++result.candidates_considered;
                ++result.candidates_by_phase[static_cast<size_t>(size - 2)];
                double step = step_ec(method, ls, rs);
                double total =
                    left_ec + right_ec + (rs ? enforcer_ec : 0.0) + step;
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
      dp.CloseSlot([&] { return SizeOf(derive, s).mean; });
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
    if (needs_sort) total += sort_ec(*sizes.Find(all));
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
  std::unique_ptr<DistArena>& arena = ThreadLocalDArenaSlot();
  size_t arena_bytes =
      arena != nullptr ? arena->capacity_doubles() * sizeof(double) : 0;
  arena.reset();
  return ThreadLocalSizeTable().Release() + arena_bytes;
}

}  // namespace internal

}  // namespace lec
