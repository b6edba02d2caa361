#include "optimizer/algorithm_d.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cost/expected_cost.h"
#include "cost/fast_expected_cost.h"
#include "cost/size_propagation.h"

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

/// Open addressing with linear probing over a power-of-two window of
/// `index_`, sized for this run's records; records are keyed by their
/// `key` member. Both vectors keep their capacity across runs, so a warmed
/// table never allocates.
template <typename Record>
class RecordTable {
 public:
  void Clear() {
    records_.clear();
    Rehash(kMinBits);
  }

  const Record* Find(uint64_t key) const {
    for (size_t i = Home(key);; i = (i + 1) & Mask()) {
      uint32_t slot = index_[i];
      if (slot == 0) return nullptr;
      if (records_[slot - 1].key == key) return &records_[slot - 1];
    }
  }

  /// Adds `r`, whose key must not be present yet.
  const Record& Insert(const Record& r) {
    if (2 * (records_.size() + 1) > (size_t{1} << bits_)) Rehash(bits_ + 1);
    records_.push_back(r);
    Place(records_.size());
    return records_.back();
  }

  size_t Release() {
    size_t bytes = records_.capacity() * sizeof(Record) +
                   index_.capacity() * sizeof(uint32_t);
    std::vector<Record>().swap(records_);
    std::vector<uint32_t>().swap(index_);
    return bytes;
  }

 private:
  static constexpr int kMinBits = 6;

  size_t Mask() const { return (size_t{1} << bits_) - 1; }
  size_t Home(uint64_t key) const {  // Fibonacci hashing
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits_));
  }
  void Place(size_t slot) {
    size_t i = Home(records_[slot - 1].key);
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

  std::vector<Record> records_;
  std::vector<uint32_t> index_;  ///< record position + 1; 0 is empty
  int bits_ = kMinBits;
};

/// The combined selectivity of one (j, connecting predicates) pair, staged
/// as a join-size operand (JoinSizeOperandInto).
struct SelectivityRecord {
  uint64_t key = 0;  ///< j in the high word, S_j ∩ neighbors(j) in the low
  DistView view;
};

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

}  // namespace

/// One subset's result-size distribution and what D reads off it.
struct AlgorithmDSteps::SizeRecord {
  uint64_t key = 0;  ///< the subset
  DistView view;
  double mean = 0;
};

namespace internal {

/// Algorithm D's per-thread run state. Only the subsets D reads get a size
/// record (see SizeOf). ReleaseThreadLocalDpScratch frees it.
struct AlgorithmDTables {
  RecordTable<AlgorithmDSteps::SizeRecord> sizes;
  /// Operand memo of the size derivation: the combined selectivity per
  /// (j, connecting predicates), staged.
  RecordTable<SelectivityRecord> selectivities;
  /// Per relation: its own size distribution staged as the right operand.
  std::vector<DistView> right_operand;
  std::vector<int> preds;

  const AlgorithmDSteps::SizeRecord& Insert(TableSet s, DistView view) {
    return sizes.Insert({s, view, ViewMean(view)});
  }

  size_t Release() {
    size_t bytes = sizes.Release() + selectivities.Release() +
                   right_operand.capacity() * sizeof(DistView) +
                   preds.capacity() * sizeof(int);
    std::vector<DistView>().swap(right_operand);
    std::vector<int>().swap(preds);
    return bytes;
  }
};

}  // namespace internal

namespace {

internal::AlgorithmDTables& ThreadLocalTables() {
  thread_local internal::AlgorithmDTables tables;
  return tables;
}

/// The size record of subset `s` (|s| >= 1; singletons are seeded up
/// front). |S| = |S_j| · |A_j| · σ for any j ∈ S (every internal predicate
/// is counted exactly once across the recursive decomposition), so one
/// derivation per subset suffices (§3.6.3). It always drops the lowest
/// member j, so a missing record first derives the subsets that chain
/// passes through — which is all D ever computes besides the live
/// subsets, and every record has the bits a full 2^n sweep would give it.
/// The right operand and the selectivity operand depend only on j and the
/// predicates connecting it, so both come from the operand memo.
const AlgorithmDSteps::SizeRecord& SizeOf(const DpContext& ctx,
                                          internal::AlgorithmDTables* t,
                                          DistArena* arena, TableSet s) {
  if (const AlgorithmDSteps::SizeRecord* r = t->sizes.Find(s)) return *r;
  const OptimizerOptions& opts = ctx.options();
  QueryPos j = *MemberRange(s).begin();
  TableSet sj = s & ~(TableSet{1} << j);
  DistView left = JoinSizeOperandInto(SizeOf(ctx, t, arena, sj).view,
                                      opts.size_buckets, opts.size_mode, arena);
  uint64_t sel_key =
      uint64_t{static_cast<uint32_t>(j)} << 32 | (sj & ctx.Neighbors(j));
  const SelectivityRecord* sel = t->selectivities.Find(sel_key);
  if (sel == nullptr) {
    ctx.query().ConnectingPredicatesInto(sj, j, &t->preds);
    DistView combined = CombinedSelectivityViewInto(
        ctx.query(), t->preds, opts.size_buckets, arena);
    sel = &t->selectivities.Insert(
        {sel_key, JoinSizeOperandInto(combined, opts.size_buckets,
                                      opts.size_mode, arena)});
  }
  return t->Insert(
      s, JoinSizeOfOperandsInto(left,
                                t->right_operand[static_cast<size_t>(j)],
                                sel->view, opts.size_buckets, arena));
}

}  // namespace

AlgorithmDSteps::AlgorithmDSteps(const DpContext& ctx, const CostModel& model,
                                 const Distribution& memory)
    : ctx_(&ctx),
      model_(&model),
      arena_(ctx.options().dist_arena != nullptr ? ctx.options().dist_arena
                                                 : &ThreadLocalDArena()),
      tables_(&ThreadLocalTables()),
      mem_(memory.AsView()) {
  const Query& query = ctx.query();
  const OptimizerOptions& opts = ctx.options();
  int n = ctx.num_tables();
  arena_->Reset();  // per-run reset: every view of an earlier run dies
  profile_ = BuildEcMemoryProfile(mem_, arena_);
  internal::AlgorithmDTables& t = *tables_;
  t.sizes.Clear();
  t.selectivities.Clear();
  t.right_operand.assign(static_cast<size_t>(n), DistView{});
  // Base sizes, rebucketed to the budget: the catalog's distribution in
  // place (it outlives the run), or a point mass written into the arena.
  // Every other record is derived when its subset's slot closes live.
  for (QueryPos p = 0; p < n; ++p) {
    const Table& table = ctx.catalog().table(query.table(p));
    DistView base;
    if (table.pages_dist) {
      base = table.pages_dist->AsView();
    } else {
      double* point = arena_->AllocDoubles(2);
      point[0] = table.pages;
      point[1] = 1.0;
      base = DistView{point, point + 1, 1};
    }
    DistView sized = RebucketInto(base, opts.size_buckets,
                                  RebucketStrategy::kEqualWidth, arena_);
    t.Insert(TableSet{1} << p, sized);
    t.right_operand[static_cast<size_t>(p)] =
        JoinSizeOperandInto(sized, opts.size_buckets, opts.size_mode, arena_);
  }
}

double AlgorithmDSteps::LeafCost(QueryPos p) const {
  return tables_->sizes.Find(TableSet{1} << p)->mean;  // scan: linear in size
}

double AlgorithmDSteps::SlotPages(TableSet s) const {
  return SizeOf(*ctx_, tables_, arena_, s).mean;
}

AlgorithmDSteps::StepContext AlgorithmDSteps::Step(const DpSlot& left,
                                                   QueryPos j, int) const {
  // Both slots are live, so both subsets already hold a record.
  return StepContext(*this, *tables_->sizes.Find(left.subset),
                     *tables_->sizes.Find(TableSet{1} << j));
}

double AlgorithmDSteps::RootSort(TableSet s, double, int, size_t*) const {
  return SortEc(*tables_->sizes.Find(s));
}

double AlgorithmDSteps::SortEc(const SizeRecord& r) const {
  return ExpectedSortCostView(*model_, r.view, mem_);
}

double* AlgorithmDSteps::SortMergeTerms(size_t n) const {
  if (n > sm_terms_room_) {
    sm_terms_room_ = std::max(n, 2 * sm_terms_room_);
    sm_terms_ = arena_->AllocDoubles(sm_terms_room_);
  }
  return sm_terms_;
}

double AlgorithmDSteps::StepContext::Join(JoinMethod method, bool left_sorted,
                                          bool inner_sorted,
                                          size_t* evaluations) {
  const AlgorithmDSteps& d = *d_;
  DistView a = left_->view;
  DistView b = right_->view;
  bool fast = d.ctx_->options().use_fast_ec &&
              FastPathValid(*d.model_, method, left_sorted, inner_sorted);
  // Every use is charged, memoized or not. The fast path's values do not
  // depend on the sorted flags, so one fused sweep serves the pair.
  *evaluations += fast ? a.n + b.n + d.mem_.n : a.n * b.n * d.mem_.n;
  if (!fast) {
    return memo_.Join(method, left_sorted, inner_sorted, [&]() {
      return ExpectedJoinCostView(*d.model_, method, a, b, d.mem_,
                                  left_sorted, inner_sorted);
    });
  }
  if (!have_fast_) {
    fast_ = FastEcAllMethods(a, b, d.profile_, left_->mean, right_->mean,
                             d.SortMergeTerms(a.n));
    have_fast_ = true;
  }
  return fast_.Of(method);
}

double AlgorithmDSteps::StepContext::Enforcer(size_t*) {
  return memo_.Enforcer([&] { return d_->SortEc(*right_); });
}

OptimizeResult OptimizeAlgorithmD(const Query& query, const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory,
                                  const OptimizerOptions& options) {
  WallTimer timer;
  DpContext ctx(query, catalog, options);
  AlgorithmDSteps steps(ctx, model, memory);
  OptimizeResult result = RunDp(ctx, steps);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

namespace internal {

size_t ReleaseThreadLocalAlgorithmDTables() {
  std::unique_ptr<DistArena>& arena = ThreadLocalDArenaSlot();
  size_t arena_bytes =
      arena != nullptr ? arena->capacity_doubles() * sizeof(double) : 0;
  arena.reset();
  return ThreadLocalTables().Release() + arena_bytes;
}

}  // namespace internal

}  // namespace lec
