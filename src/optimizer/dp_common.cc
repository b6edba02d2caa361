#include "optimizer/dp_common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lec {

DpContext::DpContext(const Query& query, const Catalog& catalog,
                     const OptimizerOptions& options)
    : query_(&query), catalog_(&catalog), options_(options) {
  int n = query.num_tables();
  if (n < 1) throw std::invalid_argument("query has no tables");
  if (n > 20) throw std::invalid_argument("DP limited to 20 relations");
  table_pages_.reserve(n);
  for (QueryPos p = 0; p < n; ++p) {
    table_pages_.push_back(catalog.table(query.table(p)).SizeMean());
  }
  pred_tables_.reserve(query.num_predicates());
  pred_selectivity_.reserve(query.num_predicates());
  neighbors_.assign(static_cast<size_t>(n), 0);
  for (const JoinPredicate& pred : query.predicates()) {
    pred_tables_.push_back(TableSet{1} << pred.left |
                           TableSet{1} << pred.right);
    pred_selectivity_.push_back(pred.selectivity.Mean());
    neighbors_[static_cast<size_t>(pred.left)] |= TableSet{1} << pred.right;
    neighbors_[static_cast<size_t>(pred.right)] |= TableSet{1} << pred.left;
  }
  query_connected_ = query.IsConnected(query.AllTables());
}

double DpContext::SubsetPages(TableSet s) const {
  double pages = 1.0;
  for (QueryPos p : MemberRange(s)) pages *= table_pages_[p];
  for (size_t i = 0; i < pred_tables_.size(); ++i) {
    if ((pred_tables_[i] & ~s) == 0) pages *= pred_selectivity_[i];
  }
  return pages;
}

double DpContext::MinSubsetPages() const {
  if (!min_subset_pages_ready_) {
    min_subset_pages_ = ComputeMinSubsetPages();
    min_subset_pages_ready_ = true;
  }
  return min_subset_pages_;
}

double DpContext::ComputeMinSubsetPages() const {
  // Depth-first over every nonempty subset, extending by members in
  // ascending order. Each frame carries what SubsetPages would recompute:
  // the running product of member table sizes (a new member is always the
  // largest, so it multiplies last, exactly as in SubsetPages) and the
  // ascending list of internal predicates. Adding member q contributes the
  // predicates whose larger endpoint is q ("closing" at q) and whose other
  // endpoint is already inside; merging keeps the list ascending. Every
  // subset's value is therefore SubsetPages(s) bit for bit, in
  // O(|internal(s)|).
  int n = num_tables();
  std::vector<std::vector<int>> closing(static_cast<size_t>(n));
  for (size_t i = 0; i < pred_tables_.size(); ++i) {
    int top = 31 - std::countl_zero(pred_tables_[i]);
    closing[static_cast<size_t>(top)].push_back(static_cast<int>(i));
  }

  // Branch and bound. Adding member q multiplies a subset's exact pages by
  // table_pages[q] and by the selectivities of the predicates closing at
  // q that fall inside, so — with every selectivity at most 1 — by at
  // least g_q = min(1, table_pages[q] · Π_{closing at q} selectivity).
  // Every superset s ∪ T with T above max(s) therefore has exact pages at
  // least pages(s) · rest[max(s) + 1], where rest[q] = Π_{r ≥ q} g_r.
  // The bound is used only when it is sound in floating point:
  //   * every table page count is finite and at least 1 and every
  //     selectivity lies in [+0, 1], so a value's partial products rise
  //     through the tables and then fall, and values are never negative;
  //   * the bound and rest[max(s) + 1] are finite and at least kNormal,
  //     so every partial product involved stays normal and each computed
  //     value is within 2(n + P) + 1 roundings of its exact one — far
  //     inside the 2^-30 slack for P < 2^20.
  // A subtree whose bound exceeds the best value so far by that slack then
  // holds no computed value at or below it, and skipping it returns the
  // same bits as visiting it. Outside that range the walk visits every
  // subset.
  constexpr double kNormal = 0x1p-900;
  bool bounded =
      pred_tables_.size() < (size_t{1} << 20) &&
      std::all_of(table_pages_.begin(), table_pages_.end(),
                  [](double v) { return std::isfinite(v) && v >= 1; }) &&
      std::all_of(pred_selectivity_.begin(), pred_selectivity_.end(),
                  [](double v) { return !std::signbit(v) && v <= 1; });
  std::vector<double> rest(static_cast<size_t>(n) + 1, 1.0);
  for (QueryPos q = n - 1; q >= 0; --q) {
    double g = table_pages_[q];
    for (int i : closing[static_cast<size_t>(q)]) g *= pred_selectivity_[i];
    rest[q] = rest[q + 1] * std::min(1.0, g);
  }

  // lists[d]: internal predicates of the depth-d subset on the DFS path
  // (one spare level: the deepest frame still names its successor's list).
  std::vector<std::vector<int>> lists(static_cast<size_t>(n) + 2);
  for (std::vector<int>& list : lists) list.reserve(pred_tables_.size());
  double best = std::numeric_limits<double>::infinity();
  auto walk = [&](auto& self, TableSet s, double pages_s, size_t depth,
                  double prod, QueryPos lo) -> void {
    if (bounded && s != 0) {
      if (best == 0) return;  // values are never negative
      double bound = pages_s * rest[lo];
      if (rest[lo] >= kNormal && bound >= kNormal && std::isfinite(bound) &&
          bound * (1 - 0x1p-30) > best) {
        return;
      }
    }
    const std::vector<int>& inner = lists[depth];
    std::vector<int>& next = lists[depth + 1];
    for (QueryPos q = lo; q < n; ++q) {
      TableSet t = s | TableSet{1} << q;
      double t_prod = prod * table_pages_[q];
      next.clear();
      auto it = inner.begin();
      for (int i : closing[static_cast<size_t>(q)]) {
        if ((pred_tables_[i] & ~t) != 0) continue;
        while (it != inner.end() && *it < i) next.push_back(*it++);
        next.push_back(i);
      }
      next.insert(next.end(), it, inner.end());
      double pages = t_prod;
      for (int i : next) pages *= pred_selectivity_[i];
      best = std::min(best, pages);
      self(self, t, pages, depth + 1, t_prod, q + 1);
    }
  };
  walk(walk, TableSet{0}, 1.0, 0, 1.0, 0);
  return best;
}

bool DpContext::CrossProductForbidden(TableSet subset, QueryPos j) const {
  if (!options_.avoid_cross_products) return false;
  if (!query_connected_) return false;
  // Query::HasConnectingPredicate(subset, j), from the neighbor masks.
  bool connected = !(subset >> j & 1) && (Neighbors(j) & subset) != 0;
  return !connected;
}

void DpScratch::Prepare(int num_tables, int num_predicates) {
  num_tables_ = num_tables;
  room_ = static_cast<size_t>(num_predicates) + 1;
  slots_.clear();
  waves_.assign(1, 0);  // the singleton wave starts at slot 0
  used_ = 0;
  preds_.reserve(static_cast<size_t>(num_predicates));
  table_floor_.reserve(static_cast<size_t>(num_tables));
  best_root_order = kUnsorted;
  root_needs_sort = false;
}

const std::vector<TableSet>& DpScratch::NextWave() {
  cand_.clear();
  for (size_t i = waves_.back(); i < slots_.size(); ++i) {
    TableSet base = slots_[i].subset;
    for (QueryPos j = 0; j < num_tables_; ++j) {
      if (!(base >> j & 1)) cand_.push_back(base | TableSet{1} << j);
    }
  }
  std::sort(cand_.begin(), cand_.end());
  cand_.erase(std::unique(cand_.begin(), cand_.end()), cand_.end());
  waves_.push_back(static_cast<uint32_t>(slots_.size()));
  return cand_;
}

void DpScratch::OpenSlot(TableSet s) {
  // Grows only past the high-water mark; a warmed scratch never
  // re-allocates here.
  if (entries_.size() < used_ + room_) entries_.resize(used_ + room_);
  DpSlot slot;
  slot.subset = s;
  slot.offset = static_cast<uint32_t>(used_);
  slots_.push_back(slot);
}

const DpSlot* DpScratch::Find(TableSet s) const {
  int size = std::popcount(s);
  if (size == 1) {
    size_t p = static_cast<size_t>(std::countr_zero(s));
    return p < slots_.size() && slots_[p].subset == s ? &slots_[p] : nullptr;
  }
  if (size < 1 || static_cast<size_t>(size) > waves_.size()) return nullptr;
  auto begin = slots_.begin() + waves_[static_cast<size_t>(size) - 1];
  auto end = static_cast<size_t>(size) < waves_.size()
                 ? slots_.begin() + waves_[static_cast<size_t>(size)]
                 : slots_.end();
  auto it = std::lower_bound(
      begin, end, s,
      [](const DpSlot& slot, TableSet key) { return slot.subset < key; });
  return it != end && it->subset == s ? &*it : nullptr;
}

size_t DpScratch::RetainedBytes() const {
  return slots_.capacity() * sizeof(DpSlot) +
         entries_.capacity() * sizeof(DpFlatEntry) +
         waves_.capacity() * sizeof(uint32_t) +
         cand_.capacity() * sizeof(TableSet) +
         preds_.capacity() * sizeof(int) +
         table_floor_.capacity() * sizeof(double);
}

size_t DpScratch::Release() {
  size_t bytes = RetainedBytes();
  // Swap-with-temporary, not `= {}`: braced assignment selects the
  // initializer_list overload, which empties the vector but RETAINS its
  // capacity — the exact opposite of releasing.
  std::vector<DpSlot>().swap(slots_);
  std::vector<DpFlatEntry>().swap(entries_);
  std::vector<uint32_t>().swap(waves_);
  std::vector<TableSet>().swap(cand_);
  std::vector<int>().swap(preds_);
  std::vector<double>().swap(table_floor_);
  used_ = 0;
  best_root_order = kUnsorted;
  root_needs_sort = false;
  return bytes;
}

void DpScratch::RetainBest(OrderId order, double cost,
                           const DpDecision& decision) {
  DpSlot& slot = slots_.back();
  DpFlatEntry* base = entries_.data() + slot.offset;
  // Entries stay sorted by order, which fixes the left-entry iteration
  // order (and with it tie-breaking, pinned by tests/golden/
  // dp_counters.txt); nodes hold a handful of orders, so linear scans win.
  size_t pos = 0;
  while (pos < slot.count && base[pos].order < order) ++pos;
  if (pos < slot.count && base[pos].order == order) {
    if (cost < base[pos].cost) {
      base[pos].cost = cost;
      base[pos].decision = decision;
    }
    return;
  }
  if (slot.count == room_) {
    throw std::logic_error("DP slot holds more orders than predicates + 1");
  }
  for (size_t i = slot.count; i > pos; --i) base[i] = base[i - 1];
  base[pos] = {cost, order, decision};
  ++slot.count;
}

DpScratch& ThreadLocalDpScratch() {
  thread_local DpScratch scratch;
  return scratch;
}

size_t ReleaseThreadLocalDpScratch() {
  return ThreadLocalDpScratch().Release() +
         internal::ReleaseThreadLocalAlgorithmDTables();
}

namespace {

/// Replays one subtree of the decision table into a plan tree.
PlanPtr ReplayDpDecisions(const DpContext& ctx, const DpScratch& scratch,
                          TableSet s, OrderId order) {
  const DpSlot* slot = scratch.Find(s);
  const DpFlatEntry* entry = nullptr;
  for (uint32_t i = 0; slot != nullptr && i < slot->count; ++i) {
    if (scratch.Entries(*slot)[i].order == order) {
      entry = &scratch.Entries(*slot)[i];
      break;
    }
  }
  if (entry == nullptr) {
    throw std::logic_error("DP decision table missing a recorded entry");
  }
  const DpDecision& d = entry->decision;
  if (d.j < 0) return MakeAccess(*MemberRange(s).begin(), slot->pages);
  QueryPos j = d.j;
  TableSet sj = s & ~(TableSet{1} << j);
  PlanPtr left = ReplayDpDecisions(ctx, scratch, sj, d.left_order);
  PlanPtr right = MakeAccess(j, scratch.Find(TableSet{1} << j)->pages);
  if (d.inner_sorted) right = MakeSort(right, d.key);
  return MakeJoin(std::move(left), std::move(right), d.method,
                  ctx.ConnectingPredicates(sj, j), order, slot->pages);
}

}  // namespace

PlanPtr MaterializeDpPlan(const DpContext& ctx, const DpScratch& scratch) {
  PlanPtr plan = ReplayDpDecisions(ctx, scratch, ctx.query().AllTables(),
                                   scratch.best_root_order);
  if (scratch.root_needs_sort) {
    plan = MakeSort(plan, *ctx.query().required_order());
  }
  return plan;
}

OrderId DpContext::JoinOutputOrder(JoinMethod method, OrderId left_order,
                                   OrderId sm_key) {
  switch (method) {
    case JoinMethod::kNestedLoop:
      return left_order;  // outer scanned sequentially; order preserved
    case JoinMethod::kSortMerge:
      return sm_key;
    case JoinMethod::kGraceHash:
    case JoinMethod::kHybridHash:
      return kUnsorted;  // partitioning destroys order
  }
  return kUnsorted;
}

}  // namespace lec
