#include "optimizer/bucketing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dist/arena.h"
#include "dist/kernel.h"
#include "query/query.h"

namespace lec {

std::vector<double> QueryMemoryBreakpoints(const Query& query,
                                           const Catalog& catalog,
                                           const CostModel& model, double lo,
                                           double hi) {
  int n = query.num_tables();
  if (n > 16) throw std::invalid_argument("breakpoint scan limited to n<=16");
  size_t num_subsets = size_t{1} << n;

  // Mean size of every subset (the candidate intermediate results).
  std::vector<double> pages(num_subsets, 1.0);
  std::vector<double> table_pages(n);
  for (QueryPos p = 0; p < n; ++p) {
    table_pages[p] = catalog.table(query.table(p)).SizeMean();
  }
  std::vector<int> internal;  // reused across subsets
  for (TableSet s = 1; s < num_subsets; ++s) {
    double v = 1.0;
    for (QueryPos p : MemberRange(s)) v *= table_pages[p];
    query.InternalPredicatesInto(s, &internal);
    for (int i : internal) {
      v *= query.predicate(i).selectivity.Mean();
    }
    pages[s] = v;
  }

  std::vector<double> points;
  for (TableSet s = 1; s < num_subsets; ++s) {
    if (SetSize(s) < 1) continue;
    for (QueryPos j = 0; j < n; ++j) {
      if (Contains(s, j)) continue;
      for (JoinMethod m : kAllJoinMethods) {
        for (double bp :
             model.MemoryBreakpoints(m, pages[s], table_pages[j])) {
          points.push_back(bp);
        }
      }
    }
  }
  if (query.required_order()) {
    for (double bp :
         model.SortMemoryBreakpoints(pages[query.AllTables()])) {
      points.push_back(bp);
    }
  }
  std::sort(points.begin(), points.end());
  std::vector<double> out;
  for (double p : points) {
    if (p <= lo || p >= hi) continue;
    if (!out.empty() && std::fabs(p - out.back()) < 1e-9 * std::max(1.0, p)) {
      continue;
    }
    out.push_back(p);
  }
  return out;
}

namespace {

struct Cell {
  double mass = 0;
  double weighted_sum = 0;
};

}  // namespace

Distribution BucketMemory(const Distribution& fine, size_t b,
                          BucketingStrategy strategy, const Query& query,
                          const Catalog& catalog, const CostModel& model) {
  if (b == 0) throw std::invalid_argument("b must be positive");
  switch (strategy) {
    case BucketingStrategy::kEqualWidth:
    case BucketingStrategy::kEqualProb: {
      // Route through the arena kernel (bit-identical to fine.Rebucket) and
      // materialize at the boundary; the no-op case hands `fine` back
      // without a copy, matching Rebucket's return-*this contract.
      RebucketStrategy rs = strategy == BucketingStrategy::kEqualWidth
                                ? RebucketStrategy::kEqualWidth
                                : RebucketStrategy::kEqualProb;
      thread_local DistArena arena(size_t{1} << 10);
      arena.Reset();
      DistView out = RebucketInto(fine.AsView(), b, rs, &arena);
      if (out.values == fine.AsView().values) return fine;
      return Distribution::FromNormalizedView(out);
    }
    case BucketingStrategy::kLevelSet:
      break;
  }

  std::vector<double> breakpoints =
      QueryMemoryBreakpoints(query, catalog, model, fine.Min(), fine.Max());
  // Cells are the intervals (bp_i, bp_{i+1}]: the cost formulas are
  // constant on each (their discontinuities are exactly at breakpoints).
  std::vector<Cell> cells(breakpoints.size() + 1);
  for (const Bucket& bk : fine.buckets()) {
    size_t cell =
        static_cast<size_t>(std::upper_bound(breakpoints.begin(),
                                             breakpoints.end(), bk.value) -
                            breakpoints.begin());
    cells[cell].mass += bk.prob;
    cells[cell].weighted_sum += bk.value * bk.prob;
  }
  // Drop empty cells.
  std::vector<Cell> live;
  for (const Cell& c : cells) {
    if (c.mass > 0) live.push_back(c);
  }
  // Merge lightest cells into their lighter neighbour until within budget.
  while (live.size() > b) {
    size_t lightest = 0;
    for (size_t i = 1; i < live.size(); ++i) {
      if (live[i].mass < live[lightest].mass) lightest = i;
    }
    size_t neighbour;
    if (lightest == 0) {
      neighbour = 1;
    } else if (lightest + 1 == live.size()) {
      neighbour = lightest - 1;
    } else {
      neighbour = live[lightest - 1].mass <= live[lightest + 1].mass
                      ? lightest - 1
                      : lightest + 1;
    }
    live[neighbour].mass += live[lightest].mass;
    live[neighbour].weighted_sum += live[lightest].weighted_sum;
    live.erase(live.begin() + static_cast<ptrdiff_t>(lightest));
  }
  std::vector<Bucket> out;
  out.reserve(live.size());
  for (const Cell& c : live) {
    out.push_back({c.weighted_sum / c.mass, c.mass});
  }
  return Distribution(std::move(out));
}

}  // namespace lec
