#include "optimizer/algorithm_b.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "optimizer/cost_providers.h"

namespace lec {

std::vector<Combination> TopCombinations(const std::vector<double>& left,
                                         const std::vector<double>& right,
                                         size_t c, size_t* examined) {
  if (c == 0) throw std::invalid_argument("c must be positive");
  std::vector<Combination> out;
  size_t looked_at = 0;
  // Proposition 3.1: a pair with 1-based indices (i, k) has at least
  // i·k - 1 combinations no more expensive, so only i·k <= c can be in the
  // top c. Walk the frontier column by column.
  for (size_t k = 1; k <= right.size(); ++k) {
    size_t max_i = c / k;
    if (max_i == 0) break;
    max_i = std::min(max_i, left.size());
    for (size_t i = 1; i <= max_i; ++i) {
      ++looked_at;
      out.push_back({i - 1, k - 1, left[i - 1] + right[k - 1]});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Combination& a, const Combination& b) {
                     return a.cost < b.cost;
                   });
  if (out.size() > c) out.resize(c);
  if (examined != nullptr) *examined = looked_at;
  return out;
}

namespace {

using TopList = std::vector<DpEntry>;  // ascending by cost, size <= c

void TruncateSorted(TopList* list, size_t c) {
  std::stable_sort(list->begin(), list->end(),
                   [](const DpEntry& a, const DpEntry& b) {
                     return a.cost < b.cost;
                   });
  if (list->size() > c) list->resize(c);
}

}  // namespace

std::vector<std::pair<PlanPtr, double>> TopCPlansAtMemory(
    const Query& query, const Catalog& catalog, const CostModel& model,
    double memory, size_t c, const OptimizerOptions& options,
    size_t* combinations_examined) {
  if (c == 0) throw std::invalid_argument("c must be positive");
  DpContext ctx(query, catalog, options);
  int n = ctx.num_tables();
  size_t num_subsets = size_t{1} << n;
  std::vector<std::map<OrderId, TopList>> table(num_subsets);
  size_t frontier_examined = 0;

  for (QueryPos p = 0; p < n; ++p) {
    TableSet s = TableSet{1} << p;
    double pages = ctx.TablePages(p);
    table[s][kUnsorted].push_back({MakeAccess(p, pages), pages});
  }

  for (int size = 2; size <= n; ++size) {
    for (TableSet s = 1; s < num_subsets; ++s) {
      if (SetSize(s) != size) continue;
      std::map<OrderId, TopList> accum;
      double out_pages = ctx.SubsetPages(s);
      for (QueryPos j : Members(s)) {
        TableSet sj = s & ~(TableSet{1} << j);
        if (table[sj].empty()) continue;
        if (ctx.CrossProductForbidden(sj, j)) continue;
        std::vector<int> preds = ctx.ConnectingPredicates(sj, j);
        double left_pages = ctx.SubsetPages(sj);
        double right_pages = ctx.TablePages(j);
        const TopList& right_list = table[TableSet{1} << j].at(kUnsorted);

        for (const auto& [left_order, left_list] : table[sj]) {
          std::vector<double> left_costs;
          left_costs.reserve(left_list.size());
          for (const DpEntry& e : left_list) left_costs.push_back(e.cost);

          for (JoinMethod method : ctx.options().join_methods) {
            std::vector<int> keys;
            if (method == JoinMethod::kSortMerge) {
              if (preds.empty()) continue;
              keys = preds;
            } else {
              keys.push_back(kUnsorted);
            }
            for (int key : keys) {
              struct InnerAlt {
                PlanPtr plan;
                double cost;
                bool sorted;
              };
              std::vector<InnerAlt> inners;
              inners.push_back(
                  {right_list[0].plan, right_list[0].cost, false});
              if (method == JoinMethod::kSortMerge &&
                  ctx.options().consider_sort_enforcers) {
                inners.push_back({MakeSort(right_list[0].plan, key),
                                  right_list[0].cost +
                                      model.SortCost(right_pages, memory),
                                  true});
              }
              for (const InnerAlt& inner : inners) {
                // All left variants share size/order properties, so the
                // join's own cost is evaluated once (§3.3: "the only
                // difference ... arises from the sum of the costs of the
                // two input plans").
                bool left_sorted = key != kUnsorted && left_order == key;
                double step =
                    model.JoinCost(method, left_pages, right_pages, memory,
                                   left_sorted, inner.sorted);
                size_t examined = 0;
                std::vector<Combination> combos = TopCombinations(
                    left_costs, {inner.cost}, c, &examined);
                frontier_examined += examined;
                OrderId out_order =
                    DpContext::JoinOutputOrder(method, left_order, key);
                TopList& into = accum[out_order];
                for (const Combination& cb : combos) {
                  into.push_back(
                      {MakeJoin(left_list[cb.left_index].plan, inner.plan,
                                method, preds, out_order, out_pages),
                       cb.cost + step});
                }
              }
            }
          }
        }
      }
      for (auto& [order, list] : accum) {
        TruncateSorted(&list, c);
        table[s][order] = std::move(list);
      }
    }
  }

  // Root: enforce ORDER BY, merge across orders, keep top c overall.
  TopList final_list;
  for (const auto& [order, list] : table[query.AllTables()]) {
    for (const DpEntry& e : list) {
      if (query.required_order() && order != *query.required_order()) {
        double sorted_cost =
            e.cost +
            model.SortCost(ctx.SubsetPages(query.AllTables()), memory);
        final_list.push_back(
            {MakeSort(e.plan, *query.required_order()), sorted_cost});
      } else {
        final_list.push_back(e);
      }
    }
  }
  if (final_list.empty()) {
    throw std::runtime_error("no plan found for query");
  }
  TruncateSorted(&final_list, c);
  std::vector<std::pair<PlanPtr, double>> out;
  out.reserve(final_list.size());
  for (const DpEntry& e : final_list) out.emplace_back(e.plan, e.cost);
  if (combinations_examined != nullptr) {
    *combinations_examined += frontier_examined;
  }
  return out;
}

OptimizeResult OptimizeAlgorithmB(const Query& query, const Catalog& catalog,
                                  const CostModel& model,
                                  const Distribution& memory, size_t c,
                                  const OptimizerOptions& options) {
  WallTimer timer;
  OptimizeResult result;
  std::vector<PlanPtr> candidates;
  for (const Bucket& m : memory.buckets()) {
    size_t examined = 0;
    auto top = TopCPlansAtMemory(query, catalog, model, m.value, c, options,
                                 &examined);
    result.candidates_considered += examined;
    for (const auto& [plan, cost] : top) {
      (void)cost;
      bool duplicate = false;
      for (const PlanPtr& existing : candidates) {
        if (PlanEquals(existing, plan)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) candidates.push_back(plan);
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (const PlanPtr& cand : candidates) {
    double ec = ScoreCandidateStatic(cand, query, catalog, model, memory,
                                     &result.cost_evaluations);
    if (ec < best) {
      best = ec;
      result.plan = cand;
    }
  }
  result.objective = best;
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace lec
