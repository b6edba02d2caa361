#include "optimizer/algorithm_b.h"

#include <algorithm>
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

        for (const auto& left_entry : table[sj]) {
          OrderId left_order = left_entry.first;
          const TopList& left_list = left_entry.second;
          std::vector<double> left_costs;
          left_costs.reserve(left_list.size());
          for (const DpEntry& e : left_list) left_costs.push_back(e.cost);

          // The inner under a sort enforcer on the current sort-merge key.
          DpEntry sorted_inner;
          ForEachJoinStep(
              ctx.options(), preds, kEveryJoinMethod,
              [&](OrderId key) {
                sorted_inner = {MakeSort(right_list[0].plan, key),
                                right_list[0].cost +
                                    model.SortCost(right_pages, memory)};
              },
              [&](JoinMethod method, OrderId key, bool inner_sorted) {
                const DpEntry& inner =
                    inner_sorted ? sorted_inner : right_list[0];
                // All left variants share size/order properties, so the
                // join's own cost is evaluated once (§3.3: "the only
                // difference ... arises from the sum of the costs of the
                // two input plans").
                bool left_sorted = key != kUnsorted && left_order == key;
                double step =
                    model.JoinCost(method, left_pages, right_pages, memory,
                                   left_sorted, inner_sorted);
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
              });
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
  std::vector<PlanPtr> plans;
  for (const Bucket& m : memory.buckets()) {
    for (const auto& top : TopCPlansAtMemory(query, catalog, model, m.value,
                                             c, options,
                                             &result.candidates_considered)) {
      plans.push_back(top.first);
    }
  }
  ChooseLeastExpectedCost(plans, query, catalog, model, memory, &result);
  result.elapsed_seconds = timer.Seconds();
  return result;
}

}  // namespace lec
