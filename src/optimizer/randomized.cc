#include "optimizer/randomized.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>

#include "cost/expected_cost.h"

namespace lec {

namespace {

struct EvalState {
  PlanPtr plan;
  double cost = 0;
};

/// Evaluates `order` without 2^n precomputation (sizes accumulate along the
/// prefix); returns nullopt if the order needs a forbidden cross product.
std::optional<OptimizeResult> TryEvaluate(const Query& query,
                                          const Catalog& catalog,
                                          const CostModel& model,
                                          const Distribution& memory,
                                          const std::vector<QueryPos>& order,
                                          const OptimizerOptions& options,
                                          size_t* cost_evals) {
  int n = query.num_tables();
  if (static_cast<int>(order.size()) != n) {
    throw std::invalid_argument("order must cover every relation once");
  }
  std::vector<double> table_pages(n);
  for (QueryPos p = 0; p < n; ++p) {
    table_pages[p] = catalog.table(query.table(p)).SizeMean();
  }
  bool query_connected = query.IsConnected(query.AllTables());

  std::map<OrderId, EvalState> states;
  QueryPos first = order[0];
  states[kUnsorted] = {MakeAccess(first, table_pages[first]),
                       table_pages[first]};
  TableSet covered = TableSet{1} << first;
  double covered_pages = table_pages[first];

  for (size_t step = 1; step < order.size(); ++step) {
    QueryPos j = order[step];
    std::vector<int> preds = query.ConnectingPredicates(covered, j);
    if (preds.empty() && options.avoid_cross_products && query_connected) {
      return std::nullopt;
    }
    double right_pages = table_pages[j];
    double sel = query.MeanSelectivity(preds);
    double out_pages = covered_pages * right_pages * sel;
    PlanPtr access = MakeAccess(j, right_pages);
    double access_cost = right_pages;

    std::map<OrderId, EvalState> next;
    auto retain = [&next](OrderId o, EvalState s) {
      auto it = next.find(o);
      if (it == next.end() || s.cost < it->second.cost) {
        next[o] = std::move(s);
      }
    };
    for (const auto& [left_order, left] : states) {
      for (JoinMethod method : options.join_methods) {
        std::vector<int> keys;
        if (method == JoinMethod::kSortMerge) {
          if (preds.empty()) continue;
          keys = preds;
        } else {
          keys.push_back(kUnsorted);
        }
        for (int key : keys) {
          struct Inner {
            bool sorted;
            double extra;
          };
          std::vector<Inner> inners = {{false, 0.0}};
          if (method == JoinMethod::kSortMerge &&
              options.consider_sort_enforcers) {
            ++*cost_evals;
            inners.push_back(
                {true, ExpectedSortCostFixedSize(model, right_pages,
                                                 memory)});
          }
          for (const Inner& inner : inners) {
            ++*cost_evals;
            bool ls = key != kUnsorted && left_order == key;
            double step_cost = ExpectedJoinCostFixedSizes(
                model, method, covered_pages, right_pages, memory, ls,
                inner.sorted);
            OrderId out_order =
                DpContext::JoinOutputOrder(method, left_order, key);
            PlanPtr right_plan = access;
            if (inner.sorted) right_plan = MakeSort(right_plan, key);
            retain(out_order,
                   {MakeJoin(left.plan, right_plan, method, preds, out_order,
                             out_pages),
                    left.cost + access_cost + inner.extra + step_cost});
          }
        }
      }
    }
    states = std::move(next);
    covered |= TableSet{1} << j;
    covered_pages = out_pages;
  }

  OptimizeResult result;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [o, s] : states) {
    double total = s.cost;
    PlanPtr plan = s.plan;
    if (query.required_order() && o != *query.required_order()) {
      ++*cost_evals;
      total += ExpectedSortCostFixedSize(model, covered_pages, memory);
      plan = MakeSort(plan, *query.required_order());
    }
    if (total < best) {
      best = total;
      result.plan = plan;
    }
  }
  result.objective = best;
  result.candidates_considered = 1;
  return result;
}

}  // namespace

std::vector<QueryPos> RandomConnectedOrder(const Query& query, Rng* rng,
                                           const OptimizerOptions& options) {
  int n = query.num_tables();
  bool enforce =
      options.avoid_cross_products && query.IsConnected(query.AllTables());
  std::vector<QueryPos> order;
  order.reserve(n);
  TableSet covered = 0;
  order.push_back(static_cast<QueryPos>(rng->UniformInt(0, n - 1)));
  covered |= TableSet{1} << order[0];
  while (static_cast<int>(order.size()) < n) {
    std::vector<QueryPos> eligible;
    for (QueryPos p = 0; p < n; ++p) {
      if (Contains(covered, p)) continue;
      if (!enforce || !query.ConnectingPredicates(covered, p).empty()) {
        eligible.push_back(p);
      }
    }
    QueryPos pick = eligible[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
    order.push_back(pick);
    covered |= TableSet{1} << pick;
  }
  return order;
}

OptimizeResult EvaluateJoinOrder(const Query& query, const Catalog& catalog,
                                 const CostModel& model,
                                 const Distribution& memory,
                                 const std::vector<QueryPos>& order,
                                 const OptimizerOptions& options) {
  size_t evals = 0;
  std::optional<OptimizeResult> r =
      TryEvaluate(query, catalog, model, memory, order, options, &evals);
  if (!r) {
    throw std::invalid_argument(
        "join order requires a forbidden cross product");
  }
  r->cost_evaluations = evals;
  return *r;
}

OptimizeResult OptimizeRandomizedLec(const Query& query,
                                     const Catalog& catalog,
                                     const CostModel& model,
                                     const Distribution& memory, Rng* rng,
                                     const RandomizedOptions& options) {
  WallTimer timer;
  int n = query.num_tables();
  OptimizeResult best;
  best.objective = std::numeric_limits<double>::infinity();
  size_t total_evals = 0, total_orders = 0;

  for (int restart = 0; restart < std::max(options.restarts, 1); ++restart) {
    std::vector<QueryPos> order =
        RandomConnectedOrder(query, rng, options.plan_options);
    std::optional<OptimizeResult> cur = TryEvaluate(
        query, catalog, model, memory, order, options.plan_options,
        &total_evals);
    ++total_orders;
    if (!cur) continue;

    int stale = 0;
    while (stale < std::max(options.patience, 1)) {
      // Neighbourhood: all transpositions, scanned in random sequence,
      // first improvement taken.
      bool improved = false;
      std::vector<std::pair<int, int>> moves;
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) moves.emplace_back(i, j);
      }
      rng->Shuffle(&moves);
      for (auto [i, j] : moves) {
        std::swap(order[static_cast<size_t>(i)],
                  order[static_cast<size_t>(j)]);
        std::optional<OptimizeResult> cand = TryEvaluate(
            query, catalog, model, memory, order, options.plan_options,
            &total_evals);
        ++total_orders;
        if (cand && cand->objective < cur->objective * (1 - 1e-12)) {
          cur = cand;
          improved = true;
          break;  // keep the swap
        }
        std::swap(order[static_cast<size_t>(i)],
                  order[static_cast<size_t>(j)]);  // undo
      }
      stale = improved ? 0 : stale + 1;
    }
    if (cur->objective < best.objective) {
      best.plan = cur->plan;
      best.objective = cur->objective;
    }
  }
  if (!best.plan) {
    throw std::runtime_error("randomized search found no valid join order");
  }
  best.candidates_considered = total_orders;
  best.cost_evaluations = total_evals;
  best.elapsed_seconds = timer.Seconds();
  return best;
}

}  // namespace lec
