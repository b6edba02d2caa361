#include "optimizer/randomized.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "cost/expected_cost.h"

namespace lec {

namespace {

/// Evaluates join orders of one query, reading the relations' mean page
/// counts and the cross-product rule computed once per search. Not a
/// DpContext: that rejects queries of more than 20 relations, and this
/// search exists for joins too wide for the DP.
class OrderEvaluator {
 public:
  OrderEvaluator(const Query& query, const Catalog& catalog,
                 const CostModel& model, const Distribution& memory,
                 const OptimizerOptions& options)
      : query_(query),
        model_(model),
        memory_(memory),
        options_(options),
        forbid_cross_products_(options.avoid_cross_products &&
                               query.IsConnected(query.AllTables())) {
    for (QueryPos p = 0; p < query.num_tables(); ++p) {
      table_pages_.push_back(catalog.table(query.table(p)).SizeMean());
    }
  }

  /// Evaluates `order` without 2^n precomputation (sizes accumulate along
  /// the prefix); returns nullopt if the order needs a forbidden cross
  /// product.
  std::optional<OptimizeResult> Evaluate(const std::vector<QueryPos>& order,
                                         size_t* cost_evals) const {
    OrderMap states;
    QueryPos first = order[0];
    states[kUnsorted] = {MakeAccess(first, table_pages_[first]),
                         table_pages_[first]};
    TableSet covered = TableSet{1} << first;
    double covered_pages = table_pages_[first];

    for (size_t step = 1; step < order.size(); ++step) {
      QueryPos j = order[step];
      std::vector<int> preds = query_.ConnectingPredicates(covered, j);
      if (preds.empty() && forbid_cross_products_) return std::nullopt;
      double right_pages = table_pages_[j];
      double out_pages =
          covered_pages * right_pages * query_.MeanSelectivity(preds);
      PlanPtr access = MakeAccess(j, right_pages);

      OrderMap next;
      for (const auto& state : states) {
        OrderId left_order = state.first;
        const DpEntry& left = state.second;
        PlanPtr sorted_access;
        double enforcer_cost = 0;
        ForEachJoinStep(
            options_, preds, kEveryJoinMethod,
            [&](OrderId key) {
              ++*cost_evals;
              enforcer_cost =
                  ExpectedSortCostFixedSize(model_, right_pages, memory_);
              sorted_access = MakeSort(access, key);
            },
            [&](JoinMethod method, OrderId key, bool inner_sorted) {
              ++*cost_evals;
              bool ls = key != kUnsorted && left_order == key;
              double step_cost = ExpectedJoinCostFixedSizes(
                  model_, method, covered_pages, right_pages, memory_, ls,
                  inner_sorted);
              OrderId out_order =
                  DpContext::JoinOutputOrder(method, left_order, key);
              internal::RetainBest(
                  &next, out_order,
                  {MakeJoin(left.plan, inner_sorted ? sorted_access : access,
                            method, preds, out_order, out_pages),
                   left.cost + right_pages +
                       (inner_sorted ? enforcer_cost : 0.0) + step_cost});
            });
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
      if (query_.required_order() && o != *query_.required_order()) {
        ++*cost_evals;
        total += ExpectedSortCostFixedSize(model_, covered_pages, memory_);
        plan = MakeSort(plan, *query_.required_order());
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

 private:
  const Query& query_;
  const CostModel& model_;
  const Distribution& memory_;
  const OptimizerOptions& options_;
  bool forbid_cross_products_;
  std::vector<double> table_pages_;
};

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
  TableSet seen = 0;
  for (QueryPos p : order) {
    if (p >= 0 && p < query.num_tables()) seen |= TableSet{1} << p;
  }
  if (order.size() != static_cast<size_t>(query.num_tables()) ||
      seen != query.AllTables()) {
    throw std::invalid_argument("order must cover every relation once");
  }
  size_t evals = 0;
  std::optional<OptimizeResult> r =
      OrderEvaluator(query, catalog, model, memory, options)
          .Evaluate(order, &evals);
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
  OrderEvaluator evaluator(query, catalog, model, memory,
                           options.plan_options);

  for (int restart = 0; restart < std::max(options.restarts, 1); ++restart) {
    std::vector<QueryPos> order =
        RandomConnectedOrder(query, rng, options.plan_options);
    std::optional<OptimizeResult> cur =
        evaluator.Evaluate(order, &total_evals);
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
        std::optional<OptimizeResult> cand =
            evaluator.Evaluate(order, &total_evals);
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
