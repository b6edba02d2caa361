#include "cost/explain.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "cost/expected_cost.h"

namespace lec {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Builds the regimes of a memory->cost step function given its breakpoints.
std::vector<CostRegime> RegimesFromBreakpoints(
    const std::vector<double>& breakpoints, const Distribution& memory,
    const std::function<double(double)>& cost_at) {
  std::vector<double> edges = breakpoints;
  std::sort(edges.begin(), edges.end());
  std::vector<CostRegime> out;
  double lo = 0;
  for (size_t i = 0; i <= edges.size(); ++i) {
    double hi = i < edges.size() ? edges[i] : kInf;
    CostRegime r;
    r.memory_lo = lo;
    r.memory_hi = hi;
    r.probability = i < edges.size()
                        ? memory.PrLeq(hi) - memory.PrLeq(lo)
                        : memory.PrGt(lo);
    // Probe the cost strictly inside (lo, hi): join formulas change just
    // above their breakpoints, the sort formula exactly at its one, so the
    // interior is the only point guaranteed to represent the interval.
    double probe = std::isfinite(hi) ? (lo + hi) / 2
                                     : (lo > 0 ? lo * 2 + 1 : 1.0);
    if (probe <= 0) probe = hi / 2;
    r.cost = cost_at(probe);
    if (r.probability > 0) out.push_back(r);
    lo = hi;
  }
  return out;
}

struct Walk {
  double pages = 0;
  std::vector<OperatorDiagnostics> ops;
};

Walk Recurse(const PlanPtr& node, const Query& query, const Catalog& catalog,
             const CostModel& model, const Distribution& memory) {
  Walk out;
  std::ostringstream desc;
  switch (node->kind) {
    case PlanNode::Kind::kAccess: {
      out.pages = catalog.table(query.table(node->table_pos)).SizeMean();
      OperatorDiagnostics d;
      desc << "Scan(" << catalog.table(query.table(node->table_pos)).name
           << " [" << out.pages << " pg])";
      d.description = desc.str();
      d.expected_cost = model.ScanCost(out.pages);
      d.regimes.push_back({0, kInf, d.expected_cost, 1.0});
      out.ops.push_back(std::move(d));
      return out;
    }
    case PlanNode::Kind::kSort: {
      Walk child = Recurse(node->left, query, catalog, model, memory);
      out.pages = child.pages;
      out.ops = std::move(child.ops);
      OperatorDiagnostics d;
      desc << "Sort(p" << node->order << ", " << out.pages << " pg)";
      d.description = desc.str();
      double pages = out.pages;
      d.regimes = RegimesFromBreakpoints(
          model.SortMemoryBreakpoints(pages), memory,
          [&model, pages](double m) { return model.SortCost(pages, m); });
      d.expected_cost = ExpectedSortCostFixedSize(model, pages, memory);
      double var = 0;
      for (const CostRegime& r : d.regimes) {
        var += r.probability * (r.cost - d.expected_cost) *
               (r.cost - d.expected_cost);
      }
      d.cost_stddev = std::sqrt(var);
      out.ops.push_back(std::move(d));
      return out;
    }
    case PlanNode::Kind::kJoin: {
      Walk l = Recurse(node->left, query, catalog, model, memory);
      Walk r = Recurse(node->right, query, catalog, model, memory);
      double sel = query.MeanSelectivity(node->predicates);
      out.pages = l.pages * r.pages * sel;
      out.ops = std::move(l.ops);
      for (auto& op : r.ops) out.ops.push_back(std::move(op));
      OperatorDiagnostics d;
      desc << ToString(node->method) << "Join(" << l.pages << " pg x "
           << r.pages << " pg -> " << out.pages << " pg)";
      d.description = desc.str();
      JoinSortedness srt = JoinInputSortedness(*node);
      bool ls = srt.left_sorted, rs = srt.right_sorted;
      double lp = l.pages, rp = r.pages;
      JoinMethod method = node->method;
      d.regimes = RegimesFromBreakpoints(
          model.MemoryBreakpoints(method, lp, rp), memory,
          [&model, method, lp, rp, ls, rs](double m) {
            return model.JoinCost(method, lp, rp, m, ls, rs);
          });
      d.expected_cost =
          ExpectedJoinCostFixedSizes(model, method, lp, rp, memory, ls, rs);
      double var = 0;
      for (const CostRegime& r2 : d.regimes) {
        var += r2.probability * (r2.cost - d.expected_cost) *
               (r2.cost - d.expected_cost);
      }
      d.cost_stddev = std::sqrt(var);
      out.ops.push_back(std::move(d));
      return out;
    }
  }
  throw std::logic_error("unknown plan node kind");
}

}  // namespace

std::string PlanDiagnostics::ToString() const {
  std::ostringstream os;
  for (const OperatorDiagnostics& op : operators) {
    os << op.description << "\n";
    os << "  EC = " << op.expected_cost;
    if (op.cost_stddev > 0) os << "  (stddev " << op.cost_stddev << ")";
    os << "\n";
    if (op.regimes.size() > 1) {
      for (const CostRegime& r : op.regimes) {
        os << "    M in (" << r.memory_lo << ", ";
        if (std::isfinite(r.memory_hi)) {
          os << r.memory_hi;
        } else {
          os << "inf";
        }
        os << "]: cost " << r.cost << "  w.p. " << r.probability << "\n";
      }
    }
  }
  os << "total EC = " << total_expected_cost << "\n";
  if (optimize_seconds >= 0) {
    os << "optimized in " << optimize_seconds * 1e3 << " ms ("
       << candidates_considered << " candidates, " << cost_evaluations
       << " cost evaluations)\n";
  }
  if (!rewrite_passes.empty()) {
    os << "rewritten by:";
    for (const std::string& p : rewrite_passes) os << " " << p;
    os << "\n";
  }
  return os.str();
}

PlanDiagnostics ExplainPlan(const PlanPtr& plan, const Query& query,
                            const Catalog& catalog, const CostModel& model,
                            const Distribution& memory) {
  Walk walk = Recurse(plan, query, catalog, model, memory);
  PlanDiagnostics out;
  out.operators = std::move(walk.ops);
  for (const OperatorDiagnostics& op : out.operators) {
    out.total_expected_cost += op.expected_cost;
  }
  return out;
}

}  // namespace lec
