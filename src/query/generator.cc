#include "query/generator.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "dist/builders.h"

namespace lec {

namespace {

/// Pairs of positions receiving a predicate for the requested shape.
std::vector<std::pair<QueryPos, QueryPos>> EdgeList(
    const WorkloadOptions& options, Rng* rng) {
  int n = options.num_tables;
  std::vector<std::pair<QueryPos, QueryPos>> edges;
  switch (options.shape) {
    case JoinGraphShape::kChain:
      for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
      break;
    case JoinGraphShape::kStar:
      for (int i = 1; i < n; ++i) edges.emplace_back(0, i);
      break;
    case JoinGraphShape::kCycle:
      for (int i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
      if (n > 2) edges.emplace_back(n - 1, 0);
      break;
    case JoinGraphShape::kClique:
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) edges.emplace_back(i, j);
      }
      break;
    case JoinGraphShape::kRandom: {
      // Random spanning tree: attach each new node to a random earlier one.
      for (int i = 1; i < n; ++i) {
        edges.emplace_back(static_cast<QueryPos>(rng->UniformInt(0, i - 1)),
                           i);
      }
      std::set<std::pair<QueryPos, QueryPos>> have(edges.begin(), edges.end());
      int added = 0, attempts = 0;
      while (added < options.extra_edges && attempts < 100 * n) {
        ++attempts;
        QueryPos a = static_cast<QueryPos>(rng->UniformInt(0, n - 1));
        QueryPos b = static_cast<QueryPos>(rng->UniformInt(0, n - 1));
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        if (have.insert({a, b}).second) {
          edges.emplace_back(a, b);
          ++added;
        }
      }
      break;
    }
  }
  if (options.num_components > 1) {
    // Contiguous partition: position p belongs to component p*k/n. Dropping
    // every crossing edge disconnects the graph into exactly k runs (each
    // shape connects consecutive positions within a run, except kRandom,
    // which may fracture further — also a valid disconnected instance).
    auto component = [&options, n](QueryPos p) {
      return static_cast<long>(p) * options.num_components / n;
    };
    edges.erase(std::remove_if(edges.begin(), edges.end(),
                               [&](const std::pair<QueryPos, QueryPos>& e) {
                                 return component(e.first) !=
                                        component(e.second);
                               }),
                edges.end());
  }
  return edges;
}

Distribution ThreePointSpread(double center, double spread) {
  if (spread <= 1.0) return Distribution::PointMass(center);
  return Distribution(
      {{center / spread, 0.25}, {center, 0.5}, {center * spread, 0.25}});
}

}  // namespace

namespace {

/// Central option validation: a malformed request is refused loudly, never
/// silently clamped into a workload the caller did not ask for.
void Validate(const WorkloadOptions& options) {
  if (options.num_tables < 2) {
    throw std::invalid_argument("need at least two tables");
  }
  if (!(options.min_pages > 0) || !(options.max_pages > 0) ||
      options.min_pages > options.max_pages) {
    throw std::invalid_argument(
        "page range must satisfy 0 < min_pages <= max_pages");
  }
  if (!(options.min_selectivity > 0) || !(options.max_selectivity > 0) ||
      options.min_selectivity > options.max_selectivity) {
    throw std::invalid_argument(
        "selectivity range must satisfy 0 < min_selectivity <= "
        "max_selectivity");
  }
  if (!(options.selectivity_spread >= 1.0) ||
      !(options.table_size_spread >= 1.0)) {
    throw std::invalid_argument(
        "spreads are multiplicative and must be >= 1 (1 = certain)");
  }
  if (options.extra_edges < 0) {
    throw std::invalid_argument("extra_edges must be non-negative");
  }
  if (options.extra_edges > 0 && options.shape != JoinGraphShape::kRandom) {
    throw std::invalid_argument(
        "extra_edges only applies to JoinGraphShape::kRandom; it would be "
        "silently ignored for this shape");
  }
  if (!(options.order_by_probability >= 0.0) ||
      !(options.order_by_probability <= 1.0)) {
    throw std::invalid_argument(
        "order_by_probability must be a probability in [0, 1]");
  }
  if (!(options.redundant_edge_probability >= 0.0) ||
      !(options.redundant_edge_probability <= 1.0)) {
    throw std::invalid_argument(
        "redundant_edge_probability must be a probability in [0, 1]");
  }
  if (!(options.filter_probability >= 0.0) ||
      !(options.filter_probability <= 1.0)) {
    throw std::invalid_argument(
        "filter_probability must be a probability in [0, 1]");
  }
  if (options.num_components < 1 ||
      options.num_components > options.num_tables) {
    throw std::invalid_argument(
        "num_components must be in [1, num_tables]");
  }
}

}  // namespace

Workload GenerateWorkload(const WorkloadOptions& options, Rng* rng) {
  Validate(options);
  Workload w;
  for (int i = 0; i < options.num_tables; ++i) {
    Table t;
    // Two steps, not operator+: GCC 12's -Wrestrict false-fires on it.
    t.name = "T";
    t.name += std::to_string(i);
    t.pages = rng->LogUniform(options.min_pages, options.max_pages);
    if (options.table_size_spread > 1.0) {
      t.pages_dist = ThreePointSpread(t.pages, options.table_size_spread);
    }
    TableId id = w.catalog.AddTable(std::move(t));
    w.query.AddTable(id);
  }
  for (auto [a, b] : EdgeList(options, rng)) {
    double sel =
        rng->LogUniform(options.min_selectivity, options.max_selectivity);
    if (options.selectivity_spread > 1.0) {
      w.query.AddPredicate(a, b,
                           UncertainSelectivity(sel,
                                                options.selectivity_spread));
    } else {
      w.query.AddPredicate(a, b, sel);
    }
    // Guarded so default workloads draw the exact same rng stream as before
    // the knob existed (goldens and seeded tests depend on it).
    if (options.redundant_edge_probability > 0 &&
        rng->Uniform01() < options.redundant_edge_probability) {
      double sel2 =
          rng->LogUniform(options.min_selectivity, options.max_selectivity);
      if (options.selectivity_spread > 1.0) {
        w.query.AddPredicate(
            a, b, UncertainSelectivity(sel2, options.selectivity_spread));
      } else {
        w.query.AddPredicate(a, b, sel2);
      }
    }
  }
  if (options.order_by_probability > 0 && w.query.num_predicates() > 0 &&
      rng->Uniform01() < options.order_by_probability) {
    w.query.RequireOrder(static_cast<OrderId>(
        rng->UniformInt(0, w.query.num_predicates() - 1)));
  }
  if (options.filter_probability > 0) {
    // Filters keep a visible fraction of each table (0.05–0.9) — much
    // milder than join selectivities, matching a WHERE clause rather than a
    // key join.
    for (int i = 0; i < options.num_tables; ++i) {
      if (rng->Uniform01() < options.filter_probability) {
        w.query.AddFilter(static_cast<QueryPos>(i),
                          rng->LogUniform(0.05, 0.9));
      }
    }
  }
  return w;
}

}  // namespace lec
