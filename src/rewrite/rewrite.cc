#include "rewrite/rewrite.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "cost/size_propagation.h"
#include "dist/distribution.h"

namespace lec::rewrite {

namespace {

// splitmix64 finalizer — the canonical-order keys only need deterministic,
// content-derived dispersion, not cryptographic strength.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t Mix2(uint64_t a, uint64_t b) { return Mix(a ^ Mix(b)); }

// -- selection_pushdown -----------------------------------------------------

class SelectionPushdownPass final : public RewritePass {
 public:
  std::string_view name() const override { return "selection_pushdown"; }

  bool Apply(RewriteUnit* unit) const override {
    const Query& q = unit->query;
    if (q.num_filters() == 0) return false;

    // Combined filter selectivity per position (independence product, like
    // §3.6 join selectivities).
    int n = q.num_tables();
    std::vector<Distribution> combined(
        static_cast<size_t>(n), Distribution::PointMass(1.0));
    std::vector<bool> filtered(static_cast<size_t>(n), false);
    auto mul = [](double a, double b) { return a * b; };
    for (const FilterPredicate& f : q.filters()) {
      combined[f.table] = combined[f.table]
                              .ProductWith(f.selectivity, mul)
                              .Rebucket(unit->max_buckets);
      filtered[f.table] = true;
    }

    Query out;
    for (QueryPos p = 0; p < n; ++p) {
      TableId id = q.table(p);
      if (!filtered[p]) {
        out.AddTable(id);
        continue;
      }
      // |σ(A)| = |A| · σ · 1, through the same size-propagation product the
      // DP uses for join outputs, so folded stats obey I4 exactly.
      const Table& t = unit->catalog.table(id);
      std::optional<Distribution> point_mass;
      Distribution size = JoinSizeDistribution(
          t.SizeDistributionRef(&point_mass), Distribution::PointMass(1.0),
          combined[p], unit->max_buckets,
          SizePropagationMode::kExactThenRebucket);
      Table twin;
      twin.name = t.name + "#f";
      twin.pages = t.pages * combined[p].Mean();
      twin.rows_per_page = t.rows_per_page;
      twin.pages_dist = std::move(size);
      out.AddTable(unit->catalog.AddTable(std::move(twin)));
    }
    for (const JoinPredicate& pred : q.predicates()) {
      out.AddPredicate(pred.left, pred.right, pred.selectivity);
    }
    if (q.required_order()) out.RequireOrder(*q.required_order());
    unit->query = std::move(out);
    return true;
  }
};

// -- redundant_predicates ---------------------------------------------------

class RedundantPredicatePass final : public RewritePass {
 public:
  std::string_view name() const override { return "redundant_predicates"; }

  bool Apply(RewriteUnit* unit) const override {
    const Query& q = unit->query;
    int m = q.num_predicates();
    // Group predicate indices by their normalized endpoint pair.
    std::vector<std::vector<int>> groups;
    std::vector<int> group_of(static_cast<size_t>(m), -1);
    bool any_parallel = false;
    for (int i = 0; i < m; ++i) {
      const JoinPredicate& pi = q.predicate(i);
      int a = std::min(pi.left, pi.right), b = std::max(pi.left, pi.right);
      int g = -1;
      for (size_t k = 0; k < groups.size(); ++k) {
        const JoinPredicate& rep = q.predicate(groups[k][0]);
        if (std::min(rep.left, rep.right) == a &&
            std::max(rep.left, rep.right) == b) {
          g = static_cast<int>(k);
          break;
        }
      }
      if (g < 0) {
        g = static_cast<int>(groups.size());
        groups.emplace_back();
      } else {
        any_parallel = true;
      }
      groups[g].push_back(i);
      group_of[i] = g;
    }
    if (!any_parallel) return false;

    // One combined edge per group, at the group's first occurrence; the
    // combined selectivity is the §3.6 independence product, mean-conserving
    // by I4, so every subset size the DP computes is unchanged.
    Query out;
    for (QueryPos p = 0; p < q.num_tables(); ++p) out.AddTable(q.table(p));
    std::vector<int> new_index_of_group(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      const JoinPredicate& rep = q.predicate(groups[g][0]);
      Distribution sel =
          groups[g].size() == 1
              ? rep.selectivity
              : CombinedSelectivityDistribution(q, groups[g],
                                                unit->max_buckets);
      new_index_of_group[g] =
          out.AddPredicate(rep.left, rep.right, std::move(sel));
    }
    for (const FilterPredicate& f : q.filters()) {
      out.AddFilter(f.table, f.selectivity);
    }
    if (q.required_order()) {
      // The combined edge subsumes each component key: a stream ordered on
      // the merged predicate satisfies an ORDER BY on any member.
      out.RequireOrder(new_index_of_group[group_of[*q.required_order()]]);
    }
    unit->query = std::move(out);
    return true;
  }
};

// -- cross_product_avoidance ------------------------------------------------

class CrossProductAvoidancePass final : public RewritePass {
 public:
  std::string_view name() const override { return "cross_product_avoidance"; }

  bool Apply(RewriteUnit* unit) const override {
    Query& q = unit->query;
    int n = q.num_tables();
    if (n < 2) return false;
    if (q.IsConnected(q.AllTables())) return false;

    // The graph is disconnected, so today the DP disables connectedness
    // pruning globally and admits every cross product. Completing each
    // predicate-less pair with a derived selectivity-1 edge keeps every
    // subset joinable through an explicit, exactly-estimated edge
    // (|A × B| = |A| · |B| · 1 conserves the §3 size product), restores
    // the pruning for real edges, and only ever widens the plan space —
    // sort-merge gains the derived keys — so the optimum cannot get worse.
    bool edge[32][32] = {};
    for (const JoinPredicate& p : q.predicates()) {
      edge[p.left][p.right] = edge[p.right][p.left] = true;
    }
    for (QueryPos a = 0; a < n; ++a) {
      for (QueryPos b = a + 1; b < n; ++b) {
        if (!edge[a][b]) q.AddPredicate(a, b, Distribution::PointMass(1.0));
      }
    }
    return true;
  }
};

// -- canonicalize -----------------------------------------------------------

class CanonicalizationPass final : public RewritePass {
 public:
  std::string_view name() const override { return "canonicalize"; }

  bool Apply(RewriteUnit* unit) const override {
    const Query& q = unit->query;
    int n = q.num_tables();
    if (n == 0) return false;

    std::vector<uint64_t> keys = CanonicalPositionKeys(q, unit->catalog);
    // order[i] = the current position relabeled to canonical position i.
    // Ties keep the incoming order (stable sort): tied relabelings may
    // canonicalize differently and miss each other in the cache, which is
    // safe — signature comparison is byte-exact.
    std::vector<QueryPos> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](QueryPos a, QueryPos b) {
      return keys[a] < keys[b];
    });
    std::vector<QueryPos> inv(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) inv[order[i]] = i;

    // Predicates sorted by canonical endpoints, then selectivity content,
    // so relabeled queries also agree on predicate indices (OrderIds).
    int m = q.num_predicates();
    std::vector<int> pred_order(static_cast<size_t>(m));
    std::iota(pred_order.begin(), pred_order.end(), 0);
    auto pred_key = [&](int i) {
      const JoinPredicate& p = q.predicate(i);
      int a = std::min(inv[p.left], inv[p.right]);
      int b = std::max(inv[p.left], inv[p.right]);
      return std::tuple<int, int, uint64_t>(a, b,
                                            p.selectivity.ContentHash());
    };
    std::stable_sort(pred_order.begin(), pred_order.end(),
                     [&](int a, int b) { return pred_key(a) < pred_key(b); });

    bool identity = true;
    for (int i = 0; i < n && identity; ++i) identity = order[i] == i;
    for (int i = 0; i < m && identity; ++i) identity = pred_order[i] == i;
    if (identity) return false;

    Query out;
    for (int i = 0; i < n; ++i) out.AddTable(q.table(order[i]));
    std::vector<int> new_index(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      const JoinPredicate& p = q.predicate(pred_order[i]);
      int a = std::min(inv[p.left], inv[p.right]);
      int b = std::max(inv[p.left], inv[p.right]);
      new_index[pred_order[i]] = out.AddPredicate(a, b, p.selectivity);
    }
    std::vector<int> filter_order(static_cast<size_t>(q.num_filters()));
    std::iota(filter_order.begin(), filter_order.end(), 0);
    std::stable_sort(filter_order.begin(), filter_order.end(),
                     [&](int a, int b) {
                       const FilterPredicate& fa = q.filter(a);
                       const FilterPredicate& fb = q.filter(b);
                       return std::pair(inv[fa.table],
                                        fa.selectivity.ContentHash()) <
                              std::pair(inv[fb.table],
                                        fb.selectivity.ContentHash());
                     });
    for (int i : filter_order) {
      const FilterPredicate& f = q.filter(i);
      out.AddFilter(inv[f.table], f.selectivity);
    }
    if (q.required_order()) out.RequireOrder(new_index[*q.required_order()]);

    std::vector<QueryPos> new_map(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) new_map[i] = unit->position_map[order[i]];
    unit->position_map = std::move(new_map);
    unit->query = std::move(out);
    return true;
  }
};

}  // namespace

std::vector<uint64_t> CanonicalPositionKeys(const Query& query,
                                            const Catalog& catalog) {
  int n = query.num_tables();
  std::vector<uint64_t> keys(static_cast<size_t>(n));
  for (QueryPos p = 0; p < n; ++p) {
    const Table& t = catalog.table(query.table(p));
    uint64_t k = Mix2(std::bit_cast<uint64_t>(t.pages),
                      std::bit_cast<uint64_t>(t.rows_per_page));
    keys[p] = Mix2(k, t.SizeContentHash());
  }
  std::vector<uint64_t> fold(static_cast<size_t>(n), 0);
  for (const FilterPredicate& f : query.filters()) {
    // Commutative accumulation: filter order must not matter.
    fold[f.table] += Mix(f.selectivity.ContentHash());
  }
  for (QueryPos p = 0; p < n; ++p) keys[p] = Mix2(keys[p], fold[p]);

  // Weisfeiler–Leman refinement: n rounds of folding in the neighbors'
  // keys through each edge's selectivity content. Purely content-derived,
  // so any relabeling of the same query permutes the keys identically.
  std::vector<uint64_t> neigh(static_cast<size_t>(n));
  for (int round = 0; round < n; ++round) {
    std::fill(neigh.begin(), neigh.end(), 0);
    for (int i = 0; i < query.num_predicates(); ++i) {
      const JoinPredicate& p = query.predicate(i);
      uint64_t tag = Mix2(p.selectivity.ContentHash(),
                          query.required_order() == i ? 0x0bULL : 0xa7ULL);
      neigh[p.left] += Mix2(keys[p.right], tag);
      neigh[p.right] += Mix2(keys[p.left], tag);
    }
    for (QueryPos p = 0; p < n; ++p) keys[p] = Mix2(keys[p], neigh[p]);
  }
  return keys;
}

size_t RewriteOutcome::total_applied() const {
  size_t total = 0;
  for (const PassCounters& c : counters) total += c.applied;
  return total;
}

const PassCounters* RewriteOutcome::counters_for(std::string_view name) const {
  for (const PassCounters& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

PassManager::PassManager(int max_rounds) : max_rounds_(max_rounds) {
  if (max_rounds < 1) {
    throw std::invalid_argument("PassManager needs at least one round");
  }
}

PassManager& PassManager::Add(std::unique_ptr<RewritePass> pass) {
  passes_.push_back(std::move(pass));
  return *this;
}

RewriteOutcome PassManager::Run(const Query& query, const Catalog& catalog,
                                size_t max_buckets) const {
  RewriteUnit unit;
  unit.query = query;
  unit.catalog = catalog;
  unit.position_map.resize(static_cast<size_t>(query.num_tables()));
  std::iota(unit.position_map.begin(), unit.position_map.end(), 0);
  unit.max_buckets = max_buckets;

  RewriteOutcome out;
  out.counters.reserve(passes_.size());
  for (const auto& pass : passes_) {
    out.counters.push_back({std::string(pass->name()), 0, 0});
  }

  bool changed = true;
  while (changed && out.rounds < max_rounds_) {
    changed = false;
    ++out.rounds;
    for (size_t i = 0; i < passes_.size(); ++i) {
      if (passes_[i]->Apply(&unit)) {
        ++out.counters[i].applied;
        changed = true;
      } else {
        ++out.counters[i].skipped;
      }
    }
  }
  out.reached_fixed_point = !changed;
  out.query = std::move(unit.query);
  out.catalog = std::move(unit.catalog);
  out.position_map = std::move(unit.position_map);
  return out;
}

std::unique_ptr<RewritePass> MakeSelectionPushdownPass() {
  return std::make_unique<SelectionPushdownPass>();
}

std::unique_ptr<RewritePass> MakeRedundantPredicatePass() {
  return std::make_unique<RedundantPredicatePass>();
}

std::unique_ptr<RewritePass> MakeCrossProductAvoidancePass() {
  return std::make_unique<CrossProductAvoidancePass>();
}

std::unique_ptr<RewritePass> MakeCanonicalizationPass() {
  return std::make_unique<CanonicalizationPass>();
}

PassManager StandardPassManager(int max_rounds) {
  PassManager manager(max_rounds);
  manager.Add(MakeSelectionPushdownPass())
      .Add(MakeRedundantPredicatePass())
      .Add(MakeCrossProductAvoidancePass())
      .Add(MakeCanonicalizationPass());
  return manager;
}

}  // namespace lec::rewrite
