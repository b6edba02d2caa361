#include "exec/engine_simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lec {

namespace {

/// Validates the chain shape and returns the key range of predicate i.
std::vector<int64_t> ChainKeyRanges(const Query& query) {
  int n = query.num_tables();
  if (query.num_predicates() != n - 1) {
    throw std::invalid_argument("engine workload requires a chain query");
  }
  std::vector<int64_t> ranges(static_cast<size_t>(n - 1), 0);
  for (int i = 0; i < n - 1; ++i) {
    const JoinPredicate& p = query.predicate(i);
    int lo = std::min(p.left, p.right), hi = std::max(p.left, p.right);
    if (lo != i || hi != i + 1) {
      throw std::invalid_argument(
          "engine workload requires predicate i to join positions i, i+1");
    }
    ranges[static_cast<size_t>(i)] =
        KeyRangeForSelectivity(p.selectivity.Mean());
  }
  return ranges;
}

}  // namespace

EngineWorkload BuildChainEngineWorkload(const Query& query,
                                        const Catalog& catalog, Rng* rng) {
  std::vector<int64_t> ranges = ChainKeyRanges(query);
  int n = query.num_tables();
  EngineWorkload w;
  w.tables.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double pages = catalog.table(query.table(i)).pages;
    int64_t range0 = i > 0 ? ranges[static_cast<size_t>(i - 1)] : 0;
    int64_t range1 =
        i < n - 1 ? ranges[static_cast<size_t>(i)] : 0;
    w.tables.push_back(GenerateTable(
        static_cast<size_t>(std::llround(pages)), range0, range1, rng));
  }
  return w;
}

}  // namespace lec
