// Synthetic page-level data for executing plans on the mini storage engine.
//
// The paper's §4 prototype goal ("test its benefits against realistic
// queries and execution environments") is served by exec/plan_executor.h:
// plans chosen by the optimizers run against this data through the real
// join operators, and the *measured* page I/O — not the cost model's own
// formulas — decides which plan was actually cheaper.
//
// Scope: chain queries (predicate i connects positions i and i+1), which is
// what two join-key columns per tuple can route. Every connected subset of
// a chain is an interval, so all left-deep plans the optimizers emit are
// executable.
#ifndef LECOPT_EXEC_ENGINE_SIMULATOR_H_
#define LECOPT_EXEC_ENGINE_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "query/query.h"
#include "storage/table_data.h"
#include "util/rng.h"

namespace lec {

/// Materialized synthetic data for a chain query, one relation per query
/// position, with join-key ranges tuned to the predicates' mean
/// selectivities.
struct EngineWorkload {
  std::vector<TableData> tables;
};

/// Generates data for a chain query (throws if the query's predicates are
/// not exactly {(0,1), (1,2), ...}). Table page counts come from the
/// catalog, so use a scaled-down catalog for engine runs.
EngineWorkload BuildChainEngineWorkload(const Query& query,
                                        const Catalog& catalog, Rng* rng);

}  // namespace lec

#endif  // LECOPT_EXEC_ENGINE_SIMULATOR_H_
