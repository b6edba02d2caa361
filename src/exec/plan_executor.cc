#include "exec/plan_executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "optimizer/reoptimize.h"
#include "storage/buffer_pool.h"
#include "storage/external_sort.h"
#include "storage/join_operators.h"

namespace lec {

namespace {

size_t PoolCapacity(double memory) {
  return static_cast<size_t>(std::max(1.0, std::floor(memory)));
}

double MemoryAt(const std::vector<double>& memory_by_phase, int phase_idx) {
  size_t i = std::min<size_t>(static_cast<size_t>(std::max(phase_idx, 0)),
                              memory_by_phase.size() - 1);
  return memory_by_phase[i];
}

/// One join of the flattened left spine.
struct JoinStep {
  const PlanNode* node = nullptr;  ///< the kJoin node
  QueryPos inner_pos = -1;
  bool inner_sort_enforced = false;
};

/// Flattens a left-deep join tree (no root sort) into execution order.
/// Returns the leftmost access position; fills `steps` outermost-first.
QueryPos FlattenLeftDeep(const PlanNode* node, std::vector<JoinStep>* steps) {
  std::vector<JoinStep> reversed;
  while (node->kind == PlanNode::Kind::kJoin) {
    const PlanNode* inner = node->right.get();
    bool enforced = false;
    if (inner->kind == PlanNode::Kind::kSort) {
      enforced = true;
      inner = inner->left.get();
    }
    if (inner->kind != PlanNode::Kind::kAccess) {
      throw std::invalid_argument("plan executor requires left-deep plans");
    }
    reversed.push_back(JoinStep{node, inner->table_pos, enforced});
    node = node->left.get();
  }
  if (node->kind != PlanNode::Kind::kAccess) {
    throw std::invalid_argument("plan executor requires left-deep plans");
  }
  steps->assign(reversed.rbegin(), reversed.rend());
  return node->table_pos;
}

/// The remaining work after a drifted phase, rebuilt as a standalone chain
/// world: the intermediate (covering original positions [lo, hi]) becomes
/// the base relation at its new position lo, at its REALIZED size; every
/// unconsumed original keeps its data and its realized page count. The
/// chain predicates carry over — boundary keys are untouched by the join
/// routing (out col0 = low boundary, col1 = high boundary), so the
/// intermediate joins its neighbours on exactly the original predicates'
/// keys and selectivity distributions. The world's tables are views: the
/// originals stay where the caller keeps them, and `intermediate` must
/// outlive the world.
struct SuffixWorld {
  Catalog catalog;
  Query query;
  std::vector<const TableData*> tables;
};

SuffixWorld BuildSuffixWorld(const Query& query,
                             const std::vector<const TableData*>& tables,
                             const TableData& intermediate, int lo, int hi) {
  int n = query.num_tables();
  int span = hi - lo;  // original positions folded into the intermediate
  int suffix_n = n - span;
  SuffixWorld world;
  world.tables.reserve(static_cast<size_t>(suffix_n));
  for (int p = 0; p < suffix_n; ++p) {
    bool is_intermediate = p == lo;
    int orig = p < lo ? p : p + span;
    const TableData& data =
        is_intermediate ? intermediate : *tables[static_cast<size_t>(orig)];
    double pages = std::max<double>(static_cast<double>(data.num_pages()), 1);
    TableId id = world.catalog.AddTable(
        is_intermediate ? "intermediate" : "suffix" + std::to_string(orig),
        pages);
    world.query.AddTable(id);
    world.tables.push_back(&data);
  }
  for (int i = 0; i + 1 < suffix_n; ++i) {
    // Suffix predicate i joins suffix positions (i, i+1); the original
    // predicate it restates: left of the intermediate the indices align,
    // the intermediate's right edge is original predicate `hi`, and past
    // it the indices shift by the folded span.
    int orig = i < lo ? i : (i == lo ? hi : i + span);
    world.query.AddPredicate(i, i + 1, query.predicate(orig).selectivity);
  }
  return world;
}

struct ExecState {
  const ExecutePlanOptions* options;
  ExecutionResult* out;
  int reopt_budget = 0;
};

void RecordSample(ExecState* st, bool is_sort, JoinMethod method,
                  double left_pages, double right_pages, double memory,
                  const BufferPool& pool) {
  if (!st->options->collect_samples) return;
  OperatorSample s;
  s.is_sort = is_sort;
  s.method = method;
  s.left_pages = left_pages;
  s.right_pages = right_pages;
  s.memory = memory;
  s.measured_io = static_cast<double>(pool.total_io());
  st->out->samples.push_back(s);
}

/// Executes the join pipeline of `plan` (which must not have a root sort)
/// for the chain `query` over `tables` (one per query position).
/// `memory_by_phase` is local to this (sub)execution; `phase_offset`
/// converts local phase indices to the global numbering in traces. Returns
/// the joined data.
TableData ExecuteJoins(const PlanPtr& plan, const Query& query,
                       const std::vector<const TableData*>& tables,
                       const std::vector<double>& memory_by_phase,
                       int phase_offset, ExecState* st) {
  std::vector<JoinStep> steps;
  QueryPos first = FlattenLeftDeep(plan.get(), &steps);
  // The outer input: a base table until the first join, then `owned`, the
  // latest join's output. Base tables are read in place, never copied.
  const TableData* cur = tables.at(static_cast<size_t>(first));
  TableData owned;
  int lo = first, hi = first;

  for (size_t si = 0; si < steps.size(); ++si) {
    const JoinStep& step = steps[si];
    int j = step.inner_pos;
    double memory = MemoryAt(memory_by_phase, static_cast<int>(si));

    JoinColumnSpec spec;
    int new_lo, new_hi;
    if (j == hi + 1) {
      spec.left_col = 1;   // col1 of the covered range's high boundary
      spec.right_col = 0;  // col0 of the next chain table
      spec.out0_side = 0;
      spec.out0_col = 0;  // keep low boundary key
      spec.out1_side = 1;
      spec.out1_col = 1;  // new high boundary key
      new_lo = lo;
      new_hi = j;
    } else if (j == lo - 1) {
      spec.left_col = 0;
      spec.right_col = 1;
      spec.out0_side = 1;
      spec.out0_col = 0;  // new low boundary key
      spec.out1_side = 0;
      spec.out1_col = 1;  // keep high boundary key
      new_lo = j;
      new_hi = hi;
    } else {
      throw std::invalid_argument("plan joins non-adjacent chain positions");
    }

    const TableData& base = *tables.at(static_cast<size_t>(j));
    TableData sorted_inner;
    const TableData* inner = &base;
    uint64_t enforcer_reads = 0, enforcer_writes = 0;
    if (step.inner_sort_enforced) {
      BufferPool sort_pool(PoolCapacity(memory));
      sorted_inner = ExternalSortOp(&sort_pool, base, /*col=*/0);
      inner = &sorted_inner;
      enforcer_reads = sort_pool.reads();
      enforcer_writes = sort_pool.writes();
      RecordSample(st, /*is_sort=*/true, JoinMethod::kNestedLoop,
                   static_cast<double>(base.num_pages()), 0, memory,
                   sort_pool);
    }
    bool right_sorted = step.inner_sort_enforced && spec.right_col == 0;

    BufferPool pool(PoolCapacity(memory));
    double left_pages = static_cast<double>(cur->num_pages());
    double right_pages = static_cast<double>(inner->num_pages());
    TableData joined;
    switch (step.node->method) {
      case JoinMethod::kSortMerge:
        joined = SortMergeJoinOp(&pool, *cur, *inner, spec,
                                 /*left_sorted=*/false, right_sorted);
        break;
      case JoinMethod::kGraceHash:
        joined = GraceHashJoinOp(&pool, *cur, *inner, spec);
        break;
      case JoinMethod::kNestedLoop:
        joined = NestedLoopJoinOp(&pool, *cur, *inner, spec);
        break;
      case JoinMethod::kHybridHash:
        throw std::invalid_argument(
            "hybrid hash join is analytic-only (no engine operator)");
    }
    RecordSample(st, /*is_sort=*/false, step.node->method, left_pages,
                 right_pages, memory, pool);

    double planned = step.node->est_pages;
    double realized = static_cast<double>(joined.num_pages());
    bool drifted = std::fabs(realized - planned) >
                   st->options->drift_threshold * std::max(planned, 1.0);

    PhaseTrace trace;
    trace.phase = phase_offset + static_cast<int>(si);
    trace.method = step.node->method;
    trace.left_pages = left_pages;
    trace.right_pages = right_pages;
    trace.planned_output_pages = planned;
    trace.realized_output_pages = realized;
    trace.page_reads = pool.reads() + enforcer_reads;
    trace.page_writes = pool.writes() + enforcer_writes;
    trace.memory = memory;
    trace.drifted = drifted;
    st->out->phases.push_back(trace);
    st->out->page_reads += trace.page_reads;
    st->out->page_writes += trace.page_writes;

    owned = std::move(joined);
    cur = &owned;
    lo = new_lo;
    hi = new_hi;

    bool work_remains = si + 1 < steps.size();
    if (drifted && work_remains && st->options->reoptimize_on_drift &&
        st->reopt_budget > 0) {
      --st->reopt_budget;
      ++st->out->reoptimizations;
      SuffixWorld world = BuildSuffixWorld(query, tables, owned, lo, hi);
      std::vector<double> suffix_memory;
      int remaining = world.query.num_tables() - 1;
      suffix_memory.reserve(static_cast<size_t>(remaining));
      for (int t = 0; t < remaining; ++t) {
        suffix_memory.push_back(
            MemoryAt(memory_by_phase, static_cast<int>(si) + 1 + t));
      }
      SuffixCosting costing;
      costing.model = st->options->model;
      if (st->options->chain != nullptr) {
        costing.chain = st->options->chain;
        costing.current_memory = memory;
      } else if (st->options->memory_dist != nullptr) {
        costing.memory_dist = st->options->memory_dist;
      } else {
        costing.memory_by_phase = &suffix_memory;
      }
      OptimizeResult replanned =
          ReoptimizeSuffix(world.query, world.catalog, costing,
                           st->options->optimizer_options);
      return ExecuteJoins(replanned.plan, world.query, world.tables,
                          suffix_memory,
                          phase_offset + static_cast<int>(si) + 1, st);
    }
  }
  if (cur != &owned) return *cur;  // a one-table plan: no join ran
  return owned;
}

}  // namespace

ExecutionResult ExecutePlan(const PlanPtr& plan, const Query& query,
                            const EngineWorkload& workload,
                            const ExecutePlanOptions& options) {
  if (options.memory_by_phase.empty()) {
    throw std::invalid_argument("memory_by_phase must not be empty");
  }
  if (options.reoptimize_on_drift && options.model == nullptr) {
    throw std::invalid_argument("reoptimize_on_drift requires a cost model");
  }
  const PlanNode* root = plan.get();
  PlanPtr joins = plan;
  bool final_sort = false;
  if (root->kind == PlanNode::Kind::kSort) {
    final_sort = true;
    joins = root->left;
  }
  ExecutionResult out;
  ExecState st;
  st.options = &options;
  st.out = &out;
  st.reopt_budget = options.max_reoptimizations;
  std::vector<const TableData*> tables;
  tables.reserve(workload.tables.size());
  for (const TableData& t : workload.tables) tables.push_back(&t);
  out.result = ExecuteJoins(joins, query, tables, options.memory_by_phase,
                            /*phase_offset=*/0, &st);
  if (final_sort) {
    int last_phase = std::max(query.num_tables() - 2, 0);
    double memory = MemoryAt(options.memory_by_phase, last_phase);
    BufferPool pool(PoolCapacity(memory));
    double in_pages = static_cast<double>(out.result.num_pages());
    out.result = ExternalSortOp(&pool, out.result, /*col=*/0);
    RecordSample(&st, /*is_sort=*/true, JoinMethod::kNestedLoop, in_pages, 0,
                 memory, pool);
    PhaseTrace trace;
    trace.phase = last_phase;
    trace.is_sort = true;
    trace.left_pages = in_pages;
    trace.planned_output_pages = in_pages;
    trace.realized_output_pages = in_pages;
    trace.page_reads = pool.reads();
    trace.page_writes = pool.writes();
    trace.memory = memory;
    out.phases.push_back(trace);
    out.page_reads += pool.reads();
    out.page_writes += pool.writes();
  }
  return out;
}

std::vector<OperatorSample> BuildCalibrationCorpus(const CalibrationGrid& grid,
                                                   Rng* rng) {
  std::vector<OperatorSample> corpus;
  int64_t range = KeyRangeForSelectivity(grid.selectivity);
  JoinColumnSpec spec;
  spec.left_col = 1;
  spec.right_col = 0;
  for (size_t a : grid.left_pages) {
    for (size_t b : grid.right_pages) {
      TableData left = GenerateTable(a, 0, range, rng);
      TableData right = GenerateTable(b, range, 0, rng);
      for (size_t m : grid.memories) {
        for (JoinMethod method : kAllJoinMethods) {
          BufferPool pool(m);
          switch (method) {
            case JoinMethod::kSortMerge:
              SortMergeJoinOp(&pool, left, right, spec);
              break;
            case JoinMethod::kGraceHash:
              GraceHashJoinOp(&pool, left, right, spec);
              break;
            case JoinMethod::kNestedLoop:
              NestedLoopJoinOp(&pool, left, right, spec);
              break;
            case JoinMethod::kHybridHash:
              continue;  // analytic-only
          }
          OperatorSample s;
          s.method = method;
          s.left_pages = static_cast<double>(a);
          s.right_pages = static_cast<double>(b);
          s.memory = static_cast<double>(m);
          s.measured_io = static_cast<double>(pool.total_io());
          corpus.push_back(s);
        }
      }
    }
  }
  for (size_t p : grid.sort_pages) {
    TableData t = GenerateTable(p, range, 0, rng);
    for (size_t m : grid.memories) {
      BufferPool pool(m);
      ExternalSortOp(&pool, t, /*col=*/0);
      OperatorSample s;
      s.is_sort = true;
      s.left_pages = static_cast<double>(p);
      s.memory = static_cast<double>(m);
      s.measured_io = static_cast<double>(pool.total_io());
      corpus.push_back(s);
    }
  }
  return corpus;
}

}  // namespace lec
