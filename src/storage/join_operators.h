// Page-level join operators, mirroring the analytic cost model's algorithms.
//
// Each operator joins two TableData relations on one column per side,
// charges every page read/write to the BufferPool, and respects the pool's
// capacity as its workspace bound. The engine-validation experiment (E10)
// compares these measured I/O counts against CostModel::JoinCost across the
// memory thresholds; the nested-loop operator matches the model exactly,
// the sort-based and hash-based operators match its shape (the model's
// stylized 2/4/6 multipliers undercount the re-read of the final pass by a
// constant factor — see EXPERIMENTS.md).
//
// The charged I/O follows the paper's formulas; the CPU work does not have
// to. Nested loops (both branches) and Grace's in-memory join look each
// probe-side tuple up once in a flat hash index, so a page nested-loop
// join (probing with the outer) costs its matches, not |A|·|B| tuple
// comparisons. Output ORDER is part of the
// contract (tests/golden/join_operator_outputs.txt pins it with the I/O):
//   * resident nested loops and Grace's in-memory join: probe tuples in
//     storage order, each probe's matches newest build tuple first;
//   * page nested loops: per outer page, matches by (inner page, outer
//     slot, inner slot), the order of a page-pair scan;
//   * sort-merge: key groups in key order, each left-major over both
//     sides' stably sorted tuples.
#ifndef LECOPT_STORAGE_JOIN_OPERATORS_H_
#define LECOPT_STORAGE_JOIN_OPERATORS_H_

#include "storage/buffer_pool.h"
#include "storage/table_data.h"

namespace lec {

/// Which input's column feeds each output column, so multi-join plans can
/// route the key needed by the next join.
struct JoinColumnSpec {
  int left_col = 0;   ///< join column of the left (outer) input
  int right_col = 0;  ///< join column of the right (inner) input
  /// Output column 0/1 sources: side 0 = left, 1 = right.
  int out0_side = 0;
  int out0_col = 0;
  int out1_side = 1;
  int out1_col = 1;
};

/// Sort-merge join: forms sorted runs per side (skipped for a pre-sorted
/// side), merges runs down until the final fan-in fits, then merge-joins.
TableData SortMergeJoinOp(BufferPool* pool, const TableData& left,
                          const TableData& right, const JoinColumnSpec& spec,
                          bool left_sorted = false, bool right_sorted = false);

/// Grace hash join: partitions both sides with M-1 output buffers
/// (recursively if a build partition still exceeds memory), then builds and
/// probes per partition.
TableData GraceHashJoinOp(BufferPool* pool, const TableData& left,
                          const TableData& right, const JoinColumnSpec& spec);

/// Nested-loop join per the paper's formula: inner relation in memory if it
/// fits (M >= S+2), else one-page-at-a-time outer loops.
TableData NestedLoopJoinOp(BufferPool* pool, const TableData& left,
                           const TableData& right,
                           const JoinColumnSpec& spec);

/// Reference tuple-at-a-time join (no I/O accounting): the correctness
/// oracle for the operators above.
TableData NaiveJoinReference(const TableData& left, const TableData& right,
                             const JoinColumnSpec& spec);

}  // namespace lec

#endif  // LECOPT_STORAGE_JOIN_OPERATORS_H_
