// Golden file for the storage join operators (storage/join_operators.cc).
//
// Pins, for nested loops, sort-merge and Grace hash, the exact output
// tuple SEQUENCE (an order-sensitive hash over every tuple's columns and
// payload) and the charged page reads and writes. The executor's traces,
// the calibration corpus and every downstream sort see operator output in
// this order, so a faster operator must reproduce it, not just the
// multiset. The grid reaches both nested-loop branches (inner resident at
// smaller + 2 <= M, page-at-a-time loops below it), Grace's recursive
// partitioning (M = 3 against 24-page inputs, and one-key skew that only
// the depth cap stops) and its in-memory join; sizes include partial last
// pages.
//
// Regenerating after an intentional change to an operator's output order
// or I/O accounting:
//
//   UPDATE_GOLDEN=1 ctest -R JoinOperatorGolden
//
// then review the diff like any other code change.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "storage/join_operators.h"
#include "util/hash.h"
#include "util/rng.h"

namespace lec {
namespace {

std::string GoldenPath() {
  return std::string(LECOPT_SOURCE_DIR) +
         "/tests/golden/join_operator_outputs.txt";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// `num_tuples` rows whose join column (col 1 on the left, col 0 on the
/// right, as the executor routes chain keys) is uniform in [0, key_range),
/// or the row number when key_range is 0. The other column and the payload
/// are random so that the routed output columns and the lineage payload
/// both carry information about which rows were paired.
TableData MakeSide(size_t num_tuples, int64_t key_range, int join_col,
                   Rng* rng) {
  TableData out;
  for (size_t i = 0; i < num_tuples; ++i) {
    Tuple t;
    int64_t key = key_range > 0 ? rng->UniformInt(0, key_range - 1)
                                : static_cast<int64_t>(i);
    t.cols[join_col] = key;
    t.cols[1 - join_col] = rng->UniformInt(0, 1 << 20);
    t.payload = static_cast<int64_t>(SplitMix64(
        static_cast<uint64_t>(rng->UniformInt(0, INT64_MAX - 1))));
    out.Append(t);
  }
  return out;
}

std::string Fingerprint(const TableData& out, const BufferPool& pool) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  out.ForEachTuple([&h](const Tuple& t) {
    h = SplitMix64(h ^ static_cast<uint64_t>(t.cols[0]));
    h = SplitMix64(h ^ static_cast<uint64_t>(t.cols[1]));
    h = SplitMix64(h ^ static_cast<uint64_t>(t.payload));
  });
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%zu/%zu/%016" PRIx64 "/%" PRIu64 "/%" PRIu64,
                out.num_tuples(), out.num_pages(), h, pool.reads(),
                pool.writes());
  return buf;
}

std::string Render() {
  // Tuple counts: one full page, a partial third page, 7 full pages, a
  // partial 14th page, 24 full pages.
  const size_t kSizes[] = {64, 150, 448, 850, 1536};
  // 0 = unique keys (row number).
  const int64_t kKeyRanges[] = {1, 2, 64, 3000, 0};
  const size_t kMemories[] = {3, 5, 8, 16, 64};
  const size_t kMaxSkewPairs = 150 * 1536;
  JoinColumnSpec spec;
  spec.left_col = 1;
  spec.right_col = 0;
  spec.out0_side = 0;
  spec.out0_col = 0;
  spec.out1_side = 1;
  spec.out1_col = 1;

  std::ostringstream out;
  out << "# left right keys memory: NL SM GH as "
         "tuples/pages/sequence-hash/reads/writes\n";
  uint64_t seed = 1;
  for (int64_t keys : kKeyRanges) {
    for (size_t l : kSizes) {
      for (size_t r : kSizes) {
        Rng rng(seed++);
        // One and two distinct keys make the output quadratic; past
        // kMaxSkewPairs row pairs those cases add run time, not coverage.
        if (keys >= 1 && keys <= 2 && l * r > kMaxSkewPairs) continue;
        TableData left = MakeSide(l, keys, spec.left_col, &rng);
        TableData right = MakeSide(r, keys, spec.right_col, &rng);
        for (size_t m : kMemories) {
          BufferPool nl_pool(m), sm_pool(m), gh_pool(m);
          TableData nl = NestedLoopJoinOp(&nl_pool, left, right, spec);
          TableData sm = SortMergeJoinOp(&sm_pool, left, right, spec);
          TableData gh = GraceHashJoinOp(&gh_pool, left, right, spec);
          out << l << ' ' << r << ' ' << keys << ' ' << m << ": "
              << Fingerprint(nl, nl_pool) << ' ' << Fingerprint(sm, sm_pool)
              << ' ' << Fingerprint(gh, gh_pool) << '\n';
        }
      }
    }
  }
  return out.str();
}

TEST(JoinOperatorGolden, OutputOrderAndIoMatchGoldenFile) {
  std::string rendered = Render();
  std::string path = GoldenPath();
  const char* update = std::getenv("UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::string want = ReadFile(path);
  ASSERT_FALSE(want.empty()) << "missing golden " << path
                             << " (run with UPDATE_GOLDEN=1 to create it)";
  EXPECT_EQ(rendered, want);
}

}  // namespace
}  // namespace lec
