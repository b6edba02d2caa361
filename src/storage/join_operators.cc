#include "storage/join_operators.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "storage/external_sort.h"
#include "util/hash.h"

namespace lec {

namespace {

Tuple CombineTuples(const Tuple& l, const Tuple& r,
                    const JoinColumnSpec& spec) {
  Tuple out;
  out.cols[0] = (spec.out0_side == 0 ? l : r).cols[spec.out0_col];
  out.cols[1] = (spec.out1_side == 0 ? l : r).cols[spec.out1_col];
  // Additive multiset hash over the base rows' payloads. Payloads live in a
  // SplitMix64-mixed domain (GenerateTable), so the wrapping unsigned sum is
  // a collision-resistant lineage fingerprint that is commutative AND
  // associative: every join order and association over the same base rows
  // produces the same payload. That is what lets result multisets compare
  // exactly across plan orders — including mid-flight re-optimized tails
  // (exec/plan_executor.h) — and it stays well-defined for arbitrarily deep
  // cascades (the old `l.payload << 31 + r.payload` encoding overflowed
  // int64_t on any 3-way join: signed-overflow UB).
  out.payload = static_cast<int64_t>(static_cast<uint64_t>(l.payload) +
                                     static_cast<uint64_t>(r.payload));
  return out;
}

std::vector<Tuple> ReadAll(BufferPool* pool, const TableData& t) {
  std::vector<Tuple> out;
  out.reserve(t.num_tuples());
  for (size_t i = 0; i < t.num_pages(); ++i) {
    pool->ChargeRead();
    for (const Tuple& tup : t.page(i).tuples()) out.push_back(tup);
  }
  return out;
}

/// Chained hash index over one relation's join keys. A power-of-two
/// `head_` array of at least 2n slots holds 1 + the newest entry of each
/// bucket (0 = empty), `next_` links every entry to the one inserted before
/// it in its bucket, and `keys_` keeps the keys contiguous so a probe walks
/// its chain without touching tuples. Entries go in at the chain head, so
/// ForEachMatch visits equal keys newest (highest index) first, as
/// libstdc++'s unordered_multimap::equal_range does; the operators' output
/// order (tests/golden/join_operator_outputs.txt) depends on it.
class KeyIndex {
 public:
  KeyIndex(const std::vector<Tuple>& tuples, int col) {
    size_t n = tuples.size();
    if (n >= std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("KeyIndex holds fewer than 2^32 - 1 keys");
    }
    int bits = 1;
    while ((size_t{1} << bits) < 2 * n) ++bits;
    shift_ = 64 - bits;
    head_.assign(size_t{1} << bits, 0);
    next_.resize(n);
    keys_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      int64_t key = tuples[i].cols[col];
      size_t slot = Slot(key);
      keys_[i] = key;
      next_[i] = head_[slot];
      head_[slot] = static_cast<uint32_t>(i + 1);
    }
  }

  /// Calls fn(i) for every indexed entry i whose key equals `key`, newest
  /// first.
  template <class Fn>
  void ForEachMatch(int64_t key, Fn&& fn) const {
    for (uint32_t e = head_[Slot(key)]; e != 0; e = next_[e - 1]) {
      if (keys_[e - 1] == key) fn(size_t{e - 1});
    }
  }

 private:
  size_t Slot(int64_t key) const {
    // Fibonacci hashing: the high bits of key * 2^64/phi.
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  int shift_ = 63;
  std::vector<uint32_t> head_;
  std::vector<uint32_t> next_;
  std::vector<int64_t> keys_;
};

/// Appends every match of each `probe` tuple against `index` (built over
/// `build`), probe tuples in order and each one's matches newest first.
void ProbeIndex(const KeyIndex& index, const std::vector<Tuple>& build,
                const std::vector<Tuple>& probe, int probe_col,
                bool build_is_left, const JoinColumnSpec& spec,
                TableData* out) {
  for (const Tuple& p : probe) {
    index.ForEachMatch(p.cols[probe_col], [&](size_t i) {
      const Tuple& b = build[i];
      out->Append(build_is_left ? CombineTuples(b, p, spec)
                                : CombineTuples(p, b, spec));
    });
  }
}

/// Recursive Grace partition-and-join.
void GraceRecurse(BufferPool* pool, std::vector<Tuple> left,
                  std::vector<Tuple> right, const JoinColumnSpec& spec,
                  int depth, TableData* out) {
  size_t memory = pool->capacity();
  size_t left_pages = PagesForTuples(left.size());
  size_t right_pages = PagesForTuples(right.size());
  size_t build_pages = std::min(left_pages, right_pages);
  constexpr int kMaxDepth = 10;

  // After at least one partition pass, join in memory once the build side
  // fits (also the escape hatch for heavily skewed keys).
  if (depth > 0 && (build_pages + 2 <= memory || depth >= kMaxDepth)) {
    pool->ChargeRead(left_pages + right_pages);  // read both partitions
    if (left_pages <= right_pages) {
      ProbeIndex(KeyIndex(left, spec.left_col), left, right, spec.right_col,
                 /*build_is_left=*/true, spec, out);
    } else {
      ProbeIndex(KeyIndex(right, spec.right_col), right, left, spec.left_col,
                 /*build_is_left=*/false, spec, out);
    }
    return;
  }

  // Partition pass: read both sides, write all partitions. The workspace
  // reservation is scoped to the pass itself — partitions live "on disk"
  // between the pass and the per-partition joins.
  // Just enough partitions for each build partition to fit in memory,
  // capped by the M-1 available output buffers (avoids the pathological
  // one-page-per-partition rounding when memory is plentiful).
  size_t fan_out = std::max<size_t>(memory > 1 ? memory - 1 : 1, 2);
  size_t denom = memory > 2 ? memory - 2 : 1;
  size_t needed = (build_pages + denom - 1) / denom + 1;
  size_t parts = std::clamp<size_t>(needed, 2, fan_out);
  std::vector<std::vector<Tuple>> lparts(parts), rparts(parts);
  {
    BufferPool::Reservation workspace = pool->Reserve(memory);
    pool->ChargeRead(left_pages + right_pages);
    uint64_t salt = 0x5bd1e995ULL * static_cast<uint64_t>(depth + 1);
    for (const Tuple& t : left) {
      lparts[SplitMix64(static_cast<uint64_t>(t.cols[spec.left_col]) +
                        salt) %
             parts]
          .push_back(t);
    }
    for (const Tuple& t : right) {
      rparts[SplitMix64(static_cast<uint64_t>(t.cols[spec.right_col]) +
                        salt) %
             parts]
          .push_back(t);
    }
    left.clear();
    right.clear();
    for (size_t i = 0; i < parts; ++i) {
      pool->ChargeWrite(PagesForTuples(lparts[i].size()));
      pool->ChargeWrite(PagesForTuples(rparts[i].size()));
    }
  }
  for (size_t i = 0; i < parts; ++i) {
    if (lparts[i].empty() || rparts[i].empty()) continue;
    GraceRecurse(pool, std::move(lparts[i]), std::move(rparts[i]), spec,
                 depth + 1, out);
  }
}

}  // namespace

TableData SortMergeJoinOp(BufferPool* pool, const TableData& left,
                          const TableData& right, const JoinColumnSpec& spec,
                          bool left_sorted, bool right_sorted) {
  size_t memory = pool->capacity();
  size_t fan_in = std::max<size_t>(memory > 1 ? memory - 1 : 1, 2);

  // Phase 1: sorted runs per unsorted side.
  auto make_side = [&](const TableData& t, int col,
                       bool sorted) -> std::vector<std::vector<Tuple>> {
    if (sorted) {
      // Pre-sorted: consumed directly in the final merge (one read there).
      std::vector<std::vector<Tuple>> one;
      one.push_back(t.AllTuples());
      return one;
    }
    return FormSortedRuns(pool, t, col);
  };
  std::vector<std::vector<Tuple>> lruns =
      make_side(left, spec.left_col, left_sorted);
  std::vector<std::vector<Tuple>> rruns =
      make_side(right, spec.right_col, right_sorted);

  // Phase 2: merge passes, counted per side — each side independently
  // merges until its runs fit one merge fan-in, exactly the pass structure
  // CostModel::SortCost charges. (The old joint condition
  // `lruns + rruns > fan_in` forced extra passes whenever the two sides'
  // run counts summed above the fan-in even though each side alone fit,
  // diverging from the model; the E23 operator-vs-model parity test pins
  // the per-side accounting.)
  while (lruns.size() > fan_in) {
    lruns = MergePassOp(pool, std::move(lruns), spec.left_col);
  }
  while (rruns.size() > fan_in) {
    rruns = MergePassOp(pool, std::move(rruns), spec.right_col);
  }

  // Phase 3: final merge-join; reads every remaining run page once.
  auto flatten = [](std::vector<std::vector<Tuple>> runs, int col,
                    BufferPool* p, bool charge) {
    std::vector<Tuple> all;
    for (auto& run : runs) {
      if (charge) p->ChargeRead(PagesForTuples(run.size()));
      all.insert(all.end(), run.begin(), run.end());
    }
    std::stable_sort(all.begin(), all.end(),
                     [col](const Tuple& a, const Tuple& b) {
                       return a.cols[col] < b.cols[col];
                     });
    return all;
  };
  std::vector<Tuple> l = flatten(std::move(lruns), spec.left_col, pool, true);
  std::vector<Tuple> r = flatten(std::move(rruns), spec.right_col, pool, true);

  TableData out;
  size_t i = 0, j = 0;
  while (i < l.size() && j < r.size()) {
    int64_t lk = l[i].cols[spec.left_col];
    int64_t rk = r[j].cols[spec.right_col];
    if (lk < rk) {
      ++i;
    } else if (lk > rk) {
      ++j;
    } else {
      size_t i_end = i;
      while (i_end < l.size() && l[i_end].cols[spec.left_col] == lk) ++i_end;
      size_t j_end = j;
      while (j_end < r.size() && r[j_end].cols[spec.right_col] == rk) ++j_end;
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          out.Append(CombineTuples(l[a], r[b], spec));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return out;
}

TableData GraceHashJoinOp(BufferPool* pool, const TableData& left,
                          const TableData& right,
                          const JoinColumnSpec& spec) {
  TableData out;
  GraceRecurse(pool, left.AllTuples(), right.AllTuples(), spec, 0, &out);
  return out;
}

TableData NestedLoopJoinOp(BufferPool* pool, const TableData& left,
                           const TableData& right,
                           const JoinColumnSpec& spec) {
  size_t memory = pool->capacity();
  size_t smaller = std::min(left.num_pages(), right.num_pages());
  TableData out;
  if (smaller + 2 <= memory) {
    // Inner (smaller) relation resident, probe streamed page-at-a-time:
    // the S+2 reservation is S pages of build plus one input and one
    // output buffer, so materializing the probe side too would use
    // unreserved memory (the workspace bound would silently be a lie).
    // Total I/O is unchanged: one read of each input, |A| + |B|.
    BufferPool::Reservation workspace = pool->Reserve(smaller + 2);
    bool left_is_smaller = left.num_pages() <= right.num_pages();
    const TableData& build = left_is_smaller ? left : right;
    const TableData& probe = left_is_smaller ? right : left;
    std::vector<Tuple> build_tuples = ReadAll(pool, build);
    int build_col = left_is_smaller ? spec.left_col : spec.right_col;
    int probe_col = left_is_smaller ? spec.right_col : spec.left_col;
    KeyIndex index(build_tuples, build_col);
    for (size_t pi = 0; pi < probe.num_pages(); ++pi) {
      pool->ChargeRead();
      ProbeIndex(index, build_tuples, probe.page(pi).tuples(), probe_col,
                 /*build_is_left=*/left_is_smaller, spec, &out);
    }
    return out;
  }
  // Page nested loops with the left as outer, charged as the paper's
  // |A| + |A|·|B|: each outer page is read once and the whole inner
  // relation is rescanned per outer page. The CPU work does not rescan:
  // every outer tuple probes an index over the inner relation once, and
  // an outer page's matches are sorted by (inner page, outer slot, inner
  // slot), the order the page-pair scan emits them in. Inner tuple g lives
  // on page g / kTuplesPerPage (TableData fills every page but the last),
  // so the key packs as page << 38 | outer slot << 32 | g.
  static_assert(kTuplesPerPage <= 64, "outer slot packs into 6 bits");
  BufferPool::Reservation workspace = pool->Reserve(std::min<size_t>(3,
                                                                     memory));
  std::vector<Tuple> inner = right.AllTuples();
  KeyIndex index(inner, spec.right_col);
  std::vector<uint64_t> matches;
  for (size_t i = 0; i < left.num_pages(); ++i) {
    pool->ChargeRead(1 + right.num_pages());
    const Page& lp = left.page(i);
    matches.clear();
    for (size_t a = 0; a < lp.size(); ++a) {
      index.ForEachMatch(lp.tuple(a).cols[spec.left_col], [&](size_t g) {
        matches.push_back((uint64_t{g / kTuplesPerPage} << 38) |
                          (uint64_t{a} << 32) | uint64_t{g});
      });
    }
    std::sort(matches.begin(), matches.end());
    for (uint64_t m : matches) {
      out.Append(CombineTuples(lp.tuple((m >> 32) & 63),
                               inner[m & 0xffffffffULL], spec));
    }
  }
  return out;
}

TableData NaiveJoinReference(const TableData& left, const TableData& right,
                             const JoinColumnSpec& spec) {
  TableData out;
  for (const Tuple& lt : left.AllTuples()) {
    for (const Tuple& rt : right.AllTuples()) {
      if (lt.cols[spec.left_col] == rt.cols[spec.right_col]) {
        out.Append(CombineTuples(lt, rt, spec));
      }
    }
  }
  return out;
}

}  // namespace lec
