// Expected-cost memoization (the "EC cache").
//
// The LEC algorithms re-derive the same operator expected costs many times:
// Algorithm D evaluates EC(method, |B_j|, |A_j|, M) for every candidate at
// every subset, and the same (size-distribution, size-distribution, memory)
// triples recur across subsets because §3.6.3 bucketing collapses many
// subsets onto identical supports; Algorithm A/B candidate scoring walks b
// memory buckets over plans that share most of their join steps. EcCache
// memoizes those evaluations, keyed by content identity of the operands
// (method, left/right distribution or fixed page count, memory
// distribution, sorted flags).
//
// Operands are identified by their 64-bit content hash
// (Distribution::ContentHash / ViewContentHash — bit-compatible, so the
// Distribution-level and DistView-level entry points share one map) and
// stored as views *interned into the cache's own DistArena*: the (nearly
// always identical) memory distribution and the recurring size
// distributions are each copied once per cache, not once per entry, and a
// warm cache serves hits without touching the heap at all.
//
// Correctness: a hit is verified against the stored operands with full
// bucket-wise equality before being served, so a 64-bit hash collision
// degrades to a recompute, never to a wrong answer. Determinism: a cached
// value is the exact double the original compute produced, so memoizing a
// computation never changes its result — Algorithm D's objectives are
// bit-identical with the cache on or off. (Algorithm A/B scoring
// additionally switches to a per-operator summation when cached — see
// PlanExpectedCostStaticCached — which is equal to the uncached walk only
// up to floating-point association order.)
//
// Contract: one cache instance serves one (CostModel, OptimizerOptions)
// context — the key identifies operands, not the cost formulas. The cache
// is not thread-safe; give each worker thread its own instance (see
// service/batch_driver.h) and merge the stats afterwards. Views passed to
// the *View entry points are copied on store; the caller's arena may reset
// freely afterwards.
#ifndef LECOPT_COST_EC_CACHE_H_
#define LECOPT_COST_EC_CACHE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/arena.h"
#include "dist/distribution.h"
#include "dist/kernel.h"
#include "plan/plan.h"

namespace lec {

class EcCache {
 public:
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    /// Key matched but the stored operands differed (hash collision); the
    /// value was recomputed. Counted inside `misses` as well.
    size_t collisions = 0;
    /// Times the cache hit max_entries and was flushed wholesale.
    size_t flushes = 0;

    size_t lookups() const { return hits + misses; }
  };

  /// `max_entries` bounds the memo map: when Store would exceed it, the
  /// whole cache (entries + intern arena) is flushed and refilled — an
  /// epoch scheme that keeps long-lived workers (service batch driver) at
  /// bounded memory while preserving within-epoch hits. The default holds
  /// roughly a few hundred MB of worst-case entries; lower it for
  /// memory-tight deployments.
  explicit EcCache(size_t max_entries = size_t{1} << 20)
      : max_entries_(max_entries) {}

  /// Memoized EC of a join with distributed input sizes (Algorithm D's
  /// workhorse). `compute` is invoked exactly once per distinct key.
  /// Hashes (ViewContentHash) are passed in because the caller computes
  /// them once per subset / once per DP run, not once per lookup.
  template <typename F>
  double JoinEcView(JoinMethod method, bool left_sorted, bool right_sorted,
                    DistView left, uint64_t left_hash, DistView right,
                    uint64_t right_hash, DistView memory, uint64_t memory_hash,
                    F&& compute) {
    Key key = MakeKey(Op::kJoinDist, method, left_sorted, right_sorted,
                      left_hash, right_hash, memory_hash);
    if (const double* v = Find(key, &left, &right, 0, 0, memory)) return *v;
    double value = std::forward<F>(compute)();
    Store(key, &left, &right, 0, 0, memory, value);
    return value;
  }

  /// Memoized EC of a join with fixed input sizes (Algorithm A/B candidate
  /// scoring via PlanExpectedCostStaticCached; deliberately NOT wired into
  /// the Algorithm C DP hot loop, whose per-step page pairs almost never
  /// repeat — a lookup there would cost more than it saves).
  template <typename F>
  double JoinEcFixedSizes(JoinMethod method, bool left_sorted,
                          bool right_sorted, double left_pages,
                          double right_pages, const Distribution& memory,
                          F&& compute) {
    Key key = MakeKey(Op::kJoinFixed, method, left_sorted, right_sorted,
                      std::bit_cast<uint64_t>(left_pages),
                      std::bit_cast<uint64_t>(right_pages),
                      memory.ContentHash());
    DistView mv = memory.AsView();
    if (const double* v =
            Find(key, nullptr, nullptr, left_pages, right_pages, mv)) {
      return *v;
    }
    double value = std::forward<F>(compute)();
    Store(key, nullptr, nullptr, left_pages, right_pages, mv, value);
    return value;
  }

  /// Memoized EC of an external sort with distributed size.
  template <typename F>
  double SortEcView(DistView pages, uint64_t pages_hash, DistView memory,
                    uint64_t memory_hash, F&& compute) {
    Key key = MakeKey(Op::kSortDist, JoinMethod::kNestedLoop, false, false,
                      pages_hash, 0, memory_hash);
    if (const double* v = Find(key, &pages, nullptr, 0, 0, memory)) return *v;
    double value = std::forward<F>(compute)();
    Store(key, &pages, nullptr, 0, 0, memory, value);
    return value;
  }

  /// Memoized EC of an external sort with fixed size.
  template <typename F>
  double SortEcFixedSize(double pages, const Distribution& memory,
                         F&& compute) {
    Key key = MakeKey(Op::kSortFixed, JoinMethod::kNestedLoop, false, false,
                      std::bit_cast<uint64_t>(pages), 0, memory.ContentHash());
    DistView mv = memory.AsView();
    if (const double* v = Find(key, nullptr, nullptr, pages, 0, mv)) {
      return *v;
    }
    double value = std::forward<F>(compute)();
    Store(key, nullptr, nullptr, pages, 0, mv, value);
    return value;
  }

  const Stats& stats() const { return stats_; }
  size_t size() const { return map_.size(); }
  void Clear();

 private:
  enum class Op : uint8_t { kJoinDist, kJoinFixed, kSortDist, kSortFixed };

  struct Key {
    uint64_t op_bits = 0;  ///< op | method | sorted flags, packed
    uint64_t left_id = 0;
    uint64_t right_id = 0;
    uint64_t memory_id = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  /// Stored operands for hit verification plus the memoized value. Fixed
  /// operands are kept as scalars; distribution operands as views interned
  /// into the cache arena (n == 0 means "no operand in this slot").
  struct Entry {
    DistView left;   // empty for fixed sizes
    DistView right;  // empty for fixed / sorts
    double left_pages = 0;
    double right_pages = 0;
    DistView memory;
    double value = 0;
  };

  static Key MakeKey(Op op, JoinMethod method, bool left_sorted,
                     bool right_sorted, uint64_t left_id, uint64_t right_id,
                     uint64_t memory_id);

  /// Arena-backed copy of `d` from the intern pool (inserted on first
  /// sight; deduplicated by content hash + equality).
  DistView Intern(DistView d, uint64_t hash);

  /// The cached value when the key is present and the operands verify;
  /// nullptr (after updating stats) otherwise.
  const double* Find(const Key& key, const DistView* left,
                     const DistView* right, double left_pages,
                     double right_pages, DistView memory);
  void Store(const Key& key, const DistView* left, const DistView* right,
             double left_pages, double right_pages, DistView memory,
             double value);

  std::unordered_map<Key, Entry, KeyHash> map_;
  /// Content-hash-keyed pool of distinct interned views; storage lives in
  /// arena_ and is released wholesale at flush/Clear.
  std::unordered_map<uint64_t, std::vector<DistView>> interned_;
  DistArena arena_{size_t{1} << 12};
  size_t max_entries_;
  Stats stats_;
};

}  // namespace lec

#endif  // LECOPT_COST_EC_CACHE_H_
