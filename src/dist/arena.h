// Bump-pointer scratch arenas for the distribution kernels.
//
// The flat SoA kernels in dist/kernel.h write their outputs into
// caller-owned arenas instead of freshly heap-allocated std::vectors, so a
// DP run that derives millions of intermediate distributions touches the
// allocator only while the arena warms up. Lifetime rules (see DESIGN.md,
// "Memory layout & arenas"):
//
//   * An arena is reset once per DP instance (or per call at a boundary
//     wrapper); every view carved from it dies at that reset.
//   * Reset() rewinds the cursor and keeps the backing memory, so a warmed
//     arena performs zero heap allocations in steady state. When growth
//     forced the arena onto multiple blocks, the next Reset() coalesces
//     them into one block sized for the observed high-water mark — one
//     final allocation, then none.
//   * Exhaustion is not an error: Alloc simply appends a geometrically
//     grown block (graceful regrow), and heap_allocations() lets tests pin
//     the steady-state-zero property.
//
// Arenas are single-threaded by design (one per worker thread).
#ifndef LECOPT_DIST_ARENA_H_
#define LECOPT_DIST_ARENA_H_

#include <cstddef>
#include <memory>
#include <vector>

namespace lec {

class DistArena {
 public:
  /// `initial_doubles` sizes the first block (in double-sized slots; all
  /// allocations are rounded up to 8-byte slots).
  explicit DistArena(size_t initial_doubles = size_t{1} << 14);

  DistArena(const DistArena&) = delete;
  DistArena& operator=(const DistArena&) = delete;

  /// `n` doubles, 8-byte aligned, uninitialized. Valid until Reset().
  double* AllocDoubles(size_t n) {
    return static_cast<double*>(Alloc(n));
  }

  /// `n` objects of trivially-destructible type T (the kernels use this for
  /// raw (value, prob) pairs awaiting sort+merge). Valid until Reset().
  template <typename T>
  T* AllocArray(size_t n) {
    static_assert(alignof(T) <= alignof(double),
                  "arena slots are double-aligned");
    size_t slots = (n * sizeof(T) + sizeof(double) - 1) / sizeof(double);
    return static_cast<T*>(Alloc(slots));
  }

  /// Rewinds the cursor; all outstanding views become invalid. Keeps (and,
  /// after growth, coalesces) the backing memory.
  void Reset();

  /// Slots currently carved out since the last Reset().
  size_t used_doubles() const { return used_; }
  /// Largest used_doubles() ever observed — what the next coalescing
  /// Reset() sizes the single steady-state block to.
  size_t high_water_doubles() const { return high_water_; }
  /// Total slots across all live blocks.
  size_t capacity_doubles() const { return capacity_; }
  /// Number of upstream heap allocations the arena has ever made — the
  /// counting hook tests/dist_arena_test.cc pins: after warm-up this must
  /// stop moving.
  size_t heap_allocations() const { return heap_allocations_; }

 private:
  void* Alloc(size_t slots);
  /// Appends a block of at least `min_slots` slots (geometric growth).
  void AddBlock(size_t min_slots);

  struct Block {
    std::unique_ptr<double[]> data;
    size_t capacity = 0;
  };

  std::vector<Block> blocks_;
  size_t current_block_ = 0;  ///< block the cursor lives in
  size_t cursor_ = 0;         ///< next free slot inside current block
  size_t used_ = 0;           ///< slots handed out since last Reset
  size_t high_water_ = 0;
  size_t capacity_ = 0;
  size_t heap_allocations_ = 0;
};

}  // namespace lec

#endif  // LECOPT_DIST_ARENA_H_
