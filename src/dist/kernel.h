// Flat SoA distribution kernels over caller-owned scratch arenas.
//
// Distribution (dist/distribution.h) is the immutable boundary type: safe
// to share across layers, but every transformation on it heap-allocates a
// fresh bucket vector. The optimizer hot paths (Algorithm D's size
// propagation, the fast-EC sweeps, the DP inner loops) derive millions of
// short-lived intermediates per workload, so they run on the kernels here
// instead: plain (values[], probs[]) views carved from a DistArena, with
// per-DP-instance reset. A view is *not* an owner — it dies when its arena
// resets; materialize through Distribution's view constructor at the
// boundary.
//
// Bit-faithfulness contract: every kernel mirrors the corresponding
// Distribution operation arithmetic step for arithmetic step (same sort,
// same merge order, same normalization and dust pass), so the kernel path
// and the legacy Distribution-returning path produce identical doubles on
// identical inputs. Invariant I7 (verify/fuzz_driver.h) holds the two
// paths together within verify/tolerance.h bounds; the mirrors keep the
// slack unused in practice. (The one intentional deviation — precomputed
// step thresholds in cost/fast_expected_cost.h — is classification-exact
// by construction; see StepThreshold below.)
#ifndef LECOPT_DIST_KERNEL_H_
#define LECOPT_DIST_KERNEL_H_

#include <cstddef>
#include <cstdint>

#include "dist/arena.h"
#include "dist/distribution.h"
#include "dist/simd.h"

namespace lec {

// DistView itself is declared in dist/distribution.h (Distribution::AsView
// returns one, and this header already depends on the boundary type).

/// A point mass at 1.0 — the neutral element of the selectivity-combine
/// pipeline. Backed by static storage, valid forever.
DistView UnitPointMassView();

// ---------------------------------------------------------------------------
// Moments and identity.
// ---------------------------------------------------------------------------

/// Σ v_i p_i, accumulated in index order (matches Distribution::Mean).
double ViewMean(DistView v);

/// Σ p_i (≈1 for normalized views; exposed for conservation checks).
double ViewTotalMass(DistView v);

/// Exact bucket-wise equality.
bool ViewEquals(DistView a, DistView b);

// ---------------------------------------------------------------------------
// Normalization (the Distribution-constructor pipeline, in place).
// ---------------------------------------------------------------------------

/// Turns `n` raw (value, prob) pairs into a normalized view: validate,
/// sort by value, merge duplicates, drop non-positive mass, normalize to
/// Σp = 1, then the constructor's dust pass (drop prob < 1e-12,
/// renormalize once). Sorts `raw` in place; the SoA result is carved from
/// `arena`. Mirrors Distribution's constructor exactly, including its
/// throws (std::invalid_argument on non-finite values — e.g. an
/// overflowing product — negative/non-finite probabilities, or zero total
/// mass), so the kernel and legacy paths fail identically, never diverge
/// silently.
DistView FinishInto(Bucket* raw, size_t n, DistArena* arena);

// ---------------------------------------------------------------------------
// Transform kernels. All results are carved from the arena and normalized.
// ---------------------------------------------------------------------------

/// Copies `in` into the arena (used to pin an input across a reset scope).
DistView CopyInto(DistView in, DistArena* arena);

/// Distribution of X·Y for independent X ~ a, Y ~ b — the §3.6.3 size
/// product. Mirrors Distribution::ProductWith(·, multiplies) + constructor.
DistView ProductInto(DistView a, DistView b, DistArena* arena);

/// Mixture w·a + (1-w)·b. Mirrors Distribution::MixWith + constructor.
DistView MixInto(DistView a, DistView b, double w, DistArena* arena);

/// Distribution of f(X); colliding images merge. Mirrors Distribution::Map.
template <typename F>
DistView MapInto(DistView in, F&& f, DistArena* arena) {
  Bucket* raw = arena->AllocArray<Bucket>(in.n);
  for (size_t i = 0; i < in.n; ++i) raw[i] = {f(in.values[i]), in.probs[i]};
  return FinishInto(raw, in.n, arena);
}

/// Reduces `in` to at most `max_buckets` buckets — Distribution::Rebucket
/// on views (cells collapse to conditional means; overall mean preserved).
/// Returns `in` unchanged when it already fits the budget.
DistView RebucketInto(DistView in, size_t max_buckets,
                      RebucketStrategy strategy, DistArena* arena);

// ---------------------------------------------------------------------------
// Sweep primitives — the §3.6 prefix/suffix machinery, allocation-free.
// ---------------------------------------------------------------------------

/// Runs at or below this length are scanned and folded inline by the
/// sweeps instead of calling the dispatched simd:: kernels. The typical
/// run between consecutive cost-formula breakpoints is a handful of
/// elements, where the thread-local table read + indirect call cost more
/// than the arithmetic they replace (E18's b=27 fast-EC ratios regressed
/// ~4x when every run was dispatched). The inline fold is exactly the
/// scalar twin's element-wise walk, so scalar-level results are
/// unchanged; only runs long enough to amortize the call go through the
/// vector kernels, under their documented reassociation contract.
inline constexpr size_t kSweepInlineRun = 16;

/// Monotone prefix sweep over one view: Advance(x) accumulates probability
/// and partial expectation of all buckets with value <= x (or < x when
/// strict). x must be non-decreasing across calls, so a full sweep is O(n).
///
/// Dispatch note: short runs (<= kSweepInlineRun) are folded inline,
/// element by element onto the running accumulators — bit-identical to
/// the historical interleaved walk. Longer runs go through simd::SumFrom /
/// simd::DotFrom, whose scalar twins seed the fold with the accumulator
/// and add element by element (prob and pe are independent accumulators,
/// so splitting the interleaved loop into two seeded passes changes
/// nothing). At vector levels a long run's contribution is a lane-partial
/// sum — the documented reassociation contract of dist/simd.h.
struct PrefixSweep {
  DistView d;
  bool strict = false;
  size_t i = 0;
  double prob = 0;
  double pe = 0;

  void Advance(double x) {
    const double* v = d.values + i;
    const double* p = d.probs + i;
    size_t avail = d.n - i;
    size_t probe = avail < kSweepInlineRun ? avail : kSweepInlineRun;
    size_t run = 0;
    if (strict) {
      while (run < probe && v[run] < x) ++run;
    } else {
      while (run < probe && v[run] <= x) ++run;
    }
    if (run == kSweepInlineRun && run < avail) {
      run = simd::CountLeq(d.values, i, d.n, x, strict);
    }
    if (run == 0) return;
    if (run <= kSweepInlineRun) {
      for (size_t k = 0; k < run; ++k) {
        prob += p[k];
        pe += v[k] * p[k];
      }
    } else {
      prob = simd::SumFrom(prob, p, run);
      pe = simd::DotFrom(pe, v, p, run);
    }
    i += run;
  }
};

/// Monotone CDF sweep against a *precomputed threshold array*: Advance(x)
/// accumulates probs[i] for every i with thresholds[i] <= x. With
/// thresholds[i] = StepThreshold(values[i], f) this equals "accumulate
/// while values[i] <= f(x)" without evaluating f per swept element — the
/// trick that strips the sqrt/cbrt calls out of the fast-EC inner loop.
struct StepCdfSweep {
  const double* thresholds = nullptr;
  const double* probs = nullptr;
  size_t n = 0;
  size_t i = 0;
  double acc = 0;

  double Advance(double x) {
    // x >= thresholds[i] is thresholds[i] <= x: same short-run inline /
    // long-run dispatch split as PrefixSweep (see kSweepInlineRun); the
    // inline fold is bit-identical to the historical walk, the long-run
    // simd::SumFrom seeds its scalar twin identically.
    const double* t = thresholds + i;
    size_t avail = n - i;
    size_t probe = avail < kSweepInlineRun ? avail : kSweepInlineRun;
    size_t run = 0;
    while (run < probe && t[run] <= x) ++run;
    if (run == kSweepInlineRun && run < avail) {
      run = simd::CountLeq(thresholds, i, n, x, false);
    }
    if (run == 0) return acc;
    if (run <= kSweepInlineRun) {
      const double* p = probs + i;
      for (size_t k = 0; k < run; ++k) acc += p[k];
    } else {
      acc = simd::SumFrom(acc, probs + i, run);
    }
    i += run;
    return acc;
  }
};

/// The smallest double x with fl(f(x)) >= m, for a monotone non-negative
/// f (sqrt, cbrt) and a guess x0 ≈ f⁻¹(m). Found by a short nextafter walk
/// around the guess, so "m <= fl(f(x))" and "x >= StepThreshold(m, f, x0)"
/// classify every x identically — including inputs sitting exactly on a
/// cost-formula breakpoint. m <= 0 returns -infinity (always included).
/// The walk is bounded; for pathological m (f⁻¹(m) under/overflows) it
/// falls back to the raw guess, conservatively correct to ~1 ulp.
///
/// Exactness caveat: the equivalence requires fl(f) to be monotone over
/// the walk's neighborhood. IEEE guarantees that for sqrt (correctly
/// rounded); cbrt is only faithfully rounded by quality libms (glibc:
/// monotone in practice, and tests/dist_kernel_test.cc property-checks
/// 2000 random thresholds). On a libm where fl(cbrt) misbehaved, fuzz
/// invariant I7 and bench_dist_kernels' built-in agreement check fail
/// loudly rather than letting the sweep drift silently.
double StepThreshold(double m, double (*f)(double), double x0);

}  // namespace lec

#endif  // LECOPT_DIST_KERNEL_H_
