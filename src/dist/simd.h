// Runtime-dispatched SIMD kernels under the SoA distribution layer.
//
// The PR-4 kernels (dist/kernel.h) and the fixed-size EC sweeps
// (cost/expected_cost.cc) spend their time in short dense loops over
// (values[], probs[]) arrays. This module provides those loops in three
// implementations — scalar, SSE2 and AVX2 — behind one function-pointer
// table selected at runtime (`__builtin_cpu_supports`), so a single binary
// runs the widest ISA the host offers while the scalar twin stays
// available as the bit-parity reference.
//
// Dispatch model: the active level is a THREAD-LOCAL (the serving
// pipeline runs optimizations on worker threads; a scoped override must
// never leak across workers), initialized from DefaultLevel() = the
// highest CPU-supported level clamped by the LECOPT_SIMD environment
// variable ("scalar", "sse2", "avx2"). OptimizerOptions::simd_mode lets a request
// pin a level through the facade; ScopedLevel is the RAII primitive
// everything routes through.
//
// Floating-point contract (see DESIGN.md, "SIMD dispatch & DP pruning",
// and verify/tolerance.h):
//   * BIT-EXACT kernels — Scale, DivStride2, CrossInto, CountLeq: element-
//     wise multiplies/divides and comparisons only. Every lane performs
//     the identical IEEE operation the scalar loop performs, so results
//     are bit-identical across all levels.
//   * REASSOCIATING kernels — Sum, Dot, SumStride2, HybridFactorDot:
//     vector levels accumulate fixed-width lane partials (2 for SSE2, 4
//     for AVX2) folded once at the end. Equal to the scalar left-to-right
//     sum in exact arithmetic, within n·eps relative error in binary64
//     (Higham §4.2) — covered by verify::kKernelParityRelTol. Different
//     levels may differ from EACH OTHER in the low bits for the same
//     reason; any single level is deterministic for fixed input.
// No kernel uses FMA contraction (the AVX2 functions enable only the avx2
// ISA, and the build pins -ffp-contract=off), so the per-element products
// themselves are bit-identical across levels; only summation order varies.
#ifndef LECOPT_DIST_SIMD_H_
#define LECOPT_DIST_SIMD_H_

#include <cstddef>
#include <optional>
#include <string_view>

namespace lec::simd {

/// Instruction-set tiers the dispatcher knows. Order is capability order.
enum class Level : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// "scalar" / "sse2" / "avx2" — stable names, used by LECOPT_SIMD, the
/// facade options and the plan-cache signature stamp.
const char* LevelName(Level level);

/// Inverse of LevelName; nullopt on anything else.
std::optional<Level> ParseLevel(std::string_view name);

/// The widest level this CPU supports (cached; never below kScalar).
Level HighestSupported();

/// HighestSupported clamped by the LECOPT_SIMD environment variable, read
/// once per process. Unparseable values are ignored (best level wins).
Level DefaultLevel();

/// The level the calling thread's kernels run at right now.
Level ActiveLevel();

/// Sets the calling thread's level, clamped to HighestSupported(); returns
/// the level actually installed. Prefer ScopedLevel.
Level SetActiveLevel(Level level);

/// RAII override of the calling thread's active level (clamped to what the
/// CPU supports); restores the previous level on destruction.
class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : prev_(ActiveLevel()) {
    SetActiveLevel(level);
  }
  ~ScopedLevel() { SetActiveLevel(prev_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level prev_;
};

// ---------------------------------------------------------------------------
// Kernels. Each reads ActiveLevel() once and jumps through the level's
// table. All pointers may alias only where noted; n == 0 is always legal.
// ---------------------------------------------------------------------------

/// Σ x[i] (reassociating).
double Sum(const double* x, size_t n);

/// Σ x[i]·y[i] (reassociating).
double Dot(const double* x, const double* y, size_t n);

/// init + Σ x[i]. At the scalar level the elements fold onto `init` one by
/// one — bit-identical to a historical `for (...) acc += x[i]` loop over a
/// running accumulator (what PrefixSweep/StepCdfSweep compiled to before
/// dispatch existed). Vector levels compute init + lane-partials
/// (reassociating). Use this, not `acc += Sum(...)`, whenever replacing a
/// loop that accumulated onto live state: the extra parenthesization of
/// `acc + (x0 + x1 + ...)` changes low bits even in the scalar twin.
double SumFrom(double init, const double* x, size_t n);

/// init + Σ x[i]·y[i]; same seeding contract as SumFrom.
double DotFrom(double init, const double* x, const double* y, size_t n);

/// Σ x[2i] for i < n — the AoS Bucket prob/value stride (reassociating).
double SumStride2(const double* x, size_t n);

/// x[2i] /= divisor for i < n (bit-exact).
void DivStride2(double* x, size_t n, double divisor);

/// dst[i] = w · src[i] (bit-exact). dst must not overlap src.
void Scale(const double* src, double w, double* dst, size_t n);

/// Interleaved cross term: out[2i] = av·bv[i], out[2i+1] = ap·bp[i] — one
/// row of the ProductInto cross product written straight into an AoS
/// Bucket array (bit-exact). out must not overlap the inputs.
void CrossInto(double av, double ap, const double* bv, const double* bp,
               size_t n, double* out);

/// Length of the maximal run v[i], v[i+1], ... satisfying v[k] <= x
/// (strict: v[k] < x), stopping at the first failure or at n. Exactly the
/// scalar two-pointer advance of PrefixSweep/StepCdfSweep — comparisons
/// only, identical across levels.
size_t CountLeq(const double* v, size_t i, size_t n, double x, bool strict);

/// Σ p[i] · max(k_i − min(v[i]/smaller, 1), 1) where k_i is the nested
/// Grace factor k_i = v[i] > sqrt_s ? 2 : (v[i] > cbrt_s ? 4 : 6) — the
/// memory-dependent factor sum of [Sha86] hybrid hash. The conditionals
/// must stay NESTED, not additive: for smaller < 1, cbrt_s > sqrt_s and
/// the sqrt test wins, which an additive 2+2[..]+2[..] form gets wrong.
/// (Reassociating; the divide v[i]/smaller is performed per element
/// exactly as the scalar formula does, so classification and per-element
/// factors are bit-identical, only the accumulation order varies.)
double HybridFactorDot(const double* v, const double* p, size_t n,
                       double smaller, double cbrt_s, double sqrt_s);

}  // namespace lec::simd

#endif  // LECOPT_DIST_SIMD_H_
