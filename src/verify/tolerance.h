// Documented floating-point comparison policy for verification.
//
// Two computations of the same objective may legitimately differ in the
// low-order bits when one of them reassociates a floating-point sum: the
// oracle re-scores a candidate plan by summing per-operator expected costs
// (linearity of expectation) where Algorithm A/B's scoring walk sums
// per-memory-bucket plan costs — equal in exact arithmetic, not
// bit-identical in binary64 (see DESIGN.md, "Verification"). Exact-equality
// assertions on such pairs
// are latent flakes: they hold until a compiler, optimization level, or
// evaluation order changes. This header pins the comparison policy once so
// every consumer (tests, the fuzz invariants, the oracle regret checks)
// names the tolerance it relies on instead of scattering magic constants.
#ifndef LECOPT_VERIFY_TOLERANCE_H_
#define LECOPT_VERIFY_TOLERANCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace lec::verify {

/// Reassociating a sum of n non-negative terms perturbs the result by at
/// most n·eps relative error (Higham, Accuracy and Stability of Numerical
/// Algorithms, §4.2). Our plan walks sum well under 2^12 terms, so
/// 2^12 · 2^-52 ≈ 9.1e-13 bounds the drift; 1e-9 adds three orders of
/// headroom for the intermediate products inside the cost formulas. This is
/// the documented tolerance for "same objective computed along a different
/// summation order" — in particular a candidate strategy's stated objective
/// against the oracle's re-scoring of its plan (fuzz I1), and EC mixture
/// linearity (I3).
inline constexpr double kSummationReassociationRelTol = 1e-9;

/// Tolerance for "strategy objective equals the exhaustive oracle's
/// optimum": both sides run the same formulas, but the DP accumulates costs
/// bottom-up while the oracle walks complete plans, so the association
/// order differs the same way. One shared constant keeps the two checks
/// honest together.
inline constexpr double kOracleRelTol = 1e-9;

/// Tolerance for "same expected cost computed by the §3.6 linear-time
/// sweeps (cost/fast_expected_cost.h) vs the naive triple enumeration
/// ExpectedJoinCost" — fuzz invariant I7, per operator and end to end
/// through Algorithm D. The two sum the same terms in different orders (a
/// prefix sweep vs a triple loop), so they agree to rounding: the worst
/// relative difference seen over thousands of random triples is ~6e-14.
/// I7 also applies it to the SIMD-dispatched lec_static DP against its
/// scalar-pinned twin (dist/simd.h: vector lanes fold sums in a different
/// order). Same Higham basis as kSummationReassociationRelTol.
inline constexpr double kKernelParityRelTol = 1e-9;

/// Tolerance for comparing Algorithm D's bucketed objective against the
/// exact joint-support enumeration under *exact* size propagation
/// (kExactThenRebucket at a 4096-bucket budget): colliding products still
/// merge into shared buckets, so the two agree to ~1e-6, not to rounding.
/// Shared by fuzz invariant I1 and the E17 bench so the nightly gate and
/// the CI smoke gate cannot drift apart. See tests/algorithm_d_test.cc.
inline constexpr double kBucketedEvaluatorRelTol = 1e-6;

/// Distance in units-in-the-last-place between two finite doubles of the
/// same sign: the number of representable binary64 values strictly between
/// them, plus equality at 0. Returns a large sentinel for NaN or
/// opposite-sign pairs (other than ±0). Useful when a test wants to assert
/// "these differ only by rounding" independent of magnitude.
inline uint64_t UlpDistance(double a, double b) {
  constexpr uint64_t kFar = std::numeric_limits<uint64_t>::max();
  if (std::isnan(a) || std::isnan(b)) return kFar;
  if (a == b) return 0;
  int64_t ia, ib;
  static_assert(sizeof(ia) == sizeof(a));
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  if ((ia < 0) != (ib < 0)) return kFar;  // opposite signs, both nonzero
  int64_t diff = ia > ib ? ia - ib : ib - ia;
  return static_cast<uint64_t>(diff);
}

/// |a - b| / max(|a|, |b|, 1): relative error with an absolute floor so
/// near-zero objectives do not demand impossible precision.
inline double RelativeError(double a, double b) {
  return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1.0});
}

/// The one comparison every verification check routes through.
inline bool ApproxEqual(double a, double b,
                        double rel_tol = kSummationReassociationRelTol) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return RelativeError(a, b) <= rel_tol;
}

/// `candidate` is no better than `reference` allowing for rounding — the
/// oracle-optimality shape: a strategy's true objective may not beat the
/// exhaustive optimum by more than the tolerance.
inline bool NoBetterThan(double candidate, double reference,
                         double rel_tol = kOracleRelTol) {
  return candidate >=
         reference - rel_tol * std::max({std::abs(candidate),
                                         std::abs(reference), 1.0});
}

}  // namespace lec::verify

#endif  // LECOPT_VERIFY_TOLERANCE_H_
