#include "cost/fast_expected_cost.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace lec {

// ---------------------------------------------------------------------------
// Kernel implementation: SoA sweeps against a precompiled memory profile.
// Each sweep is the §3.6 conditioning argument: sweep the conditioning
// variable ascending with prefix partial expectations; the per-element
// sqrt/cbrt of the pass-count weights are replaced by compares against the
// profile's exact step thresholds.
// ---------------------------------------------------------------------------

EcMemoryProfile BuildEcMemoryProfile(DistView memory, DistArena* arena) {
  EcMemoryProfile p;
  p.memory = memory;
  double* sqrt_step = arena->AllocDoubles(memory.n);
  double* cbrt_step = arena->AllocDoubles(memory.n);
  auto sqrt_fn = +[](double x) { return std::sqrt(x); };
  auto cbrt_fn = +[](double x) { return std::cbrt(x); };
  for (size_t i = 0; i < memory.n; ++i) {
    double m = memory.values[i];
    sqrt_step[i] = StepThreshold(m, sqrt_fn, m * m);
    cbrt_step[i] = StepThreshold(m, cbrt_fn, m * m * m);
  }
  p.sqrt_step = sqrt_step;
  p.cbrt_step = cbrt_step;
  return p;
}

namespace {

/// The sort-merge / Grace-hash pass-count weight
/// g(x) = 2·Pr(M > √x) + 4·Pr(∛x < M ≤ √x) + 6·Pr(M ≤ ∛x),
/// evaluated by two monotone threshold sweeps — no transcendentals.
struct PassWeightSweep {
  StepCdfSweep sqrt_sweep;
  StepCdfSweep cbrt_sweep;

  explicit PassWeightSweep(const EcMemoryProfile& m)
      : sqrt_sweep{m.sqrt_step, m.memory.probs, m.memory.n, 0, 0},
        cbrt_sweep{m.cbrt_step, m.memory.probs, m.memory.n, 0, 0} {}

  double Advance(double x) {
    double p_leq_sqrt = sqrt_sweep.Advance(x);
    double p_leq_cbrt = cbrt_sweep.Advance(x);
    return 2.0 * (1.0 - p_leq_sqrt) + 4.0 * (p_leq_sqrt - p_leq_cbrt) +
           6.0 * p_leq_cbrt;
  }
};

}  // namespace

double FastEcSortMerge(DistView a, DistView b, const EcMemoryProfile& m) {
  double ec = 0;
  // Branch |A| <= |B| (larger = b): sweep b ascending.
  {
    PassWeightSweep g(m);
    PrefixSweep a_prefix{a, /*strict=*/false, 0, 0, 0};
    for (size_t k = 0; k < b.n; ++k) {
      double x = b.values[k];
      a_prefix.Advance(x);
      double weight = g.Advance(x);
      ec += b.probs[k] * weight * (a_prefix.pe + x * a_prefix.prob);
    }
  }
  // Branch |A| > |B| (larger = a): sweep a ascending, strict prefix over B.
  {
    PassWeightSweep g(m);
    PrefixSweep b_prefix{b, /*strict=*/true, 0, 0, 0};
    for (size_t k = 0; k < a.n; ++k) {
      double x = a.values[k];
      b_prefix.Advance(x);
      double weight = g.Advance(x);
      ec += a.probs[k] * weight * (x * b_prefix.prob + b_prefix.pe);
    }
  }
  return ec;
}

double FastEcGraceHash(DistView a, DistView b, const EcMemoryProfile& m) {
  return FastEcGraceHash(a, b, m, ViewMean(a), ViewMean(b));
}

double FastEcGraceHash(DistView a, DistView b, const EcMemoryProfile& m,
                       double a_mean, double b_mean) {
  double ec = 0;
  // Branch |A| <= |B| (smaller = a): sweep a; need suffix stats of B.
  {
    PassWeightSweep h(m);
    PrefixSweep b_prefix{b, /*strict=*/true, 0, 0, 0};
    for (size_t k = 0; k < a.n; ++k) {
      double x = a.values[k];
      b_prefix.Advance(x);
      double pr_b_geq = 1.0 - b_prefix.prob;
      double pe_b_geq = b_mean - b_prefix.pe;
      double weight = h.Advance(x);
      ec += a.probs[k] * weight * (x * pr_b_geq + pe_b_geq);
    }
  }
  // Branch |A| > |B| (smaller = b): sweep b; need strict suffix of A.
  {
    PassWeightSweep h(m);
    PrefixSweep a_prefix{a, /*strict=*/false, 0, 0, 0};
    for (size_t k = 0; k < b.n; ++k) {
      double x = b.values[k];
      a_prefix.Advance(x);
      double pr_a_gt = 1.0 - a_prefix.prob;
      double pe_a_gt = a_mean - a_prefix.pe;
      double weight = h.Advance(x);
      ec += b.probs[k] * weight * (pe_a_gt + x * pr_a_gt);
    }
  }
  return ec;
}

double FastEcNestedLoop(DistView a, DistView b, DistView m) {
  return FastEcNestedLoop(a, b, m, ViewMean(a), ViewMean(b));
}

double FastEcNestedLoop(DistView a, DistView b, DistView m, double a_mean,
                        double b_mean) {
  double ec = 0;
  // Branch |A| <= |B| (S = a): sweep a ascending. The memory threshold is
  // S + 2 — one add, so no precompiled profile is needed.
  {
    size_t mi = 0;
    double m_acc = 0;  // Pr(M < x + 2), strict
    PrefixSweep b_prefix{b, /*strict=*/true, 0, 0, 0};
    for (size_t k = 0; k < a.n; ++k) {
      double x = a.values[k];
      b_prefix.Advance(x);
      double pr_b_geq = 1.0 - b_prefix.prob;
      double pe_b_geq = b_mean - b_prefix.pe;
      double bound = x + 2.0;
      while (mi < m.n && m.values[mi] < bound) {
        m_acc += m.probs[mi];
        ++mi;
      }
      double p_small = m_acc;        // M < S + 2
      double p_big = 1.0 - p_small;  // M >= S + 2
      // M >= S+2: cost a + b;  M < S+2: cost a + a·b.
      ec += a.probs[k] * (p_big * (x * pr_b_geq + pe_b_geq) +
                          p_small * (x * pr_b_geq + x * pe_b_geq));
    }
  }
  // Branch |A| > |B| (S = b): sweep b ascending.
  {
    size_t mi = 0;
    double m_acc = 0;
    PrefixSweep a_prefix{a, /*strict=*/false, 0, 0, 0};
    for (size_t k = 0; k < b.n; ++k) {
      double x = b.values[k];
      a_prefix.Advance(x);
      double pr_a_gt = 1.0 - a_prefix.prob;
      double pe_a_gt = a_mean - a_prefix.pe;
      double bound = x + 2.0;
      while (mi < m.n && m.values[mi] < bound) {
        m_acc += m.probs[mi];
        ++mi;
      }
      double p_small = m_acc;
      double p_big = 1.0 - p_small;
      ec += b.probs[k] * (p_big * (pe_a_gt + x * pr_a_gt) +
                          p_small * (pe_a_gt + pe_a_gt * x));
    }
  }
  return ec;
}

double FastEcJoin(JoinMethod method, DistView left, DistView right,
                  const EcMemoryProfile& memory, double left_mean,
                  double right_mean) {
  switch (method) {
    case JoinMethod::kSortMerge:
      return FastEcSortMerge(left, right, memory);
    case JoinMethod::kNestedLoop:
      return FastEcNestedLoop(left, right, memory.memory, left_mean,
                              right_mean);
    case JoinMethod::kGraceHash:
      return FastEcGraceHash(left, right, memory, left_mean, right_mean);
    case JoinMethod::kHybridHash:
      throw std::invalid_argument(
          "no fast path for hybrid hash (cost is piecewise-linear, not a "
          "step function); use ExpectedJoinCost");
  }
  throw std::logic_error("unknown join method");
}

double FastEcJoin(JoinMethod method, DistView left, DistView right,
                  const EcMemoryProfile& memory) {
  return FastEcJoin(method, left, right, memory, ViewMean(left),
                    ViewMean(right));
}

double FastEcByMethod::Of(JoinMethod method) const {
  switch (method) {
    case JoinMethod::kNestedLoop:
      return nested_loop;
    case JoinMethod::kSortMerge:
      return sort_merge;
    case JoinMethod::kGraceHash:
      return grace_hash;
    case JoinMethod::kHybridHash:
      throw std::invalid_argument("no fast path for hybrid hash");
  }
  throw std::logic_error("unknown join method");
}

FastEcByMethod FastEcAllMethods(DistView a, DistView b,
                                const EcMemoryProfile& m, double a_mean,
                                double b_mean, double* sm_a_terms) {
  // Every term below is its single kernel's expression verbatim; only the
  // loops are shared.
  FastEcByMethod ec;
  // Sweep a ascending: SM's |A| > |B| branch, GH's and NL's |A| <= |B|.
  {
    PassWeightSweep g(m);
    PrefixSweep b_prefix{b, /*strict=*/true, 0, 0, 0};
    size_t mi = 0;
    double m_acc = 0;  // Pr(M < x + 2), strict
    for (size_t k = 0; k < a.n; ++k) {
      double x = a.values[k];
      b_prefix.Advance(x);
      double weight = g.Advance(x);
      sm_a_terms[k] =
          a.probs[k] * weight * (x * b_prefix.prob + b_prefix.pe);
      double pr_b_geq = 1.0 - b_prefix.prob;
      double pe_b_geq = b_mean - b_prefix.pe;
      ec.grace_hash += a.probs[k] * weight * (x * pr_b_geq + pe_b_geq);
      double bound = x + 2.0;
      while (mi < m.memory.n && m.memory.values[mi] < bound) {
        m_acc += m.memory.probs[mi];
        ++mi;
      }
      double p_small = m_acc;
      double p_big = 1.0 - p_small;
      ec.nested_loop += a.probs[k] * (p_big * (x * pr_b_geq + pe_b_geq) +
                                      p_small * (x * pr_b_geq + x * pe_b_geq));
    }
  }
  // Sweep b ascending: SM's |A| <= |B| branch, GH's and NL's |A| > |B|.
  {
    PassWeightSweep g(m);
    PrefixSweep a_prefix{a, /*strict=*/false, 0, 0, 0};
    size_t mi = 0;
    double m_acc = 0;
    for (size_t k = 0; k < b.n; ++k) {
      double x = b.values[k];
      a_prefix.Advance(x);
      double weight = g.Advance(x);
      ec.sort_merge += b.probs[k] * weight * (a_prefix.pe + x * a_prefix.prob);
      double pr_a_gt = 1.0 - a_prefix.prob;
      double pe_a_gt = a_mean - a_prefix.pe;
      ec.grace_hash += b.probs[k] * weight * (pe_a_gt + x * pr_a_gt);
      double bound = x + 2.0;
      while (mi < m.memory.n && m.memory.values[mi] < bound) {
        m_acc += m.memory.probs[mi];
        ++mi;
      }
      double p_small = m_acc;
      double p_big = 1.0 - p_small;
      ec.nested_loop += b.probs[k] * (p_big * (pe_a_gt + x * pr_a_gt) +
                                      p_small * (pe_a_gt + pe_a_gt * x));
    }
  }
  for (size_t k = 0; k < a.n; ++k) ec.sort_merge += sm_a_terms[k];
  return ec;
}

// ---------------------------------------------------------------------------
// Distribution-level wrappers: build the profile in a per-thread scratch
// arena (reset each call — these are leaf computations) and run the
// kernels. Algorithm D bypasses these and holds one profile per DP run.
// ---------------------------------------------------------------------------

namespace {

DistArena& WrapperArena() {
  thread_local DistArena arena(size_t{1} << 10);
  return arena;
}

}  // namespace

double FastExpectedSortMergeCost(const Distribution& left,
                                 const Distribution& right,
                                 const Distribution& memory) {
  DistArena& arena = WrapperArena();
  arena.Reset();
  return FastEcSortMerge(left.AsView(), right.AsView(),
                         BuildEcMemoryProfile(memory.AsView(), &arena));
}

double FastExpectedNestedLoopCost(const Distribution& left,
                                  const Distribution& right,
                                  const Distribution& memory) {
  return FastEcNestedLoop(left.AsView(), right.AsView(), memory.AsView(),
                          left.Mean(), right.Mean());
}

double FastExpectedGraceHashCost(const Distribution& left,
                                 const Distribution& right,
                                 const Distribution& memory) {
  DistArena& arena = WrapperArena();
  arena.Reset();
  return FastEcGraceHash(left.AsView(), right.AsView(),
                         BuildEcMemoryProfile(memory.AsView(), &arena),
                         left.Mean(), right.Mean());
}

double FastExpectedJoinCost(JoinMethod method, const Distribution& left,
                            const Distribution& right,
                            const Distribution& memory) {
  switch (method) {
    case JoinMethod::kSortMerge:
      return FastExpectedSortMergeCost(left, right, memory);
    case JoinMethod::kNestedLoop:
      return FastExpectedNestedLoopCost(left, right, memory);
    case JoinMethod::kGraceHash:
      return FastExpectedGraceHashCost(left, right, memory);
    case JoinMethod::kHybridHash:
      throw std::invalid_argument(
          "no fast path for hybrid hash (cost is piecewise-linear, not a "
          "step function); use ExpectedJoinCost");
  }
  throw std::logic_error("unknown join method");
}

// ---------------------------------------------------------------------------
// Branch-and-bound floor hook (§3.6 prefix partial expectations).
// ---------------------------------------------------------------------------

double EcJoinCostRemFloorFixedSizeView(const CostModel& model,
                                       JoinMethod method,
                                       double outer_min_pages,
                                       double right_pages, DistView memory) {
  // E_M[JoinCostRemFloor] computed in one pass over the ascending memory
  // values: the pointwise floor is a step function of M with the same
  // sqrt/cbrt/threshold breakpoints as the cost formulas, so its
  // expectation is a weighted sum of class masses — exactly the §3.6
  // prefix-partial-expectation structure, located with simd::CountLeq and
  // folded with simd::Sum. Admissibility is inherited pointwise from
  // CostModel::JoinCostRemFloor; the expectation of a pointwise lower
  // bound lower-bounds the expectation.
  const double* v = memory.values;
  const double* p = memory.probs;
  const size_t n = memory.n;
  double a = outer_min_pages;
  double b = right_pages;
  double total = a + b;
  double mass = simd::Sum(p, n);
  // Class masses for the nested pass-multiplier k(M, s): k = 2 above
  // sqrt(s), 4 in (cbrt(s), sqrt(s)], else 6 — with the idx_c clamp
  // enforcing that the sqrt test wins when s < 1 (cbrt(s) > sqrt(s)).
  auto factor_masses = [&](double s, double* m2, double* m4, double* m6) {
    double sqrt_s = std::sqrt(s);
    double cbrt_s = std::cbrt(s);
    size_t idx_s = simd::CountLeq(v, 0, n, sqrt_s, /*strict=*/false);
    size_t idx_c =
        std::min(simd::CountLeq(v, 0, n, cbrt_s, /*strict=*/false), idx_s);
    *m6 = simd::Sum(p, idx_c);
    *m4 = simd::Sum(p + idx_c, idx_s - idx_c);
    *m2 = mass - (*m6 + *m4);
  };
  switch (method) {
    case JoinMethod::kSortMerge: {
      if (model.options().sorted_input_discount) return total * mass;
      double m2, m4, m6;
      factor_masses(std::max(a, b), &m2, &m4, &m6);
      return (2.0 * m2 + 4.0 * m4 + 6.0 * m6) * total;
    }
    case JoinMethod::kGraceHash: {
      double m2, m4, m6;
      factor_masses(std::min(a, b), &m2, &m4, &m6);
      return (2.0 * m2 + 4.0 * m4 + 6.0 * m6) * total;
    }
    case JoinMethod::kNestedLoop: {
      double smaller = std::min(a, b);
      size_t idx_lo = simd::CountLeq(v, 0, n, smaller + 2, /*strict=*/true);
      double m_lo = simd::Sum(p, idx_lo);
      double m_hi = mass - m_lo;
      return (a + a * b) * m_lo + (a + std::min(b, a * b)) * m_hi;
    }
    case JoinMethod::kHybridHash: {
      double smaller = std::min(a, b);
      if (smaller <= 0) return total * mass;
      // factor >= max(k(M, smaller) - 1, 1): classes 1 / 3 / 5.
      double m2, m4, m6;
      factor_masses(smaller, &m2, &m4, &m6);
      return (1.0 * m2 + 3.0 * m4 + 5.0 * m6) * total;
    }
  }
  throw std::logic_error("unknown join method");
}

}  // namespace lec
