#include "dist/kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace lec {

namespace {

// The simd::CrossInto / SumStride2 / DivStride2 kernels address Bucket
// arrays as interleaved doubles (value at 2i, prob at 2i+1).
static_assert(std::is_standard_layout_v<Bucket>);
static_assert(sizeof(Bucket) == 2 * sizeof(double));
static_assert(offsetof(Bucket, value) == 0);
static_assert(offsetof(Bucket, prob) == sizeof(double));

/// Σ raw[i].prob for i < n, in strict index order. Deliberately NOT
/// simd::SumStride2: FinishInto's normalization divisor must match the
/// legacy Distribution constructor bit for bit at every dispatch level
/// (the kernel/legacy bit-faithfulness contract at the top of kernel.h
/// hangs off it). The divides that consume the divisor are elementwise and
/// stay vectorized.
double BucketProbSum(const Bucket* raw, size_t n) {
  double s = 0;
  for (size_t i = 0; i < n; ++i) s += raw[i].prob;
  return s;
}

/// Writes the surviving `n` buckets of `raw` out as SoA.
DistView EmitSoA(const Bucket* raw, size_t n, DistArena* arena) {
  double* values = arena->AllocDoubles(n);
  double* probs = arena->AllocDoubles(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = raw[i].value;
    probs[i] = raw[i].prob;
  }
  return {values, probs, n};
}

}  // namespace

DistView UnitPointMassView() {
  static const double kOne[1] = {1.0};
  return {kOne, kOne, 1};
}

double ViewMean(DistView v) { return simd::Dot(v.values, v.probs, v.n); }

double ViewTotalMass(DistView v) { return simd::Sum(v.probs, v.n); }

bool ViewEquals(DistView a, DistView b) {
  if (a.n != b.n) return false;
  for (size_t i = 0; i < a.n; ++i) {
    if (a.values[i] != b.values[i] || a.probs[i] != b.probs[i]) return false;
  }
  return true;
}

DistView FinishInto(Bucket* raw, size_t n, DistArena* arena) {
  // The Distribution-constructor pipeline, step for step, so kernel and
  // legacy outputs are bit-identical: validate, sort, merge duplicate
  // values (probs add in sequence order), drop non-positive mass,
  // normalize, dust pass. Validation throws exactly where the constructor
  // would — a kernel product that overflows to inf must fail the same way
  // the legacy Distribution path fails, not propagate garbage.
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(raw[i].value)) {
      throw std::invalid_argument("bucket value must be finite");
    }
    if (!std::isfinite(raw[i].prob) || raw[i].prob < 0) {
      throw std::invalid_argument(
          "bucket probability must be finite and non-negative");
    }
  }
  std::sort(raw, raw + n,
            [](const Bucket& a, const Bucket& b) { return a.value < b.value; });
  size_t merged = 0;
  for (size_t i = 0; i < n; ++i) {
    if (merged > 0 && raw[merged - 1].value == raw[i].value) {
      raw[merged - 1].prob += raw[i].prob;
    } else {
      raw[merged++] = raw[i];
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < merged; ++i) {
    if (raw[i].prob > 0) raw[kept++] = raw[i];
  }
  double total = BucketProbSum(raw, kept);
  if (kept == 0 || total <= 0 || !std::isfinite(total)) {
    throw std::invalid_argument("total probability mass must be positive");
  }
  simd::DivStride2(&raw[0].prob, kept, total);

  constexpr double kEpsilonMass = 1e-12;
  bool any_dust = false;
  for (size_t i = 0; i < kept; ++i) any_dust |= raw[i].prob < kEpsilonMass;
  if (any_dust) {
    size_t live = 0;
    for (size_t i = 0; i < kept; ++i) {
      if (raw[i].prob >= kEpsilonMass) raw[live++] = raw[i];
    }
    kept = live;
    double kept_mass = BucketProbSum(raw, kept);
    if (kept > 0) simd::DivStride2(&raw[0].prob, kept, kept_mass);
  }
  return EmitSoA(raw, kept, arena);
}

DistView CopyInto(DistView in, DistArena* arena) {
  double* values = arena->AllocDoubles(in.n);
  double* probs = arena->AllocDoubles(in.n);
  std::memcpy(values, in.values, in.n * sizeof(double));
  std::memcpy(probs, in.probs, in.n * sizeof(double));
  return {values, probs, in.n};
}

DistView ProductInto(DistView a, DistView b, DistArena* arena) {
  Bucket* raw = arena->AllocArray<Bucket>(a.n * b.n);
  size_t idx = 0;
  for (size_t i = 0; i < a.n; ++i) {
    simd::CrossInto(a.values[i], a.probs[i], b.values, b.probs, b.n,
                    reinterpret_cast<double*>(raw + idx));
    idx += b.n;
  }
  return FinishInto(raw, idx, arena);
}

DistView MixInto(DistView a, DistView b, double w, DistArena* arena) {
  if (!(w >= 0.0 && w <= 1.0)) {  // same throw as Distribution::MixWith
    throw std::invalid_argument("mixture weight must be in [0, 1]");
  }
  Bucket* raw = arena->AllocArray<Bucket>(a.n + b.n);
  // CrossInto with av = 1.0 copies values bit-exactly (1.0·v == v in IEEE
  // for every finite or infinite v; a NaN value throws in FinishInto on
  // either path) while scaling probs — same arithmetic as the historical
  // per-bucket loop.
  simd::CrossInto(1.0, w, a.values, a.probs, a.n,
                  reinterpret_cast<double*>(raw));
  simd::CrossInto(1.0, 1.0 - w, b.values, b.probs, b.n,
                  reinterpret_cast<double*>(raw + a.n));
  return FinishInto(raw, a.n + b.n, arena);
}

DistView RebucketInto(DistView in, size_t max_buckets,
                      RebucketStrategy strategy, DistArena* arena) {
  if (max_buckets == 0) {  // same throw as Distribution::Rebucket
    throw std::invalid_argument("max_buckets must be positive");
  }
  if (in.n <= max_buckets) return in;

  Bucket* raw = arena->AllocArray<Bucket>(max_buckets);
  size_t cells = 0;
  double cell_mass = 0, cell_weighted = 0;
  auto close_cell = [&] {
    if (cell_mass > 0) {
      raw[cells++] = {cell_weighted / cell_mass, cell_mass};
      cell_mass = cell_weighted = 0;
    }
  };

  if (strategy == RebucketStrategy::kEqualWidth) {
    double lo = in.values[0];
    double width =
        (in.values[in.n - 1] - lo) / static_cast<double>(max_buckets);
    size_t cur_cell = 0;
    for (size_t i = 0; i < in.n; ++i) {
      size_t cell =
          width > 0
              ? std::min(max_buckets - 1,
                         static_cast<size_t>((in.values[i] - lo) / width))
              : 0;
      if (cell != cur_cell) {
        close_cell();
        cur_cell = cell;
      }
      cell_mass += in.probs[i];
      cell_weighted += in.values[i] * in.probs[i];
    }
  } else {  // kEqualProb
    double target = 1.0 / static_cast<double>(max_buckets);
    size_t cells_closed = 0;
    double mass_before = 0;
    for (size_t i = 0; i < in.n; ++i) {
      cell_mass += in.probs[i];
      cell_weighted += in.values[i] * in.probs[i];
      mass_before += in.probs[i];
      if (cells_closed + 1 < max_buckets &&
          mass_before >=
              static_cast<double>(cells_closed + 1) * target - 1e-12) {
        close_cell();
        ++cells_closed;
      }
    }
  }
  close_cell();
  // Rebucket hands its cells back through the constructor (renormalizing
  // away the summation rounding); mirror that final pass.
  return FinishInto(raw, cells, arena);
}

double StepThreshold(double m, double (*f)(double), double x0) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (m <= 0) return -kInf;  // f(x) >= 0 >= m for every x in the domain
  if (!std::isfinite(x0)) return x0;
  double x = x0;
  // Walk down while the predicate still holds, then up to the first x
  // satisfying it. Correctly-rounded sqrt plateaus are ~2 ulps wide, so the
  // bounds are generous; non-convergence (pathological m) falls back to
  // the raw guess.
  int steps = 0;
  while (steps < 256 && x > 0 && f(x) >= m) {
    x = std::nextafter(x, -kInf);
    ++steps;
  }
  if (steps == 256) return x0;
  steps = 0;
  while (steps < 256 && f(x) < m) {
    x = std::nextafter(x, kInf);
    ++steps;
  }
  if (f(x) < m) return kInf;  // m above f's range: never include
  return x;
}

}  // namespace lec
