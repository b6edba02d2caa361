// Bucketed probability distributions — the core abstraction of the library.
//
// Chu–Halpern–Seshadri define every optimization problem over discrete
// probability distributions on the uncertain parameters: EC(p) = Σ_v
// C(p, v)·Pr(v) (§3.1). A Distribution is the paper's "bucketed"
// approximation of an arbitrary (possibly continuous) parameter
// distribution: a finite set of (value, probability) buckets, sorted by
// value, with probabilities normalized to sum to one. Instances are
// immutable; every transformation (Map, ProductWith, MixWith, Rebucket)
// returns a new Distribution, so they can be shared freely across
// optimizer, cost, and simulation layers.
#ifndef LECOPT_DIST_DISTRIBUTION_H_
#define LECOPT_DIST_DISTRIBUTION_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lec {

class Rng;

/// One bucket of a discrete distribution: Pr(X = value) = prob.
struct Bucket {
  double value = 0;
  double prob = 0;

  friend bool operator==(const Bucket& a, const Bucket& b) {
    return a.value == b.value && a.prob == b.prob;
  }
};

/// A borrowed SoA slice of a normalized distribution: values strictly
/// ascending, probs positive summing to ~1. POD on purpose — it is passed
/// by value through the DP inner loops. Views do not own their storage:
/// one from Distribution::AsView lives as long as the Distribution, one
/// carved from a DistArena dies at that arena's reset. The flat kernels
/// over views live in dist/kernel.h.
struct DistView {
  const double* values = nullptr;
  const double* probs = nullptr;
  size_t n = 0;
};

/// How Rebucket chooses its cells (§3.7 discusses the trade-off; the
/// level-set strategy of that section needs query context and lives in
/// optimizer/bucketing.h).
enum class RebucketStrategy {
  /// Uniform slices of [Min, Max].
  kEqualWidth,
  /// Quantile slices carrying roughly equal probability mass.
  kEqualProb,
};

/// An immutable discrete distribution over doubles.
///
/// Invariants established at construction and relied upon everywhere:
///   * at least one bucket;
///   * bucket values strictly ascending (duplicates merged), all finite;
///   * probabilities positive (zero-mass buckets dropped) and normalized
///     so that Σ prob = 1.
class Distribution {
 public:
  /// Validates, sorts, merges duplicate values, drops zero-mass buckets
  /// and normalizes. Throws std::invalid_argument on an empty input, a
  /// negative or non-finite probability, a non-finite value, or zero total
  /// mass.
  explicit Distribution(std::vector<Bucket> buckets);

  /// The degenerate distribution Pr(X = value) = 1.
  static Distribution PointMass(double value);

  /// Two-bucket distribution; the paper's Example 1.1 memory model. Order
  /// of the two points is irrelevant; a zero-probability point is dropped
  /// (so TwoPoint(a, 1, b, 0) is a point mass at a).
  static Distribution TwoPoint(double v1, double p1, double v2, double p2);

  /// Materializes a kernel output: the view must already be normalized
  /// (values strictly ascending, probs positive summing to ~1 — exactly
  /// what dist/kernel.h's FinishInto-based kernels emit). Skips the
  /// validating sort/merge/normalize pipeline and copies the view straight
  /// into owned storage, so kernel results cross the arena boundary in one
  /// pass. Debug builds assert the contract; see dist/kernel.h.
  static Distribution FromNormalizedView(DistView view);

  // -- Bucket access --------------------------------------------------------

  const std::vector<Bucket>& buckets() const { return buckets_; }
  size_t size() const { return buckets_.size(); }
  /// Unchecked in release builds (these sit in the DP hot loops); debug
  /// builds assert the index. Out-of-range access in a release build is
  /// undefined behavior, as with std::vector::operator[].
  const Bucket& bucket(size_t i) const {
    assert(i < buckets_.size() && "Distribution bucket index out of range");
    return buckets_[i];
  }
  /// Alias of bucket(); some call sites prefer STL-ish naming.
  const Bucket& get(size_t i) const { return bucket(i); }
  const Bucket& operator[](size_t i) const { return bucket(i); }

  /// Borrowed SoA view over the normalized buckets; valid as long as this
  /// Distribution. Two pointer loads — cheap enough for per-candidate use.
  DistView AsView() const {
    return {soa_.data(), soa_.data() + buckets_.size(), buckets_.size()};
  }

  // -- Moments and summary statistics ---------------------------------------

  double Mean() const { return mean_; }
  double Variance() const;
  double StdDev() const;
  /// Value of the highest-probability bucket (smallest such value on ties).
  double Mode() const;
  double Min() const { return buckets_.front().value; }
  double Max() const { return buckets_.back().value; }

  /// Σ_i prob_i · f(value_i) — expectation of an arbitrary functional.
  template <typename F>
  double Expect(F&& f) const {
    double e = 0;
    for (const Bucket& b : buckets_) e += b.prob * f(b.value);
    return e;
  }

  // -- CDF queries (O(log n) via precomputed prefix sums) -------------------

  /// Pr(X <= x).
  double PrLeq(double x) const;
  /// Pr(X < x).
  double PrLt(double x) const;
  /// Pr(X >= x).
  double PrGeq(double x) const { return 1.0 - PrLt(x); }
  /// Pr(X > x).
  double PrGt(double x) const { return 1.0 - PrLeq(x); }
  /// Pr(lo < X <= hi); zero when hi <= lo.
  double PrInLeftOpen(double lo, double hi) const;

  // -- Partial expectations (§3.6's F_b / G_b building blocks) --------------

  /// Σ_{v <= x} v·Pr(X = v).
  double PartialExpectationLeq(double x) const;
  /// Σ_{v < x} v·Pr(X = v).
  double PartialExpectationLt(double x) const;
  /// Σ_{v >= x} v·Pr(X = v).
  double PartialExpectationGeq(double x) const;
  /// Σ_{v > x} v·Pr(X = v).
  double PartialExpectationGt(double x) const;

  /// E[X | X <= x]; throws std::domain_error when Pr(X <= x) = 0.
  double ConditionalMeanLeq(double x) const;
  /// E[X | X >= x]; throws std::domain_error when Pr(X >= x) = 0.
  double ConditionalMeanGeq(double x) const;

  /// Pr(X <= Y) for Y ~ other, independent of X. Ties count.
  double PrLeqIndependent(const Distribution& other) const;

  // -- Transformations ------------------------------------------------------

  /// Distribution of f(X); colliding images are merged.
  template <typename F>
  Distribution Map(F&& f) const {
    std::vector<Bucket> out;
    out.reserve(buckets_.size());
    for (const Bucket& b : buckets_) out.push_back({f(b.value), b.prob});
    return Distribution(std::move(out));
  }

  /// Distribution of f(X, Y) for independent X ~ this, Y ~ other. The
  /// support is the full cross product (merged on collisions), so the
  /// result has up to size()·other.size() buckets; rebucket afterwards to
  /// keep the §3.6.3 propagation linear.
  template <typename F>
  Distribution ProductWith(const Distribution& other, F&& f) const {
    std::vector<Bucket> out;
    out.reserve(buckets_.size() * other.buckets_.size());
    for (const Bucket& a : buckets_) {
      for (const Bucket& b : other.buckets_) {
        out.push_back({f(a.value, b.value), a.prob * b.prob});
      }
    }
    return Distribution(std::move(out));
  }

  /// Mixture w·this + (1-w)·other; throws unless 0 <= w <= 1.
  Distribution MixWith(const Distribution& other, double w) const;

  /// Reduces to at most `max_buckets` buckets (§3.6.3). Each cell of the
  /// chosen partition collapses to its conditional mean, so the overall
  /// mean is preserved exactly. Returns *this unchanged when it already
  /// fits the budget.
  Distribution Rebucket(size_t max_buckets,
                        RebucketStrategy strategy =
                            RebucketStrategy::kEqualWidth) const;

  /// Kolmogorov distance sup_x |F_this(x) - F_other(x)| — the natural
  /// measure of bucketing error. Symmetric, in [0, 1].
  double CdfDistance(const Distribution& other) const;

  // -- Sampling and rendering -----------------------------------------------

  /// Draws one value by inverse-CDF; deterministic given the Rng state.
  double Sample(Rng* rng) const;

  /// "{v1: p1, v2: p2, ...}" with default stream formatting.
  std::string ToString() const;

  /// 64-bit content hash over the normalized buckets (bit patterns of value
  /// and probability), computed once at construction. Equal distributions
  /// hash equally, so (hash, operator==) gives cheap identity for cache
  /// keys such as the plan cache's per-distribution invalidation index.
  uint64_t ContentHash() const { return hash_; }

  /// Exact bucket-wise equality (same support, same probabilities).
  friend bool operator==(const Distribution& a, const Distribution& b) {
    return a.buckets_ == b.buckets_;
  }
  friend bool operator!=(const Distribution& a, const Distribution& b) {
    return !(a == b);
  }

 private:
  /// For FromNormalizedView: members are filled in by hand. (A tag rather
  /// than a plain default constructor — that would make `Distribution({})`
  /// ambiguous against the std::vector<Bucket> overload.)
  struct UninitTag {};
  /// Two-argument on purpose: a one-argument tag constructor would become
  /// an overload-resolution candidate for `Distribution({})`.
  Distribution(UninitTag, int) {}

  /// Index of the last bucket with value <= x, or -1.
  ptrdiff_t UpperIndexLeq(double x) const;
  /// Index of the last bucket with value < x, or -1.
  ptrdiff_t UpperIndexLt(double x) const;

  /// Recomputes the SoA mirror, cumulative arrays, mean and hash from
  /// buckets_ (shared tail of both construction paths).
  void FinalizeFromBuckets();

  /// cum_prob()[i] = Σ_{j<=i} prob_j; the final entry is clamped to 1.
  const double* cum_prob() const { return soa_.data() + 2 * buckets_.size(); }
  /// cum_pe()[i] = Σ_{j<=i} value_j·prob_j.
  const double* cum_pe() const { return soa_.data() + 3 * buckets_.size(); }

  std::vector<Bucket> buckets_;
  /// Four n-long arrays in one allocation: the SoA mirror of buckets_
  /// backing AsView() (values, then probs — the kernels read them as
  /// independent streams), then cum_prob() and cum_pe(). One block instead
  /// of four keeps a copy at two allocations.
  std::vector<double> soa_;
  double mean_ = 0;
  uint64_t hash_ = 0;
};

}  // namespace lec

#endif  // LECOPT_DIST_DISTRIBUTION_H_
