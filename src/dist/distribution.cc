#include "dist/distribution.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace lec {

Distribution::Distribution(std::vector<Bucket> buckets) {
  if (buckets.empty()) {
    throw std::invalid_argument("distribution needs at least one bucket");
  }
  for (const Bucket& b : buckets) {
    if (!std::isfinite(b.value)) {
      throw std::invalid_argument("bucket value must be finite");
    }
    if (!std::isfinite(b.prob) || b.prob < 0) {
      throw std::invalid_argument(
          "bucket probability must be finite and non-negative");
    }
  }
  std::sort(buckets.begin(), buckets.end(),
            [](const Bucket& a, const Bucket& b) { return a.value < b.value; });
  // Merge duplicate values, drop zero-mass buckets.
  buckets_.reserve(buckets.size());
  for (const Bucket& b : buckets) {
    if (!buckets_.empty() && buckets_.back().value == b.value) {
      buckets_.back().prob += b.prob;
    } else {
      buckets_.push_back(b);
    }
  }
  buckets_.erase(std::remove_if(buckets_.begin(), buckets_.end(),
                                [](const Bucket& b) { return b.prob <= 0; }),
                 buckets_.end());
  double total = 0;
  for (const Bucket& b : buckets_) total += b.prob;
  if (buckets_.empty() || total <= 0 || !std::isfinite(total)) {
    throw std::invalid_argument("total probability mass must be positive");
  }
  for (Bucket& b : buckets_) b.prob /= total;

  // Buckets carrying a negligible share of the mass (numerical dust from
  // normalizing wildly different weights) are dropped, with one
  // renormalization pass. Skipped when nothing is dropped so exact inputs
  // stay bit-exact.
  constexpr double kEpsilonMass = 1e-12;
  auto dust = [](const Bucket& b) { return b.prob < kEpsilonMass; };
  if (std::any_of(buckets_.begin(), buckets_.end(), dust)) {
    buckets_.erase(std::remove_if(buckets_.begin(), buckets_.end(), dust),
                   buckets_.end());
    double kept = 0;
    for (const Bucket& b : buckets_) kept += b.prob;
    for (Bucket& b : buckets_) b.prob /= kept;
  }

  FinalizeFromBuckets();
}

void Distribution::FinalizeFromBuckets() {
  size_t n = buckets_.size();
  soa_.resize(4 * n);
  double* values = soa_.data();
  double* probs = values + n;
  double* cum_prob = probs + n;
  double* cum_pe = cum_prob + n;
  double cp = 0, cpe = 0;
  for (size_t i = 0; i < n; ++i) {
    const Bucket& b = buckets_[i];
    values[i] = b.value;
    probs[i] = b.prob;
    cp += b.prob;
    cpe += b.value * b.prob;
    cum_prob[i] = cp;
    cum_pe[i] = cpe;
  }
  mean_ = cpe;
  // The sum of normalized probabilities is 1 up to rounding; pin the final
  // cumulative so PrLeq(Max) is exactly 1.
  cum_prob[n - 1] = 1.0;

  // FNV-1a over the normalized buckets' bit patterns. Buckets are immutable
  // after construction, so the hash is computed exactly once.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](double d) {
    h = (h ^ std::bit_cast<uint64_t>(d)) * 1099511628211ull;
  };
  for (const Bucket& b : buckets_) {
    mix(b.value);
    mix(b.prob);
  }
  hash_ = h;
}

Distribution Distribution::FromNormalizedView(DistView view) {
  if (view.n == 0) {
    throw std::invalid_argument("distribution needs at least one bucket");
  }
  Distribution d(UninitTag{}, 0);
  d.buckets_.reserve(view.n);
  for (size_t i = 0; i < view.n; ++i) {
    assert(view.probs[i] > 0 && std::isfinite(view.values[i]) &&
           "view bucket violates the normalized contract");
    assert((i == 0 || view.values[i - 1] < view.values[i]) &&
           "view values must be strictly ascending");
    d.buckets_.push_back({view.values[i], view.probs[i]});
  }
  d.FinalizeFromBuckets();
  return d;
}

Distribution Distribution::PointMass(double value) {
  return Distribution({{value, 1.0}});
}

Distribution Distribution::TwoPoint(double v1, double p1, double v2,
                                    double p2) {
  return Distribution({{v1, p1}, {v2, p2}});
}

double Distribution::Variance() const {
  double e2 = 0;
  for (const Bucket& b : buckets_) e2 += b.prob * (b.value * b.value);
  return e2 - mean_ * mean_;
}

double Distribution::StdDev() const {
  return std::sqrt(std::max(Variance(), 0.0));
}

double Distribution::Mode() const {
  size_t best = 0;
  for (size_t i = 1; i < buckets_.size(); ++i) {
    if (buckets_[i].prob > buckets_[best].prob) best = i;
  }
  return buckets_[best].value;
}

ptrdiff_t Distribution::UpperIndexLeq(double x) const {
  auto it = std::upper_bound(
      buckets_.begin(), buckets_.end(), x,
      [](double v, const Bucket& b) { return v < b.value; });
  return (it - buckets_.begin()) - 1;
}

ptrdiff_t Distribution::UpperIndexLt(double x) const {
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), x,
      [](const Bucket& b, double v) { return b.value < v; });
  return (it - buckets_.begin()) - 1;
}

double Distribution::PrLeq(double x) const {
  ptrdiff_t i = UpperIndexLeq(x);
  return i < 0 ? 0.0 : cum_prob()[static_cast<size_t>(i)];
}

double Distribution::PrLt(double x) const {
  ptrdiff_t i = UpperIndexLt(x);
  return i < 0 ? 0.0 : cum_prob()[static_cast<size_t>(i)];
}

double Distribution::PrInLeftOpen(double lo, double hi) const {
  if (hi <= lo) return 0.0;
  return PrLeq(hi) - PrLeq(lo);
}

double Distribution::PartialExpectationLeq(double x) const {
  ptrdiff_t i = UpperIndexLeq(x);
  return i < 0 ? 0.0 : cum_pe()[static_cast<size_t>(i)];
}

double Distribution::PartialExpectationLt(double x) const {
  ptrdiff_t i = UpperIndexLt(x);
  return i < 0 ? 0.0 : cum_pe()[static_cast<size_t>(i)];
}

double Distribution::PartialExpectationGeq(double x) const {
  return mean_ - PartialExpectationLt(x);
}

double Distribution::PartialExpectationGt(double x) const {
  return mean_ - PartialExpectationLeq(x);
}

double Distribution::ConditionalMeanLeq(double x) const {
  double p = PrLeq(x);
  if (p <= 0) {
    throw std::domain_error("conditioning on a zero-probability event");
  }
  return PartialExpectationLeq(x) / p;
}

double Distribution::ConditionalMeanGeq(double x) const {
  double p = PrGeq(x);
  if (p <= 0) {
    throw std::domain_error("conditioning on a zero-probability event");
  }
  return PartialExpectationGeq(x) / p;
}

double Distribution::PrLeqIndependent(const Distribution& other) const {
  // Pr(X <= Y) = Σ_y Pr(Y = y) · Pr(X <= y), one merged sweep.
  double pr = 0;
  size_t i = 0;
  double cum_x = 0;
  for (const Bucket& y : other.buckets_) {
    while (i < buckets_.size() && buckets_[i].value <= y.value) {
      cum_x += buckets_[i].prob;
      ++i;
    }
    pr += y.prob * cum_x;
  }
  return pr;
}

Distribution Distribution::MixWith(const Distribution& other, double w) const {
  if (!(w >= 0.0 && w <= 1.0)) {
    throw std::invalid_argument("mixture weight must be in [0, 1]");
  }
  std::vector<Bucket> out;
  out.reserve(buckets_.size() + other.buckets_.size());
  for (const Bucket& b : buckets_) out.push_back({b.value, w * b.prob});
  for (const Bucket& b : other.buckets_) {
    out.push_back({b.value, (1.0 - w) * b.prob});
  }
  return Distribution(std::move(out));
}

Distribution Distribution::Rebucket(size_t max_buckets,
                                    RebucketStrategy strategy) const {
  if (max_buckets == 0) {
    throw std::invalid_argument("max_buckets must be positive");
  }
  if (buckets_.size() <= max_buckets) return *this;

  // Assign each bucket to a cell; each cell then collapses to its
  // conditional mean so Σ cell-mass · cell-mean telescopes to Mean().
  std::vector<Bucket> out;
  out.reserve(max_buckets);
  double cell_mass = 0, cell_weighted = 0;
  auto close_cell = [&] {
    if (cell_mass > 0) {
      out.push_back({cell_weighted / cell_mass, cell_mass});
      cell_mass = cell_weighted = 0;
    }
  };

  if (strategy == RebucketStrategy::kEqualWidth) {
    double lo = Min(), width = (Max() - Min()) / static_cast<double>(max_buckets);
    size_t cur_cell = 0;
    for (const Bucket& b : buckets_) {
      size_t cell =
          width > 0
              ? std::min(max_buckets - 1,
                         static_cast<size_t>((b.value - lo) / width))
              : 0;
      if (cell != cur_cell) {
        close_cell();
        cur_cell = cell;
      }
      cell_mass += b.prob;
      cell_weighted += b.value * b.prob;
    }
  } else {  // kEqualProb
    double target = 1.0 / static_cast<double>(max_buckets);
    size_t cells_closed = 0;
    double mass_before = 0;
    for (const Bucket& b : buckets_) {
      cell_mass += b.prob;
      cell_weighted += b.value * b.prob;
      mass_before += b.prob;
      // Close once this cell's share of the quantile grid is used up, but
      // never open more cells than remain in the budget.
      if (cells_closed + 1 < max_buckets &&
          mass_before >=
              static_cast<double>(cells_closed + 1) * target - 1e-12) {
        close_cell();
        ++cells_closed;
      }
    }
  }
  close_cell();
  return Distribution(std::move(out));
}

double Distribution::CdfDistance(const Distribution& other) const {
  double sup = 0;
  size_t i = 0, j = 0;
  double fa = 0, fb = 0;
  while (i < buckets_.size() || j < other.buckets_.size()) {
    double va = i < buckets_.size() ? buckets_[i].value
                                    : std::numeric_limits<double>::infinity();
    double vb = j < other.buckets_.size()
                    ? other.buckets_[j].value
                    : std::numeric_limits<double>::infinity();
    if (va <= vb) fa = cum_prob()[i++];
    if (vb <= va) fb = other.cum_prob()[j++];
    sup = std::max(sup, std::fabs(fa - fb));
  }
  return sup;
}

double Distribution::Sample(Rng* rng) const {
  double u = rng->Uniform01();
  // First bucket whose cumulative probability exceeds u.
  const double* begin = cum_prob();
  const double* end = begin + buckets_.size();
  const double* it = std::upper_bound(begin, end, u);
  size_t i = it == end ? buckets_.size() - 1
                       : static_cast<size_t>(it - begin);
  return buckets_[i].value;
}

std::string Distribution::ToString() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (i > 0) os << ", ";
    os << buckets_[i].value << ": " << buckets_[i].prob;
  }
  os << "}";
  return os.str();
}

}  // namespace lec
