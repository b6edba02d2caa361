#include "cost/size_propagation.h"

#include <algorithm>
#include <cmath>

namespace lec {

Distribution CombinedSelectivityDistribution(const Query& query,
                                             const std::vector<int>& preds,
                                             size_t max_buckets) {
  Distribution combined = Distribution::PointMass(1.0);
  for (int i : preds) {
    combined = combined
                   .ProductWith(query.predicate(i).selectivity,
                                [](double a, double b) { return a * b; })
                   .Rebucket(max_buckets);
  }
  return combined;
}

Distribution JoinSizeDistribution(const Distribution& left,
                                  const Distribution& right,
                                  const Distribution& selectivity,
                                  size_t max_buckets,
                                  SizePropagationMode mode) {
  auto mul = [](double a, double b) { return a * b; };
  if (mode == SizePropagationMode::kCubeRootPrebucket) {
    size_t per_input = std::max<size_t>(
        1, static_cast<size_t>(std::floor(std::cbrt(
               static_cast<double>(std::max<size_t>(max_buckets, 1))))));
    Distribution l = left.Rebucket(per_input);
    Distribution r = right.Rebucket(per_input);
    Distribution s = selectivity.Rebucket(per_input);
    return l.ProductWith(r, mul).ProductWith(s, mul).Rebucket(max_buckets);
  }
  return left.ProductWith(right, mul)
      .ProductWith(selectivity, mul)
      .Rebucket(max_buckets);
}

DistView CombinedSelectivityViewInto(const Query& query,
                                     const std::vector<int>& preds,
                                     size_t max_buckets, DistArena* arena) {
  DistView combined = UnitPointMassView();
  for (int i : preds) {
    combined = RebucketInto(
        ProductInto(combined, query.predicate(i).selectivity.AsView(), arena),
        max_buckets, RebucketStrategy::kEqualWidth, arena);
  }
  return combined;
}

DistView JoinSizeOperandInto(DistView operand, size_t max_buckets,
                             SizePropagationMode mode, DistArena* arena) {
  if (mode != SizePropagationMode::kCubeRootPrebucket) return operand;
  size_t per_input = std::max<size_t>(
      1, static_cast<size_t>(std::floor(std::cbrt(
             static_cast<double>(std::max<size_t>(max_buckets, 1))))));
  return RebucketInto(operand, per_input, RebucketStrategy::kEqualWidth,
                      arena);
}

DistView JoinSizeOfOperandsInto(DistView left, DistView right,
                                DistView selectivity, size_t max_buckets,
                                DistArena* arena) {
  return RebucketInto(
      ProductInto(ProductInto(left, right, arena), selectivity, arena),
      max_buckets, RebucketStrategy::kEqualWidth, arena);
}

DistView JoinSizeViewInto(DistView left, DistView right, DistView selectivity,
                          size_t max_buckets, SizePropagationMode mode,
                          DistArena* arena) {
  return JoinSizeOfOperandsInto(
      JoinSizeOperandInto(left, max_buckets, mode, arena),
      JoinSizeOperandInto(right, max_buckets, mode, arena),
      JoinSizeOperandInto(selectivity, max_buckets, mode, arena), max_buckets,
      arena);
}

}  // namespace lec
