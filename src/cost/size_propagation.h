// Propagating result-size distributions up the plan (§3.6.3).
//
// When table sizes and selectivities are distributions, the size of a join
// result |B_j ⋈ A_j| = |B_j| · |A_j| · σ is itself a distribution whose
// support can grow as the product of the inputs' bucket counts. The paper's
// remedy is to "rebucket each of |A|, |B|, and σ so that they have ∛b
// buckets" before multiplying, keeping the computation O(b) per node.
#ifndef LECOPT_COST_SIZE_PROPAGATION_H_
#define LECOPT_COST_SIZE_PROPAGATION_H_

#include <cstddef>
#include <vector>

#include "dist/arena.h"
#include "dist/distribution.h"
#include "dist/kernel.h"
#include "query/query.h"

namespace lec {

/// How JoinSizeDistribution bounds its work.
enum class SizePropagationMode {
  /// Full product of the three inputs, then one final rebucket to the
  /// target — accurate but O(b_|A| · b_|B| · b_σ).
  kExactThenRebucket,
  /// §3.6.3: pre-rebucket each input to ⌊∛target⌋ buckets so the product
  /// already has at most `target` buckets — O(target) per node.
  kCubeRootPrebucket,
};

/// Distribution of Π selectivity over the given predicates (independence
/// assumed), capped at `max_buckets` buckets.
Distribution CombinedSelectivityDistribution(const Query& query,
                                             const std::vector<int>& preds,
                                             size_t max_buckets);

/// Distribution of |left ⋈ right| = |left| · |right| · σ with at most
/// `max_buckets` buckets.
Distribution JoinSizeDistribution(const Distribution& left,
                                  const Distribution& right,
                                  const Distribution& selectivity,
                                  size_t max_buckets,
                                  SizePropagationMode mode =
                                      SizePropagationMode::kCubeRootPrebucket);

// -- Arena kernel pipeline (Algorithm D's hot path) -------------------------
//
// The DistView twins mirror the Distribution pipeline above arithmetic step
// for arithmetic step (same product order, same rebucket cells, same
// normalization), writing every intermediate into the caller's arena. The
// returned view may alias an *input* view when a rebucket was a no-op, so
// inputs must outlive the result (or be arena-backed themselves).

/// CombinedSelectivityDistribution on views.
DistView CombinedSelectivityViewInto(const Query& query,
                                     const std::vector<int>& preds,
                                     size_t max_buckets, DistArena* arena);

/// JoinSizeDistribution on views.
DistView JoinSizeViewInto(DistView left, DistView right, DistView selectivity,
                          size_t max_buckets, SizePropagationMode mode,
                          DistArena* arena);

/// JoinSizeViewInto in its two stages, for callers that reuse an operand
/// across joins. The operand stage is what each of the three inputs enters
/// the product as: rebucketed to ⌊∛max_buckets⌋ buckets under
/// kCubeRootPrebucket, unchanged under kExactThenRebucket. The product
/// stage multiplies three staged operands (left · right, then · σ) and
/// rebuckets to `max_buckets`. JoinSizeOfOperandsInto(JoinSizeOperandInto(
/// l), JoinSizeOperandInto(r), JoinSizeOperandInto(s)) has
/// JoinSizeViewInto(l, r, s)'s bits.
DistView JoinSizeOperandInto(DistView operand, size_t max_buckets,
                             SizePropagationMode mode, DistArena* arena);
DistView JoinSizeOfOperandsInto(DistView left, DistView right,
                                DistView selectivity, size_t max_buckets,
                                DistArena* arena);

}  // namespace lec

#endif  // LECOPT_COST_SIZE_PROPAGATION_H_
