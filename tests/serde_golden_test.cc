// Golden-snapshot stability for the serving wire format.
//
// Artifacts are checked in under tests/golden/ and pinned byte-for-byte,
// named by the WIRE version they were written at:
//
//   serde_snapshot_v3.txt      one serialized ServeRequest + the
//                              OptimizeResult lec_static computes for it
//   plan_cache_snapshot_v3.txt a PlanCache snapshot holding lec_static and
//                              algorithm_d entries for the same workload
//   query_signature_v3.bin     the raw canonical QuerySignature bytes
//                              (schema v3) of the lec_static request
//   query_signature_v3_algorithm_{a,b}.bin
//                              the same for algorithm_a and algorithm_b,
//                              whose knob slots the cache key also writes
//   serde_snapshot_v1.txt      the same bundle as written by the previous
//                              wire format (version-2 stream; the name
//                              predates the by-version convention)
//   plan_cache_snapshot_v1.txt ditto for the cache snapshot — kept as the
//                              record of what old snapshots look like, and
//                              as the fixture for the v2→v3 signature
//                              upgrade path (QuerySignature::
//                              UpgradeCanonical)
//
// Together they pin three things at once: the wire format (any token
// added, removed or re-ordered changes the bytes), the hex-float encoding
// (any bit of any double changes the bytes), and compute determinism (the
// stored objective is the optimizer's actual output — if the DP starts
// producing different bits, this test is the tripwire). A version bump of
// kFormatVersion must come with NEW golden files (v4, ...), keeping the
// old files as the record — and as upgrade-path fixtures while the old
// version stays inside [kMinReadVersion, kFormatVersion].
//
// Regenerating after an intentional format change:
//
//   UPDATE_GOLDEN=1 ctest -R SerdeGolden
//
// then review the diff like any other code change. Only the
// current-version files regenerate; the old-version files are frozen.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "dist/simd.h"
#include "service/plan_cache.h"
#include "service/serde.h"
#include "util/rng.h"

namespace lec {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(LECOPT_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `bytes` against the golden file, regenerating under
/// UPDATE_GOLDEN=1 (the ExplainGolden workflow).
void CheckGolden(const std::string& name, const std::string& bytes) {
  std::string path = GoldenPath(name);
  const char* update = std::getenv("UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << bytes;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::string golden = ReadFile(path);
  ASSERT_FALSE(golden.empty())
      << "missing golden file " << path
      << "; generate it with UPDATE_GOLDEN=1 ctest -R SerdeGolden";
  EXPECT_EQ(bytes, golden)
      << "serialized bytes drifted from " << path
      << "; if the format change is intentional, regenerate with "
         "UPDATE_GOLDEN=1 and review the diff (a wire-format break needs a "
         "kFormatVersion bump and NEW golden files instead)";
}

class SerdeGoldenTest : public ::testing::Test {
 protected:
  SerdeGoldenTest() : memory_({{64, 0.25}, {512, 0.5}, {4096, 0.25}}) {
    Rng rng(20260729);
    WorkloadOptions wopts;
    wopts.num_tables = 4;
    wopts.shape = JoinGraphShape::kChain;
    wopts.selectivity_spread = 3.0;
    wopts.table_size_spread = 2.0;
    wopts.order_by_probability = 1.0;
    workload_ = GenerateWorkload(wopts, &rng);
  }

  OptimizeRequest RequestFor(PlanCache* cache) {
    OptimizeRequest req;
    req.query = &workload_.query;
    req.catalog = &workload_.catalog;
    req.model = &model_;
    req.memory = &memory_;
    req.options.plan_cache = cache;
    return req;
  }

  /// Optimizes with wall time pinned to zero — the one nondeterministic
  /// field, exactly as the ExplainGolden tests pin it.
  OptimizeResult PinnedOptimize(StrategyId id) {
    OptimizeResult r = optimizer_.Optimize(id, RequestFor(nullptr));
    r.elapsed_seconds = 0;
    return r;
  }

  // Golden bytes pin the optimizer's exact output bits, which must not
  // depend on the host CPU's SIMD tier: run the whole fixture at the
  // scalar reference level. SIMD-vs-scalar drift is bounded and checked by
  // the fuzz invariants (I7), not by goldens.
  simd::ScopedLevel scalar_level_{simd::Level::kScalar};
  Workload workload_;
  Distribution memory_;
  CostModel model_;
  Optimizer optimizer_;
};

TEST_F(SerdeGoldenTest, RequestAndResultBundleIsByteStable) {
  serde::ServeRequest request;
  request.strategy = "lec_static";
  request.workload = workload_;
  request.memory = memory_;
  OptimizeResult result = PinnedOptimize(StrategyId::kLecStatic);

  std::string out;
  serde::Writer w(&out);
  serde::Write(w, request);
  serde::Write(w, result);
  CheckGolden("serde_snapshot_v3.txt", out);
}

TEST_F(SerdeGoldenTest, GoldenBundleDeserializesAndReproducesTheObjective) {
  // Both the current bundle and the frozen version-2 one (the wire window
  // is [kMinReadVersion, kFormatVersion] = [2, 3]) must parse and replay
  // to identical bits — v2 streams simply lack the v3 trailing fields,
  // which take their defaults.
  for (const char* name : {"serde_snapshot_v3.txt", "serde_snapshot_v1.txt"}) {
    SCOPED_TRACE(name);
    std::string golden = ReadFile(GoldenPath(name));
    if (golden.empty()) GTEST_SKIP() << name << " not generated yet";
    std::istringstream in(golden);
    serde::Reader r(in);
    serde::ServeRequest request = serde::ReadServeRequest(r);
    OptimizeResult stored = serde::ReadOptimizeResult(r);

    // Re-optimizing the DESERIALIZED request must land on the stored
    // result exactly: save → load → serve reproduces identical
    // objectives/plans.
    OptimizeRequest req;
    req.query = &request.workload.query;
    req.catalog = &request.workload.catalog;
    req.model = &model_;
    req.memory = &request.memory;
    req.options = request.options;
    Optimizer optimizer;
    OptimizeResult recomputed =
        optimizer.Optimize(*ParseStrategy(request.strategy), req);
    EXPECT_EQ(recomputed.objective, stored.objective);
    EXPECT_TRUE(PlanEquals(recomputed.plan, stored.plan));
    EXPECT_EQ(recomputed.cost_evaluations, stored.cost_evaluations);
  }
}

TEST_F(SerdeGoldenTest, QuerySignatureBytesAreByteStable) {
  // The schema-v3 canonical signature, pinned raw: these bytes are the
  // plan cache's key, so any drift silently severs every warm snapshot.
  // algorithm_a and algorithm_b also pin their knob slots, which still
  // write the constant of the retired per-worker memo cache.
  const std::pair<StrategyId, const char*> kCases[] = {
      {StrategyId::kLecStatic, "query_signature_v3.bin"},
      {StrategyId::kAlgorithmA, "query_signature_v3_algorithm_a.bin"},
      {StrategyId::kAlgorithmB, "query_signature_v3_algorithm_b.bin"},
  };
  for (const auto& [id, name] : kCases) {
    SCOPED_TRACE(name);
    QuerySignature sig = QuerySignature::Compute(id, RequestFor(nullptr));
    CheckGolden(name, sig.canonical);
  }
}

TEST_F(SerdeGoldenTest, PlanCacheSnapshotIsByteStableAndServes) {
  // Entries inserted by hand with pinned wall times, so the snapshot bytes
  // are deterministic.
  PlanCache cache;
  for (StrategyId id : {StrategyId::kLecStatic, StrategyId::kAlgorithmD}) {
    cache.Insert(QuerySignature::Compute(id, RequestFor(nullptr)),
                 PinnedOptimize(id));
  }
  std::string snapshot = cache.SaveSnapshot();
  CheckGolden("plan_cache_snapshot_v3.txt", snapshot);

  // A service warm-loading the GOLDEN snapshot serves both strategies from
  // cache, bit-identically to recomputing.
  std::string golden = ReadFile(GoldenPath("plan_cache_snapshot_v3.txt"));
  if (golden.empty()) GTEST_SKIP() << "golden not generated yet";
  PlanCache warmed;
  ASSERT_EQ(warmed.LoadSnapshot(golden), 2u);
  for (StrategyId id : {StrategyId::kLecStatic, StrategyId::kAlgorithmD}) {
    OptimizeResult served = optimizer_.Optimize(id, RequestFor(&warmed));
    OptimizeResult recomputed = PinnedOptimize(id);
    EXPECT_EQ(served.objective, recomputed.objective);
    EXPECT_TRUE(PlanEquals(served.plan, recomputed.plan));
  }
  EXPECT_EQ(warmed.stats().hits, 2u);
  EXPECT_EQ(warmed.stats().misses, 0u);

  // And the reloaded cache re-saves the identical bytes (canonical entry
  // order makes snapshots a function of contents, not history).
  EXPECT_EQ(warmed.SaveSnapshot(), golden);
}

TEST_F(SerdeGoldenTest, V2SnapshotUpgradesAndKeepsServingHits) {
  // The frozen version-2 snapshot is the upgrade-path fixture: LoadSnapshot
  // runs every entry's canonical signature through
  // QuerySignature::UpgradeCanonical, so yesterday's cache must keep
  // serving today's (schema-v3) requests from warm entries — bit-identical
  // to recomputing.
  std::string old = ReadFile(GoldenPath("plan_cache_snapshot_v1.txt"));
  ASSERT_FALSE(old.empty()) << "frozen v2-era golden missing";
  PlanCache warmed;
  ASSERT_EQ(warmed.LoadSnapshot(old), 2u);
  for (StrategyId id : {StrategyId::kLecStatic, StrategyId::kAlgorithmD}) {
    OptimizeResult served = optimizer_.Optimize(id, RequestFor(&warmed));
    OptimizeResult recomputed = PinnedOptimize(id);
    EXPECT_EQ(served.objective, recomputed.objective);
    EXPECT_TRUE(PlanEquals(served.plan, recomputed.plan));
    EXPECT_EQ(served.cost_evaluations, recomputed.cost_evaluations);
  }
  EXPECT_EQ(warmed.stats().hits, 2u);
  EXPECT_EQ(warmed.stats().misses, 0u);

  // Upgraded entries re-save as EXACT current-version bytes: the upgraded
  // cache and a freshly computed one are indistinguishable on disk.
  std::string fresh = ReadFile(GoldenPath("plan_cache_snapshot_v3.txt"));
  if (!fresh.empty()) {
    EXPECT_EQ(warmed.SaveSnapshot(), fresh);
  }

  // And the raw signature upgrade is idempotent: v3 bytes pass through
  // unchanged.
  QuerySignature sig =
      QuerySignature::Compute(StrategyId::kLecStatic, RequestFor(nullptr));
  EXPECT_EQ(QuerySignature::UpgradeCanonical(sig.canonical), sig.canonical);
}

}  // namespace
}  // namespace lec
