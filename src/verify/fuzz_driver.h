// Metamorphic fuzzing of the whole optimizer stack.
//
// One fuzz round generates a seeded workload (one of the five
// JoinGraphShapes, both uncertainty axes — selectivity spread and table
// size spread — plus a seeded memory distribution and Markov chain) and
// checks an invariant catalog that needs no reference implementation to
// know the answer:
//
//   I1 oracle-optimality  — the exact DP families (lsc, lec_static,
//      lec_dynamic) must hit the exhaustive oracle's optimum; A/B/D must
//      score >= it (true regret is nonnegative) and their stated objective
//      must agree with re-scoring their plan on equal terms.
//   I2 degeneration       — collapsing the memory distribution to its mean
//      must collapse lec_static onto lsc; with both spread axes at 1,
//      algorithm_d must collapse onto lec_static (spread→1 converges to
//      LSC through that chain).
//   I3 mixture linearity  — EC under w·D + (1−w)·point(mean) must equal
//      w·EC_D + (1−w)·C(p, mean) exactly (linearity of expectation over
//      mixtures): the metamorphic form of "EC degenerates continuously".
//   I4 rebucketing        — size-distribution propagation up the whole
//      plan conserves probability mass and the mean (product of means
//      under independence), and its support stays inside the exact
//      min/max envelope.
//   I5 facade parity      — facade dispatch matches the direct entry
//      point, bit for bit (objective and plan). Worker-count invariance of
//      served results is I10's.
//   I7 kernel parity      — the §3.6 linear-time EC sweeps (the
//      threshold-swept fast-EC kernels of dist/kernel.h) agree with the
//      paper's EC definition, the naive triple enumeration
//      ExpectedJoinCost, within kKernelParityRelTol: operator by operator
//      on the case's own distributions, and end to end through Algorithm
//      D (use_fast_ec on vs off: objectives within the bound, and the two
//      chosen plans re-scored equal by PlanExpectedCostMultiParam — plan
//      structure is not compared, since true ties may resolve either way).
//      Also holds the SIMD-dispatched lec_static DP to its scalar-pinned
//      twin within the same tolerance (dist/simd.h reassociation
//      contract).
//   I9 pruning parity     — the cost-bounded DP (dp_pruning = kOn) must
//      return a bit-identical objective and structurally identical plan
//      to the unpruned RunDp, for lsc, lec_static AND lec_dynamic (whose
//      loose floors kOn force-enables), while examining no MORE work than
//      the unpruned run: candidate and cost-evaluation counters bounded
//      per phase, pruning counters zero when disabled. The unpruned DP's
//      own objectives, plans and counters are pinned by I1 (optimality)
//      and tests/golden/dp_counters.txt (bits at n = 10, 19, 20).
//   I8 serde/cache parity — optimizing a request after a serialization
//      round trip (service/serde.h, both encodings) equals optimizing the
//      original, bit for bit; a PlanCache miss, the hit it enables, and a
//      hit served from a save→load snapshot all equal the uncached run
//      (elapsed_seconds excepted by the cache contract). With rewrite_mode
//      on, a repeat (a request-memo hit), a relabeling and a twin with one
//      filter perturbed, served through one cache, each equal their
//      uncached run, position map included.
//   I10 serve pipeline    — replaying a duplicate-bearing corpus through
//      the async ServePipeline (coalescing on, worker count rotated
//      1/2/4 by seed, shared plan cache) serves every outcome
//      bit-identical to a sequential facade run; the zero-budget leg
//      degrades every serve to exactly a facade run of the fallback
//      strategy; pipeline stats conserve submissions; and the socket
//      wire framing (service/wire_server.h) round-trips the request
//      canonically and serves reference bits through a real socket.
//   I11 measured stats    — materializing a scaled-down instance of the
//      case's workload and sketching its real rows (src/stats/) yields
//      valid normalized Distributions whose moments track exact ground
//      truth within the sketches' documented CI bounds: the derived size
//      mean within sigma·1.04/sqrt(m) of the true page count (HLL), the
//      derived selectivity mean never below the true selectivity and at
//      most the one-sided CMS CI above it; derivation is byte-
//      deterministic. And precise invalidation is exact: after a data
//      drift re-derives one relation's distributions, invalidating the
//      replaced ContentHashes drops exactly the cached plans that
//      consumed them, while every surviving entry still replays
//      bit-identical to a fresh optimize.
//   I12 plan execution    — on chain cases, a scaled-down materialized
//      instance executes through the real storage/ operators
//      (exec/plan_executor.h): the LSC-chosen plan, and the forward plan
//      under every join method across spill regimes, all reproduce the
//      NaiveJoinReference answer as an exact payload multiset (payloads are
//      an order-invariant lineage fingerprint), with per-phase traces
//      conserving total charged I/O; and the adaptive leg — stale
//      estimates, zero drift threshold, re-optimization on — still executes
//      exactly n-1 joins and the identical multiset: re-planning the tail
//      may reroute it but can never change the answer.
//   I13 rewrite preservation — the logical rewrite layer (rewrite/
//      rewrite.h) on a structure-varying workload (redundant parallel
//      edges, per-table filters, optionally a disconnected join graph —
//      knobs derived from the seed): each pass alone AND the full standard
//      pipeline may never increase the exhaustive oracle's optimum
//      (optimize(rewrite(Q)) <= optimize(Q) under kLecStatic, up to
//      kOracleRelTol); on chain cases the redundant-merge rewrite is
//      executed for real — the DP plan of the merged query and the DP plan
//      of the raw duplicate-edge query both reproduce the naive reference
//      answer as an exact payload multiset on the same physical data; and
//      a relabeled duplicate served through the facade with rewrite_mode
//      on and a shared PlanCache replays bit-identical to an uncached
//      rewrite-on optimize, hitting the first request's entry whenever the
//      canonical position keys are pairwise distinct.
//   I6 Monte-Carlo        — sampled executions agree with the analytic EC
//      in the static and Markov-dynamic regimes: a violation is a 99.9%
//      CLT-interval miss that is ALSO materially far from the mean
//      (> 0.5% relative) and survives a 16x-escalated resample. Skewed
//      cost distributions under-cover at small N, so a bare interval miss
//      is a statistical event, not a bug signal; the strict Covers()
//      contract is exercised deterministically in tests/verify_mc_test.cc
//      and bench_verify_regret.
//
// Every violation carries the self-contained FuzzCase seed; `verify_repro
// <seed>` (tools/) rebuilds the exact workload and re-runs the catalog
// with full diagnostics.
#ifndef LECOPT_VERIFY_FUZZ_DRIVER_H_
#define LECOPT_VERIFY_FUZZ_DRIVER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/markov.h"
#include "query/generator.h"

namespace lec::verify {

/// The seeded memory environment one fuzz round (and the E17 regret bench)
/// hedges against: a handful of log-spaced memory buckets with random mass
/// plus a drift chain over the same support. One recipe, shared, so the
/// bench exercises exactly the world the fuzz invariants certify.
struct MemoryEnvironment {
  Distribution memory = Distribution::PointMass(0);
  MarkovChain chain = MarkovChain::Static({0});
};

/// Draws the environment from `rng`: 3-5 log-uniform bucket values in
/// [16, 4096] with Uniform(0.1, 1) mass, and a Drift chain with
/// p_stay ~ Uniform(0.3, 0.9). Deterministic given the Rng state.
MemoryEnvironment MakeMemoryEnvironment(Rng* rng);

/// Everything needed to rebuild one fuzz round from scratch: the workload
/// options that matter plus the master seed (which also derives the memory
/// distribution and the Markov chain). Encode/Decode round-trip exactly.
struct FuzzCase {
  uint64_t seed = 1;
  JoinGraphShape shape = JoinGraphShape::kChain;
  int num_tables = 4;
  double selectivity_spread = 1.0;  ///< 1 = certain; >1 three-point spread
  double table_size_spread = 1.0;
  bool order_by = false;  ///< query carries an ORDER BY

  /// "f1:<shape>:<n>:<seed>:<sel_spread>:<size_spread>:<order_by>", e.g.
  /// "f1:star:5:12345:3:1:1". Stable across releases — stored seeds from
  /// CI artifacts must keep replaying.
  std::string Encode() const;
  /// Inverse of Encode; nullopt on malformed input — including numeric
  /// fields with trailing junk, spreads below 1, and table counts outside
  /// [2, 8] (the exhaustive-oracle ceiling the invariants rely on).
  static std::optional<FuzzCase> Decode(std::string_view text);
};

/// One failed invariant, with the case that triggered it.
struct FuzzViolation {
  FuzzCase fuzz_case;
  std::string invariant;  ///< catalog id, e.g. "I1:lec_static_oracle"
  std::string detail;     ///< human-readable mismatch description
};

struct FuzzOptions {
  int rounds = 50;
  uint64_t base_seed = 20260729;
  /// Run the Monte-Carlo CI invariant (I6); the most expensive check.
  bool check_mc = true;
  size_t mc_samples = 400;
  /// Diagnostics sink: when true CheckCase stops at the first violation
  /// of a case instead of collecting all of them.
  bool stop_on_first = false;
};

struct FuzzReport {
  int rounds_run = 0;
  size_t invariants_checked = 0;
  std::vector<FuzzViolation> violations;
};

/// Rebuilds the case's workload/distributions and runs the invariant
/// catalog against it. `invariants_checked` (optional) accumulates how
/// many individual checks ran.
std::vector<FuzzViolation> CheckCase(const FuzzCase& fuzz_case,
                                     const FuzzOptions& options,
                                     size_t* invariants_checked = nullptr);

/// Derives `options.rounds` cases spanning all five shapes and both spread
/// axes from `base_seed` and checks each. Deterministic: the same options
/// always fuzz the same cases.
FuzzReport RunFuzz(const FuzzOptions& options);

/// The deterministic case schedule RunFuzz walks, exposed for tools and
/// tests (round i of base_seed s is CaseForRound(s, i)).
FuzzCase CaseForRound(uint64_t base_seed, int round);

/// Human-readable description of the case's world for repro diagnostics:
/// the generated query shape, the memory environment, the static oracle's
/// optimum / spectrum width, and each core strategy's objective. Expensive
/// (one exhaustive solve); intended for `verify_repro`, not hot loops.
std::string DescribeCase(const FuzzCase& fuzz_case);

}  // namespace lec::verify

#endif  // LECOPT_VERIFY_FUZZ_DRIVER_H_
