// The serde round-trip contract: Read(Write(x)) == x with bit-identical
// doubles, in both encodings, and strict rejection of malformed input
// (NaN/inf where finiteness is an invariant, zero-mass buckets,
// denormalized probabilities, truncation, version skew).
#include "service/serde.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "optimizer/algorithm_d.h"
#include "optimizer/optimizer.h"
#include "query/generator.h"
#include "util/rng.h"

namespace lec {
namespace {

using serde::Encoding;
using serde::FromString;
using serde::Reader;
using serde::SerdeError;
using serde::ServeRequest;
using serde::ToString;
using serde::Writer;

const Encoding kBothEncodings[] = {Encoding::kText, Encoding::kBinary};

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// -- Distributions ----------------------------------------------------------

TEST(SerdeDistributionTest, RoundTripIsBitIdenticalInBothEncodings) {
  Distribution d({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  for (Encoding enc : kBothEncodings) {
    Distribution back = FromString<Distribution>(ToString(d, enc));
    EXPECT_EQ(back, d);
    EXPECT_EQ(back.ContentHash(), d.ContentHash());
  }
}

TEST(SerdeDistributionTest, NonDyadicProbabilitiesRoundTripExactly) {
  // 1/3-ish masses whose normalized doubles are NOT exactly representable;
  // the validating constructor would re-divide and perturb them, the
  // trusted materializer must not.
  Distribution d({{1.0, 1.0}, {2.0, 1.0}, {7.5, 1.0}});
  for (Encoding enc : kBothEncodings) {
    Distribution back = FromString<Distribution>(ToString(d, enc));
    ASSERT_EQ(back.size(), d.size());
    for (size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(Bits(back.bucket(i).value), Bits(d.bucket(i).value)) << i;
      EXPECT_EQ(Bits(back.bucket(i).prob), Bits(d.bucket(i).prob)) << i;
    }
  }
}

TEST(SerdeDistributionTest, DenormalDustRoundTrips) {
  // A subnormal value, and a probability far below the validating
  // constructor's 1e-12 dust threshold. Such buckets can't come from the
  // constructor but CAN come from the §3.6 product kernels (probs
  // multiply), so serialized snapshots may legitimately carry them and
  // serde must round-trip them exactly — hex-float text included.
  double denormal = 4.9406564584124654e-324;  // smallest positive double
  double tiny = 1e-300;
  double values[] = {denormal, 1.0};
  double probs[] = {tiny, 1.0};  // sums to 1.0 exactly (tiny is absorbed)
  Distribution d = Distribution::FromNormalizedView(DistView{values, probs, 2});
  for (Encoding enc : kBothEncodings) {
    Distribution back = FromString<Distribution>(ToString(d, enc));
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(Bits(back.bucket(0).value), Bits(denormal));
    EXPECT_EQ(Bits(back.bucket(0).prob), Bits(tiny));
    EXPECT_EQ(back.ContentHash(), d.ContentHash());
  }
}

TEST(SerdeDistributionTest, RandomDistributionsRoundTripExactly) {
  Rng rng(20260729);
  for (int round = 0; round < 200; ++round) {
    std::vector<Bucket> buckets;
    int n = static_cast<int>(rng.UniformInt(1, 12));
    for (int i = 0; i < n; ++i) {
      buckets.push_back({rng.Uniform(-1e6, 1e6), rng.Uniform(0.01, 1.0)});
    }
    Distribution d(std::move(buckets));
    Encoding enc = round % 2 == 0 ? Encoding::kText : Encoding::kBinary;
    Distribution back = FromString<Distribution>(ToString(d, enc));
    ASSERT_EQ(back, d) << "round " << round;
    ASSERT_EQ(back.ContentHash(), d.ContentHash()) << "round " << round;
  }
}

TEST(SerdeDistributionTest, TextEncodingUsesHexFloats) {
  std::string text = ToString(Distribution::PointMass(0.1));
  EXPECT_NE(text.find("0x1."), std::string::npos) << text;
}

/// Tokenized text for one crafted "dist" payload, with a valid header.
std::string CraftedDist(const std::string& body) {
  return "lecser text 3 \ndist " + body;
}

TEST(SerdeDistributionTest, RejectsNaNValue) {
  EXPECT_THROW(FromString<Distribution>(CraftedDist("1 nan 0x1p+0 ")),
               SerdeError);
}

TEST(SerdeDistributionTest, RejectsInfiniteValue) {
  EXPECT_THROW(FromString<Distribution>(CraftedDist("1 inf 0x1p+0 ")),
               SerdeError);
}

TEST(SerdeDistributionTest, RejectsNaNProbability) {
  EXPECT_THROW(FromString<Distribution>(CraftedDist("1 0x1p+0 nan ")),
               SerdeError);
}

TEST(SerdeDistributionTest, RejectsZeroMassBucket) {
  // 0.5 + 0.5 + a zero-mass bucket: the in-memory type drops zero-mass
  // buckets at construction, so serialized bytes containing one are
  // corrupt by definition.
  EXPECT_THROW(
      FromString<Distribution>(
          CraftedDist("3 0x1p+0 0x1p-1 0x1p+1 0x0p+0 0x1p+2 0x1p-1 ")),
      SerdeError);
}

TEST(SerdeDistributionTest, RejectsNegativeProbability) {
  EXPECT_THROW(
      FromString<Distribution>(
          CraftedDist("2 0x1p+0 0x1.8p+0 0x1p+1 -0x1p-1 ")),
      SerdeError);
}

TEST(SerdeDistributionTest, RejectsNonAscendingValues) {
  EXPECT_THROW(
      FromString<Distribution>(
          CraftedDist("2 0x1p+1 0x1p-1 0x1p+0 0x1p-1 ")),
      SerdeError);
}

TEST(SerdeDistributionTest, RejectsDenormalizedMass) {
  // Probabilities summing to 0.75: not a normalized distribution.
  EXPECT_THROW(
      FromString<Distribution>(
          CraftedDist("2 0x1p+0 0x1p-1 0x1p+1 0x1p-2 ")),
      SerdeError);
}

TEST(SerdeDistributionTest, RejectsEmptyDistribution) {
  EXPECT_THROW(FromString<Distribution>(CraftedDist("0 ")), SerdeError);
}

// -- Stream framing ---------------------------------------------------------

TEST(SerdeFramingTest, RejectsBadMagic) {
  EXPECT_THROW(FromString<Distribution>("wrong text 1 \ndist 1 0x1p+0 "),
               SerdeError);
}

TEST(SerdeFramingTest, RejectsUnknownEncoding) {
  EXPECT_THROW(FromString<Distribution>("lecser gzip 1 \ndist "), SerdeError);
}

TEST(SerdeFramingTest, RejectsFutureVersion) {
  EXPECT_THROW(FromString<Distribution>("lecser text 999 \ndist 1 0x1p+0 "),
               SerdeError);
}

TEST(SerdeFramingTest, RejectsPreWindowVersion) {
  // Version 1 predates kMinReadVersion: streams that old are refused
  // outright rather than misparsed.
  EXPECT_THROW(FromString<Distribution>("lecser text 1 \ndist 1 0x1p+0 "),
               SerdeError);
}

TEST(SerdeFramingTest, RejectsTruncatedInput) {
  // (Cutting only the final separator space would still parse — tokens
  // self-delimit at EOF — so every cut here lands inside a token or
  // removes one entirely.)
  std::string full = ToString(Distribution({{1, 0.5}, {2, 0.5}}));
  for (size_t cut : {full.size() - 3, full.size() - 8, full.size() / 2}) {
    EXPECT_THROW(FromString<Distribution>(full.substr(0, cut)), SerdeError)
        << "cut at " << cut;
  }
}

TEST(SerdeFramingTest, RejectsTruncatedBinaryInput) {
  std::string full =
      ToString(Distribution({{1, 0.5}, {2, 0.5}}), Encoding::kBinary);
  EXPECT_THROW(FromString<Distribution>(full.substr(0, full.size() - 3)),
               SerdeError);
}

TEST(SerdeFramingTest, RejectsWrongTag) {
  std::string bytes = ToString(Distribution::PointMass(1));
  EXPECT_THROW(FromString<Query>(bytes), SerdeError);
}

TEST(SerdeFramingTest, RejectsNumericTokenWithTrailingJunk) {
  EXPECT_THROW(FromString<Distribution>(CraftedDist("1x 0x1p+0 0x1p+0 ")),
               SerdeError);
}

// -- Markov chains ----------------------------------------------------------

TEST(SerdeMarkovTest, DriftChainRoundTripsBitIdentically) {
  MarkovChain chain = MarkovChain::Drift({64, 512, 4096}, 0.6);
  for (Encoding enc : kBothEncodings) {
    MarkovChain back = FromString<MarkovChain>(ToString(chain, enc));
    ASSERT_EQ(back.states(), chain.states());
    ASSERT_EQ(back.transition().size(), chain.transition().size());
    for (size_t i = 0; i < chain.transition().size(); ++i) {
      for (size_t j = 0; j < chain.transition()[i].size(); ++j) {
        EXPECT_EQ(Bits(back.transition()[i][j]),
                  Bits(chain.transition()[i][j]))
            << i << "," << j;
      }
    }
  }
}

TEST(SerdeMarkovTest, NormalizedNonDyadicRowsRoundTripBitIdentically) {
  // Rows built from weights 1:1:1 normalize to thirds — values the
  // validating constructor could not reproduce from their own serialized
  // form (renormalizing perturbs them). FromNormalizedRows must.
  MarkovChain chain({1, 2, 3}, {{1, 1, 1}, {2, 1, 1}, {0, 1, 3}});
  std::string bytes = ToString(chain);
  MarkovChain back = FromString<MarkovChain>(bytes);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(Bits(back.transition()[i][j]), Bits(chain.transition()[i][j]));
    }
  }
  // And the round trip is a fixed point: serialize(deserialize(b)) == b.
  EXPECT_EQ(ToString(back), bytes);
}

TEST(SerdeMarkovTest, RejectsDenormalizedRow) {
  EXPECT_THROW(
      FromString<MarkovChain>(
          "lecser text 3 \nmarkov 2 0x1p+0 0x1p+1 "
          "0x1p-1 0x1p-1 0x1p-2 0x1p-2 "),
      SerdeError);
}

TEST(SerdeMarkovTest, RejectsNegativeEntry) {
  EXPECT_THROW(
      FromString<MarkovChain>(
          "lecser text 3 \nmarkov 2 0x1p+0 0x1p+1 "
          "0x1.8p+0 -0x1p-1 0x0p+0 0x1p+0 "),
      SerdeError);
}

// -- Catalog / Query / Workload --------------------------------------------

Workload MakeTestWorkload(uint64_t seed, double sel_spread,
                          double size_spread, double order_by) {
  Rng rng(seed);
  WorkloadOptions wopts;
  wopts.num_tables = 5;
  wopts.shape = JoinGraphShape::kCycle;
  wopts.selectivity_spread = sel_spread;
  wopts.table_size_spread = size_spread;
  wopts.order_by_probability = order_by;
  return GenerateWorkload(wopts, &rng);
}

void ExpectWorkloadsEqual(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.catalog.size(), b.catalog.size());
  for (size_t i = 0; i < a.catalog.size(); ++i) {
    const Table& ta = a.catalog.table(static_cast<TableId>(i));
    const Table& tb = b.catalog.table(static_cast<TableId>(i));
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(Bits(ta.pages), Bits(tb.pages));
    EXPECT_EQ(Bits(ta.rows_per_page), Bits(tb.rows_per_page));
    ASSERT_EQ(ta.pages_dist.has_value(), tb.pages_dist.has_value());
    if (ta.pages_dist) {
      EXPECT_EQ(*ta.pages_dist, *tb.pages_dist);
    }
  }
  ASSERT_EQ(a.query.num_tables(), b.query.num_tables());
  for (QueryPos p = 0; p < a.query.num_tables(); ++p) {
    EXPECT_EQ(a.query.table(p), b.query.table(p));
  }
  ASSERT_EQ(a.query.num_predicates(), b.query.num_predicates());
  for (int i = 0; i < a.query.num_predicates(); ++i) {
    EXPECT_EQ(a.query.predicate(i).left, b.query.predicate(i).left);
    EXPECT_EQ(a.query.predicate(i).right, b.query.predicate(i).right);
    EXPECT_EQ(a.query.predicate(i).selectivity,
              b.query.predicate(i).selectivity);
  }
  EXPECT_EQ(a.query.required_order(), b.query.required_order());
}

TEST(SerdeWorkloadTest, GeneratedWorkloadsRoundTripInBothEncodings) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    Workload w = MakeTestWorkload(seed, 3.0, 2.0, seed % 2 ? 1.0 : 0.0);
    for (Encoding enc : kBothEncodings) {
      Workload back = FromString<Workload>(ToString(w, enc));
      ExpectWorkloadsEqual(w, back);
    }
  }
}

TEST(SerdeWorkloadTest, RejectsQueryReferencingUnknownTable) {
  Workload w = MakeTestWorkload(3, 1.0, 1.0, 0.0);
  Query oversized;
  for (QueryPos p = 0; p < w.query.num_tables(); ++p) {
    oversized.AddTable(w.query.table(p));
  }
  oversized.AddTable(static_cast<TableId>(w.catalog.size() + 5));
  oversized.AddPredicate(0, w.query.num_tables(), 0.5);
  Workload bad;
  bad.catalog = w.catalog;
  bad.query = oversized;
  EXPECT_THROW(FromString<Workload>(ToString(bad)), SerdeError);
}

TEST(SerdeQueryTest, RejectsPredicateEndpointOutOfRange) {
  std::string out;
  Writer w(&out);
  w.Tag("query");
  w.U64(2);
  w.I32(0);
  w.I32(1);
  w.U64(1);     // one predicate ...
  w.I32(0);
  w.I32(7);     // ... whose right endpoint names a nonexistent position
  serde::Write(w, Distribution::PointMass(0.5));
  w.Bool(false);
  EXPECT_THROW(FromString<Query>(out), SerdeError);
}

// -- Plans and results ------------------------------------------------------

TEST(SerdePlanTest, OptimizedPlanRoundTripsStructurally) {
  Workload w = MakeTestWorkload(11, 3.0, 2.0, 1.0);
  CostModel model;
  Distribution memory({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  Optimizer optimizer;
  OptimizeRequest req;
  req.query = &w.query;
  req.catalog = &w.catalog;
  req.model = &model;
  req.memory = &memory;
  for (StrategyId id :
       {StrategyId::kLecStatic, StrategyId::kAlgorithmD,
        StrategyId::kBushyLec}) {
    OptimizeResult result = optimizer.Optimize(id, req);
    ASSERT_NE(result.plan, nullptr);
    for (Encoding enc : kBothEncodings) {
      PlanPtr back = FromString<PlanPtr>(ToString(result.plan, enc));
      EXPECT_TRUE(PlanEquals(back, result.plan));
      EXPECT_EQ(Bits(back->est_pages), Bits(result.plan->est_pages));
    }
  }
}

TEST(SerdePlanTest, NullPlanRoundTrips) {
  PlanPtr null;
  for (Encoding enc : kBothEncodings) {
    EXPECT_EQ(FromString<PlanPtr>(ToString(null, enc)), nullptr);
  }
}

TEST(SerdeResultTest, OptimizeResultRoundTripsBitIdentically) {
  Workload w = MakeTestWorkload(13, 3.0, 2.0, 0.0);
  CostModel model;
  Distribution memory({{64, 0.5}, {4096, 0.5}});
  Optimizer optimizer;
  OptimizeRequest req;
  req.query = &w.query;
  req.catalog = &w.catalog;
  req.model = &model;
  req.memory = &memory;
  OptimizeResult result = optimizer.Optimize(StrategyId::kLecStatic, req);
  for (Encoding enc : kBothEncodings) {
    OptimizeResult back = FromString<OptimizeResult>(ToString(result, enc));
    EXPECT_EQ(Bits(back.objective), Bits(result.objective));
    EXPECT_EQ(back.candidates_considered, result.candidates_considered);
    EXPECT_EQ(back.cost_evaluations, result.cost_evaluations);
    EXPECT_EQ(Bits(back.elapsed_seconds), Bits(result.elapsed_seconds));
    EXPECT_EQ(back.candidates_by_phase, result.candidates_by_phase);
    EXPECT_TRUE(PlanEquals(back.plan, result.plan));
  }
}

// -- ServeRequest -----------------------------------------------------------

TEST(SerdeServeRequestTest, RoundTripsWithChainAndKnobs) {
  ServeRequest request;
  request.strategy = "lec_dynamic";
  request.workload = MakeTestWorkload(17, 3.0, 1.0, 1.0);
  request.memory = Distribution({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  request.chain = MarkovChain::Drift({64, 512, 4096}, 0.7);
  request.options.consider_sort_enforcers = true;
  request.options.size_buckets = 13;
  request.top_c = 5;
  request.seed = 99;
  for (Encoding enc : kBothEncodings) {
    ServeRequest back = FromString<ServeRequest>(ToString(request, enc));
    EXPECT_EQ(back.strategy, request.strategy);
    ExpectWorkloadsEqual(back.workload, request.workload);
    EXPECT_EQ(back.memory, request.memory);
    ASSERT_TRUE(back.chain.has_value());
    EXPECT_EQ(back.chain->states(), request.chain->states());
    EXPECT_EQ(back.options.consider_sort_enforcers, true);
    EXPECT_EQ(back.options.size_buckets, 13u);
    EXPECT_EQ(back.top_c, 5u);
    EXPECT_EQ(back.seed, 99u);
  }
}

TEST(SerdeServeRequestTest, RetiredDistKernelsSlotIsReadAndIgnored) {
  // Wire v3 still carries the bool of the retired dist-kernels option.
  // Writers always put true there; a stream carrying false (from a build
  // that still had the option) must decode and optimize exactly like the
  // same request carrying true.
  ServeRequest request;
  request.strategy = "algorithm_d";
  request.workload = MakeTestWorkload(29, 3.0, 2.0, 1.0);
  request.memory = Distribution({{64, 0.25}, {512, 0.5}, {4096, 0.25}});
  std::string with_true = ToString(request, Encoding::kText);

  // Text layout: "options <n> <method>*n <avoid_cross> <enforcers>
  // <size_buckets> <size_mode> <use_fast_ec> <retired slot> ...".
  size_t line = with_true.find("\noptions ");
  ASSERT_NE(line, std::string::npos);
  std::istringstream tokens(with_true.substr(line + 1));
  std::string tok;
  tokens >> tok;  // "options"
  size_t methods = 0;
  tokens >> methods;
  for (size_t i = 0; i < methods + 5; ++i) tokens >> tok;
  size_t slot = line + 1 + static_cast<size_t>(tokens.tellg()) + 1;
  ASSERT_EQ(with_true.substr(slot, 2), "1 ");
  std::string with_false = with_true;
  with_false[slot] = '0';

  ServeRequest a = FromString<ServeRequest>(with_true);
  ServeRequest b = FromString<ServeRequest>(with_false);
  // The slot leaves no trace: both re-encode to the writer's bytes.
  EXPECT_EQ(ToString(b, Encoding::kText), with_true);
  CostModel model;
  OptimizeResult ra = OptimizeAlgorithmD(a.workload.query, a.workload.catalog,
                                         model, a.memory, a.options);
  OptimizeResult rb = OptimizeAlgorithmD(b.workload.query, b.workload.catalog,
                                         model, b.memory, b.options);
  EXPECT_EQ(Bits(ra.objective), Bits(rb.objective));
  EXPECT_TRUE(PlanEquals(ra.plan, rb.plan));
  EXPECT_EQ(ra.candidates_considered, rb.candidates_considered);
  EXPECT_EQ(ra.cost_evaluations, rb.cost_evaluations);
}

TEST(SerdeServeRequestTest, RejectsUnknownStrategy) {
  ServeRequest request;
  request.strategy = "lec_static";
  request.workload = MakeTestWorkload(19, 1.0, 1.0, 0.0);
  std::string bytes = ToString(request);
  size_t pos = bytes.find("lec_static");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 10, "lec_rococo");
  EXPECT_THROW(FromString<ServeRequest>(bytes), SerdeError);
}

TEST(SerdeServeRequestTest, RejectsLecDynamicWithoutChain) {
  ServeRequest request;
  request.strategy = "lec_dynamic";
  request.workload = MakeTestWorkload(23, 1.0, 1.0, 0.0);
  request.chain.reset();
  EXPECT_THROW(FromString<ServeRequest>(ToString(request)), SerdeError);
}

// -- Reader header handoff (the lec_serve REPL path) ------------------------

TEST(SerdeReaderTest, HeaderConsumedModeResumesAfterMagicWord) {
  Distribution d({{1, 0.5}, {2, 0.5}});
  std::string bytes = ToString(d);
  std::istringstream in(bytes);
  std::string magic;
  in >> magic;
  ASSERT_EQ(magic, "lecser");
  Reader r(in, Reader::kHeaderConsumed);
  EXPECT_EQ(serde::ReadDistribution(r), d);
}

}  // namespace
}  // namespace lec
