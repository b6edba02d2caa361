// Versioned serialization for the serving layer.
//
// The plan cache (service/plan_cache.h) and the lec_serve front-end need
// three things a live process does not: requests that cross a process
// boundary, snapshots that survive a restart, and canonical bytes to key a
// cache on. This module provides all three from ONE schema: every
// serializable type has a single Write/Read pair written against the
// Writer/Reader token interface, and the interface has two encodings —
//
//   * kText    — whitespace-separated tokens with field tags; doubles are
//                C hex-floats ("0x1.91eb851eb851fp+1"), which strtod parses
//                back to the identical bit pattern. Human-diffable, stable,
//                the format of golden snapshots and canonical signatures.
//   * kBinary  — the same token stream with fixed-width little-endian
//                integers and raw IEEE-754 bit patterns. Densest framing
//                for large snapshot files.
//
// Both encodings open with the magic word "lecser", the encoding name and
// kFormatVersion, so a Reader sniffs the encoding and rejects files from an
// incompatible future format instead of misparsing them.
//
// Round-trip contract (pinned by tests/serde_test.cc and the golden
// stability test): Read(Write(x)) == x with BIT-IDENTICAL doubles.
// Distributions are re-materialized through Distribution::
// FromNormalizedView — not the validating constructor, whose renormalizing
// division could perturb low-order bits — after this module re-checks the
// full normalization contract (finite strictly-ascending values, positive
// probabilities summing to ~1). Malformed input of any kind throws
// SerdeError; NaN/inf doubles are rejected wherever the target type's
// invariants demand finite values.
#ifndef LECOPT_SERVICE_SERDE_H_
#define LECOPT_SERVICE_SERDE_H_

#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "catalog/catalog.h"
#include "dist/markov.h"
#include "optimizer/optimizer.h"
#include "query/generator.h"
#include "query/query.h"

namespace lec::serde {

/// Any malformed input: bad magic, version skew, truncation, type-tag
/// mismatch, or a value violating the target type's invariants.
class SerdeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The version this build writes. Readers accept [kMinReadVersion,
/// kFormatVersion]: version 3 only ADDED optional trailing fields to two
/// types, so version-2 streams still parse exactly (the absent fields take
/// their defaults — rewrite off, no filters). Anything else is rejected —
/// snapshots are re-built, never half-parsed.
// Version history: 1 — initial; 2 — OptimizerOptions grew simd_mode and
// dp_pruning, OptimizeResult grew the four branch-and-bound counters;
// 3 — Query grew local filter predicates, OptimizerOptions grew
// rewrite_mode (and QuerySignature moved to schema v3 in lockstep —
// service/plan_cache.cc upgrades v2 signatures on snapshot load).
inline constexpr uint32_t kFormatVersion = 3;
inline constexpr uint32_t kMinReadVersion = 2;

/// Stream framing; see the header comment.
enum class Encoding { kText, kBinary };

/// Token sink. Construction appends the stream header to `*out`
/// (borrowed; must outlive the Writer); the per-type Write functions below
/// append tagged tokens. One Writer per stream. Appending to a string, not
/// an ostream, keeps the iostream layer off every token: signatures,
/// request keys and wire payloads are all built as whole strings.
class Writer {
 public:
  explicit Writer(std::string* out, Encoding encoding = Encoding::kText);

  Encoding encoding() const { return encoding_; }

  /// Structural tag ("dist", "query", ...); Reader::ExpectTag verifies it.
  void Tag(std::string_view tag);
  void Bool(bool v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v);
  /// Bit-exact: hex-float in text, raw IEEE bits in binary.
  void F64(double v);
  /// Length-prefixed; arbitrary bytes are safe in both encodings.
  void Str(std::string_view s);

 private:
  void Put(const char* data, size_t n) { out_->append(data, n); }
  void Put(char c) { out_->push_back(c); }
  /// Text-encoding integer token: decimal digits, then a space.
  template <typename Int>
  void PutDecimal(Int v);

  std::string* out_;
  Encoding encoding_;
};

/// Token source. Construction reads and validates the stream header
/// (throwing SerdeError on unknown magic/encoding/version); the per-type
/// Read functions below consume tagged tokens. Pass kHeaderConsumed when
/// the caller already read the magic word off the stream (the lec_serve
/// REPL does, to distinguish serialized requests from commands) — the
/// Reader then consumes only the encoding word and version.
class Reader {
 public:
  enum MagicState { kReadHeader, kHeaderConsumed };

  explicit Reader(std::istream& in, MagicState magic = kReadHeader);
  /// Reads one whole in-memory stream (borrowed; must outlive the Reader)
  /// with the same grammar and errors, without an istream or a copy.
  explicit Reader(std::string_view bytes);

  Encoding encoding() const { return encoding_; }
  /// The stream's declared format version (in [kMinReadVersion,
  /// kFormatVersion]); version-gated fields consult this.
  uint32_t version() const { return version_; }

  /// Consumes one tag token and throws unless it equals `tag`.
  void ExpectTag(std::string_view tag);
  /// Consumes one tag token (for callers that dispatch on it).
  std::string ReadTag();
  bool Bool();
  uint32_t U32();
  uint64_t U64();
  int32_t I32();
  double F64();
  std::string Str();

 private:
  void Header(MagicState magic);
  [[noreturn]] void Fail(const std::string& what) const;
  /// One whitespace-delimited word (istream >> std::string), uncounted;
  /// false at end of input.
  bool Word(std::string* out);
  std::string NextToken();
  void ReadRaw(char* buf, size_t n);
  /// Consumes one byte, whatever it is, if there is one (istream::get).
  void SkipByte();

  std::istream* in_ = nullptr;
  std::string_view bytes_;
  size_t pos_ = 0;
  Encoding encoding_ = Encoding::kText;
  uint32_t version_ = kFormatVersion;
  size_t tokens_read_ = 0;
};

// ---------------------------------------------------------------------------
// Per-type serializers. Each pair round-trips exactly; each Read validates
// the type's invariants and throws SerdeError on violation.
// ---------------------------------------------------------------------------

void Write(Writer& w, const Distribution& d);
Distribution ReadDistribution(Reader& r);

void Write(Writer& w, const MarkovChain& chain);
MarkovChain ReadMarkovChain(Reader& r);

void Write(Writer& w, const Catalog& catalog);
Catalog ReadCatalog(Reader& r);

void Write(Writer& w, const Query& query);
Query ReadQuery(Reader& r);

void Write(Writer& w, const Workload& workload);
Workload ReadWorkload(Reader& r);

/// Plans serialize recursively; a null PlanPtr round-trips as null.
void Write(Writer& w, const PlanPtr& plan);
PlanPtr ReadPlan(Reader& r);

void Write(Writer& w, const OptimizeResult& result);
OptimizeResult ReadOptimizeResult(Reader& r);

/// The result-affecting OptimizerOptions fields (everything except the
/// borrowed cache/arena pointers, which are process-local by nature and
/// re-injected by the serving process).
void Write(Writer& w, const OptimizerOptions& options);
OptimizerOptions ReadOptimizerOptions(Reader& r);

/// One self-contained optimization request as served by tools/lec_serve: a
/// workload, the memory environment, the strategy, and every strategy knob
/// OptimizeRequest carries. `chain` is required by lec_dynamic and
/// optional elsewhere.
struct ServeRequest {
  std::string strategy = "lec_static";
  Workload workload;
  Distribution memory = Distribution::PointMass(1);
  std::optional<MarkovChain> chain;
  OptimizerOptions options;
  PointEstimate lsc_estimate = PointEstimate::kMean;
  uint64_t top_c = 3;
  uint64_t seed = 20260729;
  int32_t randomized_restarts = 8;
  int32_t randomized_patience = 2;
  int32_t sample_predicate = 0;
};

void Write(Writer& w, const ServeRequest& request);
ServeRequest ReadServeRequest(Reader& r);

// ---------------------------------------------------------------------------
// String convenience wrappers (one whole stream per string).
// ---------------------------------------------------------------------------

template <typename T>
std::string ToString(const T& value, Encoding encoding = Encoding::kText) {
  std::string out;
  Writer w(&out, encoding);
  Write(w, value);
  return out;
}

template <typename T>
T FromString(std::string_view bytes) {
  Reader r(bytes);
  if constexpr (std::is_same_v<T, Distribution>) {
    return ReadDistribution(r);
  } else if constexpr (std::is_same_v<T, MarkovChain>) {
    return ReadMarkovChain(r);
  } else if constexpr (std::is_same_v<T, Catalog>) {
    return ReadCatalog(r);
  } else if constexpr (std::is_same_v<T, Query>) {
    return ReadQuery(r);
  } else if constexpr (std::is_same_v<T, Workload>) {
    return ReadWorkload(r);
  } else if constexpr (std::is_same_v<T, PlanPtr>) {
    return ReadPlan(r);
  } else if constexpr (std::is_same_v<T, OptimizeResult>) {
    return ReadOptimizeResult(r);
  } else if constexpr (std::is_same_v<T, OptimizerOptions>) {
    return ReadOptimizerOptions(r);
  } else if constexpr (std::is_same_v<T, ServeRequest>) {
    return ReadServeRequest(r);
  } else {
    static_assert(sizeof(T) == 0, "no serde Read for this type");
  }
}

}  // namespace lec::serde

#endif  // LECOPT_SERVICE_SERDE_H_
