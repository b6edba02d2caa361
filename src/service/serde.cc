#include "service/serde.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <limits>
#include <utility>
#include <vector>

namespace lec::serde {

namespace {

// Sanity caps on untrusted counts: a corrupt or hostile length field must
// fail cleanly instead of driving a multi-gigabyte allocation. Each cap is
// far above anything the library produces (TableSet is 32 bits, so queries
// top out at 32 relations; distributions at the §3.6.3 bucket budgets).
constexpr uint64_t kMaxBuckets = uint64_t{1} << 20;
constexpr uint64_t kMaxTables = 64;
constexpr uint64_t kMaxQueryTables = 32;
constexpr uint64_t kMaxPredicates = 4096;
constexpr uint64_t kMaxStates = 4096;
constexpr uint64_t kMaxPhases = 4096;
constexpr int kMaxPlanDepth = 512;

/// How close Σ prob must be to 1 for a deserialized distribution (and a
/// chain row) to be accepted as "normalized". Serialized objects carry the
/// exact doubles normalization produced, whose sum is within a few ulps of
/// 1; 1e-9 accepts any of those while rejecting genuinely denormalized
/// input. Matches the tolerance FromNormalizedView debug-asserts.
constexpr double kNormalizedSumTol = 1e-9;

const char kMagic[] = "lecser";
const char kTextWord[] = "text";
const char kBinaryWord[] = "binary";

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

Writer::Writer(std::string* out, Encoding encoding)
    : out_(out), encoding_(encoding) {
  // The header is textual in BOTH encodings ("lecser text " / "lecser
  // binary ") so a Reader — or a human with `head -c 16` — can sniff the
  // encoding before committing to a token grammar.
  std::string_view word =
      encoding_ == Encoding::kText ? kTextWord : kBinaryWord;
  Put(kMagic, sizeof(kMagic) - 1);
  Put(' ');
  Put(word.data(), word.size());
  Put(' ');
  U32(kFormatVersion);
}

template <typename Int>
void Writer::PutDecimal(Int v) {
  // std::to_chars prints exactly what `ostream << v` printed under the
  // classic locale when this wrote to a stream, so old streams still
  // match byte for byte.
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf) - 1, v).ptr;
  *end++ = ' ';
  Put(buf, static_cast<size_t>(end - buf));
}

void Writer::Tag(std::string_view tag) {
  if (encoding_ == Encoding::kText) {
    Put('\n');
    Put(tag.data(), tag.size());
    Put(' ');
  } else {
    Put(static_cast<char>(tag.size()));
    Put(tag.data(), tag.size());
  }
}

void Writer::Bool(bool v) {
  if (encoding_ == Encoding::kText) {
    Put(v ? "1 " : "0 ", 2);
  } else {
    Put(static_cast<char>(v ? 1 : 0));
  }
}

void Writer::U64(uint64_t v) {
  if (encoding_ == Encoding::kText) {
    PutDecimal(v);
  } else {
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    Put(buf, 8);
  }
}

void Writer::U32(uint32_t v) {
  if (encoding_ == Encoding::kText) {
    PutDecimal(v);
  } else {
    char buf[4];
    for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    Put(buf, 4);
  }
}

void Writer::I32(int32_t v) {
  if (encoding_ == Encoding::kText) {
    PutDecimal(v);
  } else {
    U32(static_cast<uint32_t>(v));
  }
}

void Writer::F64(double v) {
  if (encoding_ == Encoding::kText) {
    // %a prints the shortest exact hexadecimal representation: strtod
    // parses it back to the identical bit pattern, including -0.0. The
    // non-finite specials get fixed spellings (glibc would print "inf" /
    // "nan" anyway; pinning them keeps golden files platform-stable).
    char buf[64];
    int n;
    if (std::isnan(v)) {
      n = std::snprintf(buf, sizeof(buf), "nan ");
    } else if (std::isinf(v)) {
      n = std::snprintf(buf, sizeof(buf), v > 0 ? "inf " : "-inf ");
    } else {
      n = std::snprintf(buf, sizeof(buf), "%a ", v);
    }
    Put(buf, static_cast<size_t>(n));
  } else {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
}

void Writer::Str(std::string_view s) {
  U64(s.size());
  Put(s.data(), s.size());
  if (encoding_ == Encoding::kText) Put(' ');
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Reader::Reader(std::istream& in, MagicState magic) : in_(&in) {
  Header(magic);
}

Reader::Reader(std::string_view bytes) : bytes_(bytes) { Header(kReadHeader); }

void Reader::Header(MagicState magic) {
  std::string word;
  if (magic == kReadHeader) {
    if (!Word(&word) || word != kMagic) {
      Fail("bad magic: expected \"" + std::string(kMagic) + "\"");
    }
  }
  if (!Word(&word)) Fail("truncated header");
  if (word == kTextWord) {
    encoding_ = Encoding::kText;
  } else if (word == kBinaryWord) {
    encoding_ = Encoding::kBinary;
    SkipByte();  // the single separator byte after the encoding word
  } else {
    Fail("unknown encoding \"" + word + "\"");
  }
  version_ = U32();
  if (version_ < kMinReadVersion || version_ > kFormatVersion) {
    Fail("format version " + std::to_string(version_) + " unsupported (this "
         "build reads versions " + std::to_string(kMinReadVersion) + ".." +
         std::to_string(kFormatVersion) + ")");
  }
}

void Reader::Fail(const std::string& what) const {
  throw SerdeError("serde: " + what + " (after " +
                   std::to_string(tokens_read_) + " tokens)");
}

bool Reader::Word(std::string* out) {
  if (in_ != nullptr) return static_cast<bool>(*in_ >> *out);
  // What `istream >> std::string` does under the classic locale: skip
  // whitespace, then take bytes up to the next whitespace.
  auto space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  while (pos_ < bytes_.size() && space(bytes_[pos_])) ++pos_;
  size_t start = pos_;
  while (pos_ < bytes_.size() && !space(bytes_[pos_])) ++pos_;
  if (pos_ == start) return false;
  out->assign(bytes_.data() + start, pos_ - start);
  return true;
}

std::string Reader::NextToken() {
  std::string tok;
  if (!Word(&tok)) Fail("unexpected end of input");
  ++tokens_read_;
  return tok;
}

void Reader::ReadRaw(char* buf, size_t n) {
  if (in_ != nullptr) {
    in_->read(buf, static_cast<std::streamsize>(n));
    if (static_cast<size_t>(in_->gcount()) != n) {
      Fail("unexpected end of input");
    }
  } else {
    if (bytes_.size() - pos_ < n) Fail("unexpected end of input");
    std::memcpy(buf, bytes_.data() + pos_, n);
    pos_ += n;
  }
  ++tokens_read_;
}

void Reader::SkipByte() {
  if (in_ != nullptr) {
    in_->get();
  } else if (pos_ < bytes_.size()) {
    ++pos_;
  }
}

void Reader::ExpectTag(std::string_view tag) {
  if (encoding_ == Encoding::kBinary) {
    // Compared in place: no string per tag on the decode path.
    char len;
    ReadRaw(&len, 1);
    if (len <= 0) Fail("bad tag length");
    char got[128];
    ReadRaw(got, static_cast<size_t>(len));
    std::string_view view(got, static_cast<size_t>(len));
    if (view != tag) {
      Fail("expected tag \"" + std::string(tag) + "\", got \"" +
           std::string(view) + "\"");
    }
    return;
  }
  std::string got = ReadTag();
  if (got != tag) {
    Fail("expected tag \"" + std::string(tag) + "\", got \"" + got + "\"");
  }
}

std::string Reader::ReadTag() {
  if (encoding_ == Encoding::kText) return NextToken();
  char len;
  ReadRaw(&len, 1);
  if (len <= 0) Fail("bad tag length");
  std::string tag(static_cast<size_t>(len), '\0');
  ReadRaw(tag.data(), tag.size());
  return tag;
}

bool Reader::Bool() {
  if (encoding_ == Encoding::kText) {
    std::string tok = NextToken();
    if (tok == "1") return true;
    if (tok == "0") return false;
    Fail("bad bool \"" + tok + "\"");
  }
  char b;
  ReadRaw(&b, 1);
  if (b != 0 && b != 1) Fail("bad bool byte");
  return b == 1;
}

uint64_t Reader::U64() {
  if (encoding_ == Encoding::kText) {
    std::string tok = NextToken();
    if (tok.empty() || tok[0] == '-') Fail("bad unsigned \"" + tok + "\"");
    errno = 0;
    char* end = nullptr;
    uint64_t v = std::strtoull(tok.c_str(), &end, 10);
    if (errno != 0 || end != tok.c_str() + tok.size()) {
      Fail("bad unsigned \"" + tok + "\"");
    }
    return v;
  }
  char buf[8];
  ReadRaw(buf, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

uint32_t Reader::U32() {
  if (encoding_ == Encoding::kText) {
    uint64_t v = U64();
    if (v > std::numeric_limits<uint32_t>::max()) Fail("u32 out of range");
    return static_cast<uint32_t>(v);
  }
  char buf[4];
  ReadRaw(buf, 4);
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i])) << (8 * i);
  }
  return v;
}

int32_t Reader::I32() {
  if (encoding_ == Encoding::kText) {
    std::string tok = NextToken();
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(tok.c_str(), &end, 10);
    if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty() ||
        v < std::numeric_limits<int32_t>::min() ||
        v > std::numeric_limits<int32_t>::max()) {
      Fail("bad int \"" + tok + "\"");
    }
    return static_cast<int32_t>(v);
  }
  return static_cast<int32_t>(U32());
}

double Reader::F64() {
  if (encoding_ == Encoding::kText) {
    std::string tok = NextToken();
    if (tok == "nan") return std::numeric_limits<double>::quiet_NaN();
    if (tok == "inf") return std::numeric_limits<double>::infinity();
    if (tok == "-inf") return -std::numeric_limits<double>::infinity();
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(tok.c_str(), &end);
    if (errno == ERANGE && v != 0.0 && !std::isfinite(v)) {
      Fail("double out of range \"" + tok + "\"");
    }
    if (end != tok.c_str() + tok.size() || tok.empty()) {
      Fail("bad double \"" + tok + "\"");
    }
    return v;
  }
  uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::Str() {
  uint64_t len = U64();
  if (encoding_ == Encoding::kText) SkipByte();  // the single separator
  if (in_ == nullptr) {
    // In memory the length is checked against what is there before any
    // allocation.
    if (bytes_.size() - pos_ < len) Fail("unexpected end of input");
    std::string s(bytes_.substr(pos_, static_cast<size_t>(len)));
    pos_ += static_cast<size_t>(len);
    ++tokens_read_;
    return s;
  }
  // Chunked: memory grows only as real bytes arrive, so a corrupt or
  // hostile length field fails cleanly at end-of-input instead of driving
  // one giant up-front allocation. No upper cap — the cache's canonical
  // signatures legally grow with the workload's distributions, and any
  // snapshot this module wrote must always read back.
  std::string s;
  char buf[1 << 16];
  uint64_t remaining = len;
  while (remaining > 0) {
    size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(remaining, sizeof(buf)));
    ReadRaw(buf, chunk);
    s.append(buf, chunk);
    remaining -= chunk;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Distribution
// ---------------------------------------------------------------------------

void Write(Writer& w, const Distribution& d) {
  w.Tag("dist");
  w.U64(d.size());
  for (const Bucket& b : d.buckets()) {
    w.F64(b.value);
    w.F64(b.prob);
  }
}

Distribution ReadDistribution(Reader& r) {
  r.ExpectTag("dist");
  uint64_t n = r.U64();
  if (n == 0) throw SerdeError("serde: distribution needs >= 1 bucket");
  if (n > kMaxBuckets) throw SerdeError("serde: bucket count too large");
  std::vector<double> buf(2 * n);
  double* values = buf.data();
  double* probs = values + n;
  double sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = r.F64();
    probs[i] = r.F64();
    if (!std::isfinite(values[i])) {
      throw SerdeError("serde: distribution value not finite");
    }
    if (i > 0 && values[i] <= values[i - 1]) {
      throw SerdeError("serde: distribution values not strictly ascending");
    }
    if (!(probs[i] > 0) || !std::isfinite(probs[i])) {
      throw SerdeError("serde: distribution probability not positive");
    }
    sum += probs[i];
  }
  if (std::abs(sum - 1.0) > kNormalizedSumTol) {
    throw SerdeError("serde: distribution probabilities not normalized");
  }
  // The validated buckets go through the trusted materializer: the
  // validating constructor would re-divide by `sum`, perturbing the stored
  // bit patterns whenever sum != 1.0 exactly.
  return Distribution::FromNormalizedView(
      DistView{values, probs, static_cast<size_t>(n)});
}

// ---------------------------------------------------------------------------
// MarkovChain
// ---------------------------------------------------------------------------

void Write(Writer& w, const MarkovChain& chain) {
  w.Tag("markov");
  w.U64(chain.num_states());
  for (double s : chain.states()) w.F64(s);
  for (const std::vector<double>& row : chain.transition()) {
    for (double p : row) w.F64(p);
  }
}

MarkovChain ReadMarkovChain(Reader& r) {
  r.ExpectTag("markov");
  uint64_t k = r.U64();
  if (k == 0) throw SerdeError("serde: chain needs >= 1 state");
  if (k > kMaxStates) throw SerdeError("serde: state count too large");
  std::vector<double> states(k);
  for (uint64_t i = 0; i < k; ++i) {
    states[i] = r.F64();
    if (!std::isfinite(states[i]) || (i > 0 && states[i] <= states[i - 1])) {
      throw SerdeError("serde: chain states must be finite and ascending");
    }
  }
  std::vector<std::vector<double>> rows(k, std::vector<double>(k));
  for (uint64_t i = 0; i < k; ++i) {
    double sum = 0;
    for (uint64_t j = 0; j < k; ++j) {
      double p = rows[i][j] = r.F64();
      if (!std::isfinite(p) || p < 0) {
        throw SerdeError("serde: chain row entry not a probability");
      }
      sum += p;
    }
    if (std::abs(sum - 1.0) > kNormalizedSumTol) {
      throw SerdeError("serde: chain row not normalized");
    }
  }
  return MarkovChain::FromNormalizedRows(std::move(states), std::move(rows));
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

void Write(Writer& w, const Catalog& catalog) {
  w.Tag("catalog");
  w.U64(catalog.size());
  for (size_t i = 0; i < catalog.size(); ++i) {
    const Table& t = catalog.table(static_cast<TableId>(i));
    w.Str(t.name);
    w.F64(t.pages);
    w.F64(t.rows_per_page);
    w.Bool(t.pages_dist.has_value());
    if (t.pages_dist) Write(w, *t.pages_dist);
  }
}

Catalog ReadCatalog(Reader& r) {
  r.ExpectTag("catalog");
  uint64_t n = r.U64();
  if (n > kMaxTables) throw SerdeError("serde: catalog too large");
  Catalog catalog;
  for (uint64_t i = 0; i < n; ++i) {
    Table t;
    t.name = r.Str();
    t.pages = r.F64();
    t.rows_per_page = r.F64();
    if (!(t.pages > 0) || !std::isfinite(t.pages)) {
      throw SerdeError("serde: table pages must be positive and finite");
    }
    if (!(t.rows_per_page > 0) || !std::isfinite(t.rows_per_page)) {
      throw SerdeError("serde: rows_per_page must be positive and finite");
    }
    if (r.Bool()) t.pages_dist = ReadDistribution(r);
    try {
      catalog.AddTable(std::move(t));
    } catch (const std::invalid_argument& e) {
      throw SerdeError(std::string("serde: invalid table: ") + e.what());
    }
  }
  return catalog;
}

// ---------------------------------------------------------------------------
// Query
// ---------------------------------------------------------------------------

void Write(Writer& w, const Query& query) {
  w.Tag("query");
  w.U64(static_cast<uint64_t>(query.num_tables()));
  for (QueryPos p = 0; p < query.num_tables(); ++p) {
    w.I32(query.table(p));
  }
  w.U64(static_cast<uint64_t>(query.num_predicates()));
  for (const JoinPredicate& pred : query.predicates()) {
    w.I32(pred.left);
    w.I32(pred.right);
    Write(w, pred.selectivity);
  }
  w.Bool(query.required_order().has_value());
  if (query.required_order()) w.I32(*query.required_order());
  // Version 3: local filter predicates (selection push-down inputs).
  w.U64(static_cast<uint64_t>(query.num_filters()));
  for (const FilterPredicate& f : query.filters()) {
    w.I32(f.table);
    Write(w, f.selectivity);
  }
}

Query ReadQuery(Reader& r) {
  r.ExpectTag("query");
  uint64_t n = r.U64();
  if (n > kMaxQueryTables) throw SerdeError("serde: too many query tables");
  Query query;
  // Reconstruction goes through the ordinary mutators, so Query's own
  // invariants (≤31 relations, selectivity support in (0, 1], valid ORDER
  // BY target) are re-enforced; their invalid_argument is re-thrown as a
  // parse error.
  try {
    for (uint64_t i = 0; i < n; ++i) {
      int32_t id = r.I32();
      if (id < 0) throw SerdeError("serde: negative table id");
      query.AddTable(id);
    }
    uint64_t preds = r.U64();
    if (preds > kMaxPredicates) {
      throw SerdeError("serde: too many predicates");
    }
    for (uint64_t i = 0; i < preds; ++i) {
      int32_t left = r.I32();
      int32_t right = r.I32();
      if (left < 0 || right < 0 || left >= static_cast<int32_t>(n) ||
          right >= static_cast<int32_t>(n) || left == right) {
        throw SerdeError("serde: predicate endpoints out of range");
      }
      query.AddPredicate(left, right, ReadDistribution(r));
    }
    if (r.Bool()) {
      int32_t order = r.I32();
      if (order < 0 || order >= static_cast<int32_t>(preds)) {
        throw SerdeError("serde: required order out of range");
      }
      query.RequireOrder(order);
    }
    if (r.version() >= 3) {
      uint64_t filters = r.U64();
      if (filters > kMaxPredicates) {
        throw SerdeError("serde: too many filters");
      }
      for (uint64_t i = 0; i < filters; ++i) {
        int32_t pos = r.I32();
        if (pos < 0 || pos >= static_cast<int32_t>(n)) {
          throw SerdeError("serde: filter position out of range");
        }
        query.AddFilter(pos, ReadDistribution(r));
      }
    }
  } catch (const std::invalid_argument& e) {
    throw SerdeError(std::string("serde: invalid query: ") + e.what());
  }
  return query;
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

void Write(Writer& w, const Workload& workload) {
  w.Tag("workload");
  Write(w, workload.catalog);
  Write(w, workload.query);
}

Workload ReadWorkload(Reader& r) {
  r.ExpectTag("workload");
  Workload out;
  out.catalog = ReadCatalog(r);
  out.query = ReadQuery(r);
  // Cross-validate: every query position must name a registered table, or
  // the first TablePages() call would throw far from the parse site.
  for (QueryPos p = 0; p < out.query.num_tables(); ++p) {
    if (static_cast<size_t>(out.query.table(p)) >= out.catalog.size()) {
      throw SerdeError("serde: query references unknown table id");
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

namespace {

void WritePlanNode(Writer& w, const PlanNode& node) {
  w.U32(static_cast<uint32_t>(node.kind));
  switch (node.kind) {
    case PlanNode::Kind::kAccess:
      w.I32(node.table_pos);
      w.F64(node.est_pages);
      return;
    case PlanNode::Kind::kJoin:
      WritePlanNode(w, *node.left);
      WritePlanNode(w, *node.right);
      w.U32(static_cast<uint32_t>(node.method));
      w.U64(node.predicates.size());
      for (int p : node.predicates) w.I32(p);
      w.I32(node.order);
      w.F64(node.est_pages);
      return;
    case PlanNode::Kind::kSort:
      // est_pages is derived (MakeSort copies the child's), so only the
      // child and the enforced order are stored.
      WritePlanNode(w, *node.left);
      w.I32(node.order);
      return;
  }
  throw SerdeError("serde: unknown plan node kind");
}

PlanPtr ReadPlanNode(Reader& r, int depth) {
  if (depth > kMaxPlanDepth) throw SerdeError("serde: plan nested too deep");
  uint32_t kind = r.U32();
  switch (kind) {
    case static_cast<uint32_t>(PlanNode::Kind::kAccess): {
      int32_t pos = r.I32();
      double est_pages = r.F64();
      if (pos < 0 || pos >= static_cast<int32_t>(kMaxQueryTables)) {
        throw SerdeError("serde: access position out of range");
      }
      if (std::isnan(est_pages)) {
        throw SerdeError("serde: est_pages is NaN");
      }
      return MakeAccess(pos, est_pages);
    }
    case static_cast<uint32_t>(PlanNode::Kind::kJoin): {
      PlanPtr left = ReadPlanNode(r, depth + 1);
      PlanPtr right = ReadPlanNode(r, depth + 1);
      uint32_t method = r.U32();
      if (method > static_cast<uint32_t>(JoinMethod::kHybridHash)) {
        throw SerdeError("serde: unknown join method");
      }
      uint64_t num_preds = r.U64();
      if (num_preds > kMaxPredicates) {
        throw SerdeError("serde: too many join predicates");
      }
      std::vector<int> preds(num_preds);
      for (uint64_t i = 0; i < num_preds; ++i) {
        preds[i] = r.I32();
        if (preds[i] < 0) throw SerdeError("serde: negative predicate index");
      }
      int32_t order = r.I32();
      if (order < kUnsorted) throw SerdeError("serde: bad join order id");
      double est_pages = r.F64();
      if (std::isnan(est_pages)) throw SerdeError("serde: est_pages is NaN");
      try {
        return MakeJoin(std::move(left), std::move(right),
                        static_cast<JoinMethod>(method), std::move(preds),
                        order, est_pages);
      } catch (const std::invalid_argument& e) {
        throw SerdeError(std::string("serde: invalid join: ") + e.what());
      }
    }
    case static_cast<uint32_t>(PlanNode::Kind::kSort): {
      PlanPtr child = ReadPlanNode(r, depth + 1);
      int32_t order = r.I32();
      if (order < 0) throw SerdeError("serde: bad sort order id");
      return MakeSort(std::move(child), order);
    }
    default:
      throw SerdeError("serde: unknown plan node kind");
  }
}

}  // namespace

void Write(Writer& w, const PlanPtr& plan) {
  w.Tag("plan");
  w.Bool(plan != nullptr);
  if (plan) WritePlanNode(w, *plan);
}

PlanPtr ReadPlan(Reader& r) {
  r.ExpectTag("plan");
  if (!r.Bool()) return nullptr;
  return ReadPlanNode(r, 0);
}

// ---------------------------------------------------------------------------
// OptimizeResult
// ---------------------------------------------------------------------------

void Write(Writer& w, const OptimizeResult& result) {
  w.Tag("result");
  Write(w, result.plan);
  w.F64(result.objective);
  w.U64(result.candidates_considered);
  w.U64(result.cost_evaluations);
  w.F64(result.elapsed_seconds);
  w.U64(result.candidates_by_phase.size());
  for (size_t c : result.candidates_by_phase) w.U64(c);
  w.U64(result.pruned_expansions);
  w.U64(result.pruned_candidates);
  w.U64(result.pruned_entries);
  w.U64(result.incumbent_cost_evaluations);
}

OptimizeResult ReadOptimizeResult(Reader& r) {
  r.ExpectTag("result");
  OptimizeResult result;
  result.plan = ReadPlan(r);
  result.objective = r.F64();
  if (std::isnan(result.objective)) {
    throw SerdeError("serde: objective is NaN");
  }
  result.candidates_considered = r.U64();
  result.cost_evaluations = r.U64();
  result.elapsed_seconds = r.F64();
  if (!(result.elapsed_seconds >= 0) ||
      !std::isfinite(result.elapsed_seconds)) {
    throw SerdeError("serde: elapsed_seconds must be finite and >= 0");
  }
  uint64_t phases = r.U64();
  if (phases > kMaxPhases) throw SerdeError("serde: too many phases");
  result.candidates_by_phase.resize(phases);
  for (uint64_t i = 0; i < phases; ++i) {
    result.candidates_by_phase[i] = r.U64();
  }
  result.pruned_expansions = r.U64();
  result.pruned_candidates = r.U64();
  result.pruned_entries = r.U64();
  result.incumbent_cost_evaluations = r.U64();
  return result;
}

// ---------------------------------------------------------------------------
// OptimizerOptions
// ---------------------------------------------------------------------------

void Write(Writer& w, const OptimizerOptions& options) {
  w.Tag("options");
  w.U64(options.join_methods.size());
  for (JoinMethod m : options.join_methods) {
    w.U32(static_cast<uint32_t>(m));
  }
  w.Bool(options.avoid_cross_products);
  w.Bool(options.consider_sort_enforcers);
  w.U64(options.size_buckets);
  w.U32(static_cast<uint32_t>(options.size_mode));
  w.Bool(options.use_fast_ec);
  // Wire v3 slot of the retired use_dist_kernels option: Algorithm D has
  // one pipeline now, so the slot is always written true and ignored on
  // read. Keeping it keeps v3 streams and signature bytes unchanged.
  w.Bool(true);
  w.U32(static_cast<uint32_t>(options.simd_mode));
  w.U32(static_cast<uint32_t>(options.dp_pruning));
  // Version 3: logical rewrite pipeline toggle.
  w.U32(static_cast<uint32_t>(options.rewrite_mode));
}

OptimizerOptions ReadOptimizerOptions(Reader& r) {
  r.ExpectTag("options");
  OptimizerOptions options;
  uint64_t methods = r.U64();
  if (methods == 0 || methods > 8) {
    throw SerdeError("serde: bad join-method count");
  }
  options.join_methods.clear();
  for (uint64_t i = 0; i < methods; ++i) {
    uint32_t m = r.U32();
    if (m > static_cast<uint32_t>(JoinMethod::kHybridHash)) {
      throw SerdeError("serde: unknown join method");
    }
    options.join_methods.push_back(static_cast<JoinMethod>(m));
  }
  options.avoid_cross_products = r.Bool();
  options.consider_sort_enforcers = r.Bool();
  options.size_buckets = r.U64();
  if (options.size_buckets == 0 || options.size_buckets > kMaxBuckets) {
    throw SerdeError("serde: bad size_buckets");
  }
  uint32_t mode = r.U32();
  if (mode > static_cast<uint32_t>(SizePropagationMode::kCubeRootPrebucket)) {
    throw SerdeError("serde: unknown size propagation mode");
  }
  options.size_mode = static_cast<SizePropagationMode>(mode);
  options.use_fast_ec = r.Bool();
  r.Bool();  // retired use_dist_kernels slot (see Write)
  uint32_t simd = r.U32();
  if (simd > static_cast<uint32_t>(SimdMode::kAvx2)) {
    throw SerdeError("serde: unknown simd mode");
  }
  options.simd_mode = static_cast<SimdMode>(simd);
  uint32_t pruning = r.U32();
  if (pruning > static_cast<uint32_t>(DpPruning::kOff)) {
    throw SerdeError("serde: unknown dp_pruning mode");
  }
  options.dp_pruning = static_cast<DpPruning>(pruning);
  if (r.version() >= 3) {
    uint32_t rewrite = r.U32();
    if (rewrite > static_cast<uint32_t>(RewriteMode::kOn)) {
      throw SerdeError("serde: unknown rewrite mode");
    }
    options.rewrite_mode = static_cast<RewriteMode>(rewrite);
  }
  return options;
}

// ---------------------------------------------------------------------------
// ServeRequest
// ---------------------------------------------------------------------------

void Write(Writer& w, const ServeRequest& request) {
  w.Tag("serve_request");
  w.Str(request.strategy);
  Write(w, request.workload);
  Write(w, request.memory);
  w.Bool(request.chain.has_value());
  if (request.chain) Write(w, *request.chain);
  Write(w, request.options);
  w.U32(static_cast<uint32_t>(request.lsc_estimate));
  w.U64(request.top_c);
  w.U64(request.seed);
  w.I32(request.randomized_restarts);
  w.I32(request.randomized_patience);
  w.I32(request.sample_predicate);
  w.Tag("end");
}

ServeRequest ReadServeRequest(Reader& r) {
  r.ExpectTag("serve_request");
  ServeRequest request;
  request.strategy = r.Str();
  if (!ParseStrategy(request.strategy)) {
    throw SerdeError("serde: unknown strategy \"" + request.strategy + "\"");
  }
  request.workload = ReadWorkload(r);
  request.memory = ReadDistribution(r);
  if (r.Bool()) request.chain = ReadMarkovChain(r);
  request.options = ReadOptimizerOptions(r);
  uint32_t estimate = r.U32();
  if (estimate > static_cast<uint32_t>(PointEstimate::kMode)) {
    throw SerdeError("serde: unknown point estimate");
  }
  request.lsc_estimate = static_cast<PointEstimate>(estimate);
  request.top_c = r.U64();
  request.seed = r.U64();
  request.randomized_restarts = r.I32();
  request.randomized_patience = r.I32();
  request.sample_predicate = r.I32();
  if (request.top_c == 0) throw SerdeError("serde: top_c must be positive");
  if (request.randomized_restarts < 0 || request.randomized_patience < 0 ||
      request.sample_predicate < 0) {
    throw SerdeError("serde: request knobs must be non-negative");
  }
  if (request.strategy == "lec_dynamic" && !request.chain) {
    throw SerdeError("serde: lec_dynamic request needs a chain");
  }
  r.ExpectTag("end");
  return request;
}

}  // namespace lec::serde
