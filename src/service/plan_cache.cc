#include "service/plan_cache.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cost/cost_model.h"
#include "dist/simd.h"

namespace lec {

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

void RequireCore(const OptimizeRequest& r) {
  if (r.query == nullptr || r.catalog == nullptr || r.model == nullptr ||
      r.memory == nullptr) {
    throw std::invalid_argument(
        "QuerySignature needs query, catalog, model and memory");
  }
}

/// What both keys write ahead of the query: the strategy, the resolved
/// SIMD tier, the options fingerprint and the cost-model flags.
void WriteRequestHead(serde::Writer& w, StrategyId id,
                      const OptimizeRequest& r) {
  w.Str(StrategyName(id));
  // The RESOLVED SIMD tier, not just the requested simd_mode (which rides
  // along inside the options fingerprint below): a kAuto request computes
  // different bits on hosts with different vector units, and snapshots
  // serve across hosts. The facade applies its ScopedLevel before calling
  // Compute, so ActiveLevel() here is the tier the result is computed at.
  w.Str(simd::LevelName(simd::ActiveLevel()));

  // Option fingerprint: the serde subset of OptimizerOptions (everything
  // result-affecting except the borrowed pointers). The dist arena and
  // this cache itself are pure mechanism and excluded.
  serde::Write(w, r.options);

  // Cost-model fingerprint: both knobs change every join cost.
  w.Bool(r.model->options().sorted_input_discount);
  w.Bool(r.model->options().charge_materialization);
}

/// What both keys write after the query: the memory distribution and the
/// strategy-specific knobs.
void WriteRequestTail(serde::Writer& w, StrategyId id,
                      const OptimizeRequest& r) {
  w.Tag("memory");
  w.U64(r.memory->ContentHash());
  serde::Write(w, *r.memory);

  // Strategy-specific knobs: only what the strategy actually consumes, so
  // e.g. a changed randomized seed does not evict lec_static entries. The
  // A/B slot of the retired per-worker memo cache is always written false;
  // keeping it keeps signature and snapshot bytes unchanged.
  w.Tag("knobs");
  switch (id) {
    case StrategyId::kLsc:
      w.U32(static_cast<uint32_t>(r.lsc_estimate));
      break;
    case StrategyId::kAlgorithmA:
      w.Bool(false);
      break;
    case StrategyId::kAlgorithmB:
      w.Bool(false);
      w.U64(r.top_c);
      break;
    case StrategyId::kLecDynamic:
      if (r.chain == nullptr) {
        throw std::invalid_argument("lec_dynamic signature needs a chain");
      }
      serde::Write(w, *r.chain);
      break;
    case StrategyId::kRandomized:
      w.U64(r.seed);
      w.I32(r.randomized_restarts);
      w.I32(r.randomized_patience);
      break;
    case StrategyId::kSampling:
      w.I32(r.sample_predicate);
      break;
    default:
      break;
  }
}

uint64_t HashRequestKey(std::string_view bytes) {
  // Eight bytes per step (FNV's byte-at-a-time loop costs ~2 us on a
  // 1.3 KB key), then a splitmix finalizer. Collisions only cost a byte
  // compare: every index keyed by this hash compares the full bytes.
  uint64_t h = 0x9e3779b97f4a7c15ull ^ bytes.size();
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = std::rotl(h ^ (word * 0xff51afd7ed558ccdull), 29) *
        0xc4ceb9fe1a85ec53ull;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p, n);
  h ^= tail * 0xff51afd7ed558ccdull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

QuerySignature QuerySignature::Compute(StrategyId id,
                                       const OptimizeRequest& r) {
  RequireCore(r);
  // Binary encoding: the canonical string is compared, hashed and stored,
  // never read back, so the densest framing wins — hex-float text here
  // would put ~60 snprintf calls on the hit path and dominate it (E19
  // measures the difference as ~2.5x of the whole lookup).
  QuerySignature sig;
  sig.canonical.reserve(2048);
  serde::Writer w(&sig.canonical, serde::Encoding::kBinary);
  w.Tag("sig");
  // Signature schema version, independent of the wire version. v3 differs
  // from v2 only in carrying the options' rewrite_mode (via the options
  // fingerprint below) — and in being what a canonicalized (rewrite-on)
  // request hashes to; UpgradeCanonical lifts v2 bytes to their exact v3
  // equivalent on snapshot load.
  w.U32(3);
  WriteRequestHead(w, id, r);

  // Statistics, by query position: the scalar page estimate and the full
  // size distribution (the ContentHash first, then the exact buckets —
  // the buckets are what make the signature collision-proof under string
  // comparison; the hash rides along as a cheap prefix discriminator).
  // Table names and rows_per_page are execution-side cosmetics no
  // strategy reads.
  const Query& query = *r.query;
  w.Tag("tables");
  w.U64(static_cast<uint64_t>(query.num_tables()));
  for (QueryPos p = 0; p < query.num_tables(); ++p) {
    const Table& t = r.catalog->table(query.table(p));
    w.F64(t.pages);
    if (t.pages_dist) {
      w.U64(t.pages_dist->ContentHash());
      serde::Write(w, *t.pages_dist);
    } else {
      Distribution size = Distribution::PointMass(t.pages);
      w.U64(size.ContentHash());
      serde::Write(w, size);
    }
  }

  // Predicates with endpoint order normalized: a binary equi-join
  // predicate is symmetric, and nothing in the optimizer reads the
  // endpoints directionally, so (a, b) and (b, a) requests share an entry.
  // The predicate *list* order is deliberately NOT normalized — plan nodes
  // store predicate indices, and selectivity products reassociate under
  // reordering (see the header comment). Filters are not written: a
  // rewrite-on request has none left (selection push-down folded them
  // into the size distributions above), and a rewrite-off request's
  // strategies never read them.
  w.Tag("preds");
  w.U64(static_cast<uint64_t>(query.num_predicates()));
  for (const JoinPredicate& pred : query.predicates()) {
    w.I32(std::min(pred.left, pred.right));
    w.I32(std::max(pred.left, pred.right));
    w.U64(pred.selectivity.ContentHash());
    serde::Write(w, pred.selectivity);
  }
  w.Bool(query.required_order().has_value());
  if (query.required_order()) w.I32(*query.required_order());

  WriteRequestTail(w, id, r);
  sig.hash = Fnv1a64(sig.canonical);

  // Collect the distribution hashes the stream above serialized (size
  // dists, selectivities, memory) for the cache's reverse index. Sorted +
  // deduplicated: one query can consume the same distribution at several
  // positions, and a single reverse-index link per hash is enough to find
  // the entry.
  sig.dist_hashes.reserve(static_cast<size_t>(query.num_tables()) +
                          query.predicates().size() + 1);
  for (QueryPos p = 0; p < query.num_tables(); ++p) {
    const Table& t = r.catalog->table(query.table(p));
    sig.dist_hashes.push_back(
        t.pages_dist ? t.pages_dist->ContentHash()
                     : Distribution::PointMass(t.pages).ContentHash());
  }
  for (const JoinPredicate& pred : query.predicates()) {
    sig.dist_hashes.push_back(pred.selectivity.ContentHash());
  }
  sig.dist_hashes.push_back(r.memory->ContentHash());
  std::sort(sig.dist_hashes.begin(), sig.dist_hashes.end());
  sig.dist_hashes.erase(
      std::unique(sig.dist_hashes.begin(), sig.dist_hashes.end()),
      sig.dist_hashes.end());
  return sig;
}

uint64_t RequestKey::ComputeInto(StrategyId id, const OptimizeRequest& r,
                                 std::string* out) {
  RequireCore(r);
  out->clear();
  serde::Writer w(out, serde::Encoding::kBinary);
  w.Tag("reqkey");
  WriteRequestHead(w, id, r);
  // The raw inputs of the rewrite passes, exactly as given: the whole
  // catalog (selection push-down appends to a copy of it, and the outcome
  // carries that copy) and the query with its predicate list order,
  // endpoint direction and filters.
  serde::Write(w, *r.catalog);
  serde::Write(w, *r.query);
  WriteRequestTail(w, id, r);
  return HashRequestKey(*out);
}

std::vector<uint64_t> QuerySignature::ExtractDistHashes(
    std::string_view canonical) {
  // The canonical string is a complete serde stream (Writer's constructor
  // emits the header), so it re-parses with a Reader. Walk the layout
  // (identical in schema v2 and v3 — the options fingerprint reads itself
  // version-aware) up to the memory section, collecting each ContentHash
  // that Compute wrote ahead of its distribution's buckets; the
  // strategy-knob tail is irrelevant here and left unread.
  serde::Reader r(canonical);
  r.ExpectTag("sig");
  uint32_t version = r.U32();
  if (version != 2 && version != 3) {
    throw serde::SerdeError("serde: unknown signature schema version");
  }
  r.Str();  // strategy name
  r.Str();  // simd level
  serde::ReadOptimizerOptions(r);
  r.Bool();  // sorted_input_discount
  r.Bool();  // charge_materialization

  std::vector<uint64_t> hashes;
  r.ExpectTag("tables");
  uint64_t num_tables = r.U64();
  for (uint64_t i = 0; i < num_tables; ++i) {
    r.F64();  // pages
    hashes.push_back(r.U64());
    serde::ReadDistribution(r);
  }
  r.ExpectTag("preds");
  uint64_t num_preds = r.U64();
  for (uint64_t i = 0; i < num_preds; ++i) {
    r.I32();
    r.I32();
    hashes.push_back(r.U64());
    serde::ReadDistribution(r);
  }
  if (r.Bool()) r.I32();  // required order
  r.ExpectTag("memory");
  hashes.push_back(r.U64());

  std::sort(hashes.begin(), hashes.end());
  hashes.erase(std::unique(hashes.begin(), hashes.end()), hashes.end());
  return hashes;
}

std::string QuerySignature::UpgradeCanonical(std::string_view canonical) {
  serde::Reader r(canonical);
  r.ExpectTag("sig");
  uint32_t schema = r.U32();
  if (schema == 3) return std::string(canonical);
  if (schema != 2) {
    throw serde::SerdeError("serde: unknown signature schema version");
  }
  // Full v2 parse, token-for-token v3 re-emit. Every field round-trips
  // bit-exactly (the serde contract), and the one v3 addition —
  // rewrite_mode inside the options fingerprint — serializes as its
  // default kOff, which is exactly what every v2-era request meant. The
  // result therefore equals a fresh Compute of the same request, so
  // upgraded snapshot entries keep serving hits.
  std::string strategy_name = r.Str();
  std::string simd_level = r.Str();
  OptimizerOptions options = serde::ReadOptimizerOptions(r);
  bool sorted_input_discount = r.Bool();
  bool charge_materialization = r.Bool();

  std::string out;
  serde::Writer w(&out, r.encoding());
  w.Tag("sig");
  w.U32(3);
  w.Str(strategy_name);
  w.Str(simd_level);
  serde::Write(w, options);
  w.Bool(sorted_input_discount);
  w.Bool(charge_materialization);

  r.ExpectTag("tables");
  w.Tag("tables");
  uint64_t num_tables = r.U64();
  w.U64(num_tables);
  for (uint64_t i = 0; i < num_tables; ++i) {
    w.F64(r.F64());
    w.U64(r.U64());
    serde::Write(w, serde::ReadDistribution(r));
  }
  r.ExpectTag("preds");
  w.Tag("preds");
  uint64_t num_preds = r.U64();
  w.U64(num_preds);
  for (uint64_t i = 0; i < num_preds; ++i) {
    w.I32(r.I32());
    w.I32(r.I32());
    w.U64(r.U64());
    serde::Write(w, serde::ReadDistribution(r));
  }
  bool has_order = r.Bool();
  w.Bool(has_order);
  if (has_order) w.I32(r.I32());

  r.ExpectTag("memory");
  w.Tag("memory");
  w.U64(r.U64());
  serde::Write(w, serde::ReadDistribution(r));

  r.ExpectTag("knobs");
  w.Tag("knobs");
  std::optional<StrategyId> id = ParseStrategy(strategy_name);
  if (!id) throw serde::SerdeError("serde: unknown strategy in signature");
  switch (*id) {
    case StrategyId::kLsc:
      w.U32(r.U32());
      break;
    case StrategyId::kAlgorithmA:
      w.Bool(r.Bool());
      break;
    case StrategyId::kAlgorithmB:
      w.Bool(r.Bool());
      w.U64(r.U64());
      break;
    case StrategyId::kLecDynamic:
      serde::Write(w, serde::ReadMarkovChain(r));
      break;
    case StrategyId::kRandomized:
      w.U64(r.U64());
      w.I32(r.I32());
      w.I32(r.I32());
      break;
    case StrategyId::kSampling:
      w.I32(r.I32());
      break;
    default:
      break;
  }
  return out;
}

PlanCache::PlanCache() : PlanCache(Options{}) {}

PlanCache::PlanCache(Options options)
    : shards_(static_cast<size_t>(std::max(options.shards, 1))),
      memo_(shards_.size()),
      max_entries_(std::max<size_t>(options.max_entries, 1)) {
  per_shard_cap_ =
      std::max<size_t>((max_entries_ + shards_.size() - 1) / shards_.size(),
                       1);
}

void PlanCache::UnlinkAlias(const std::shared_ptr<Alias>& alias) {
  alias->live = false;
  AliasIndex& index = IndexFor(alias->key_hash);
  std::lock_guard<std::mutex> lock(index.mu);
  auto [lo, hi] = index.by_key.equal_range(alias->key_hash);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == alias) {
      index.by_key.erase(it);
      return;
    }
  }
}

void PlanCache::AttachLocked(Shard& shard,
                             std::list<Entry>::iterator entry_it,
                             const RequestAlias& alias) {
  {
    AliasIndex& index = IndexFor(alias.key_hash);
    std::lock_guard<std::mutex> lock(index.mu);
    auto [lo, hi] = index.by_key.equal_range(alias.key_hash);
    for (auto it = lo; it != hi; ++it) {
      // Equal keys resolve to equal signatures, so an attached twin is
      // on this very entry (a racing duplicate got here first).
      if (it->second->key == alias.key) return;
    }
    auto node = std::make_shared<Alias>();
    node->key = std::string(alias.key);
    node->key_hash = alias.key_hash;
    node->rewrite = alias.rewrite;
    node->shard = &shard;
    node->entry = entry_it;
    index.by_key.emplace(alias.key_hash, node);
    entry_it->aliases.push_back(std::move(node));
  }
  if (entry_it->aliases.size() > kMaxAliasesPerEntry) {
    UnlinkAlias(entry_it->aliases.front());
    entry_it->aliases.erase(entry_it->aliases.begin());
  }
}

void PlanCache::EraseLocked(Shard& shard,
                            std::list<Entry>::iterator entry_it) {
  for (const std::shared_ptr<Alias>& alias : entry_it->aliases) {
    UnlinkAlias(alias);
  }
  for (uint64_t h : entry_it->dist_hashes) {
    auto [lo, hi] = shard.by_dist.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == entry_it) {
        shard.by_dist.erase(it);
        break;
      }
    }
  }
  shard.index.erase(std::string_view(entry_it->canonical));
  shard.lru.erase(entry_it);
}

void PlanCache::ClearLocked(Shard& shard) {
  for (Entry& entry : shard.lru) {
    for (const std::shared_ptr<Alias>& alias : entry.aliases) {
      UnlinkAlias(alias);
    }
  }
  shard.index.clear();
  shard.by_dist.clear();
  shard.lru.clear();
}

std::optional<OptimizeResult> PlanCache::Lookup(const QuerySignature& sig,
                                                const RequestAlias* alias) {
  Shard& shard = ShardFor(sig.hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(std::string_view(sig.canonical));
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    return std::nullopt;
  }
  auto entry_it = it->second;
  shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
  ++shard.stats.hits;
  if (alias != nullptr) AttachLocked(shard, entry_it, *alias);
  return entry_it->result;
}

std::optional<OptimizeResult> PlanCache::LookupRequest(std::string_view key,
                                                       uint64_t key_hash) {
  std::shared_ptr<Alias> alias;
  {
    AliasIndex& index = IndexFor(key_hash);
    std::lock_guard<std::mutex> lock(index.mu);
    auto [lo, hi] = index.by_key.equal_range(key_hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second->key == key) {
        alias = it->second;
        break;
      }
    }
  }
  if (alias == nullptr) return std::nullopt;
  // The index lock is released before the shard lock is taken (lock
  // order), so the entry may have been dropped in between: `live` says.
  Shard& shard = *alias->shard;
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!alias->live) return std::nullopt;
  // Exactly Lookup's hit accounting, so the memo is invisible in hits,
  // misses and LRU order.
  shard.lru.splice(shard.lru.begin(), shard.lru, alias->entry);
  ++shard.stats.hits;
  ++shard.stats.rewrites_skipped;
  OptimizeResult result = alias->entry->result;
  result.rewrite = alias->rewrite;
  return result;
}

void PlanCache::Insert(const QuerySignature& sig,
                       const OptimizeResult& result,
                       const RequestAlias* alias) {
  Shard& shard = ShardFor(sig.hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(std::string_view(sig.canonical));
  if (it != shard.index.end()) {
    // Same canonical bytes imply the same dist_hashes, so the existing
    // reverse-index links stay correct. The aliases go with the old
    // result.
    auto entry_it = it->second;
    entry_it->result = result;
    entry_it->result.rewrite = nullptr;
    for (const std::shared_ptr<Alias>& old : entry_it->aliases) {
      UnlinkAlias(old);
    }
    entry_it->aliases.clear();
    shard.lru.splice(shard.lru.begin(), shard.lru, entry_it);
    ++shard.stats.insertions;
    if (alias != nullptr) AttachLocked(shard, entry_it, *alias);
    return;
  }
  // The entry keeps no RewriteOutcome: it serves every labeling of the
  // canonical request, and each labeling's outcome lives on its alias (or
  // is stamped by the caller on a canonical hit).
  shard.lru.push_front(Entry{sig.canonical, result, sig.dist_hashes, {}});
  shard.lru.front().result.rewrite = nullptr;
  shard.index[std::string_view(shard.lru.front().canonical)] =
      shard.lru.begin();
  for (uint64_t h : shard.lru.front().dist_hashes) {
    shard.by_dist.emplace(h, shard.lru.begin());
  }
  ++shard.stats.insertions;
  if (alias != nullptr) AttachLocked(shard, shard.lru.begin(), *alias);
  while (shard.lru.size() > per_shard_cap_) {
    EraseLocked(shard, std::prev(shard.lru.end()));
    ++shard.stats.evictions;
  }
}

void PlanCache::InvalidateAll() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.stats.stale += shard.lru.size();
    ClearLocked(shard);
  }
}

size_t PlanCache::InvalidateDistribution(uint64_t content_hash) {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.by_dist.find(content_hash);
    while (it != shard.by_dist.end()) {
      EraseLocked(shard, it->second);  // also erases `it` itself
      ++shard.stats.invalidated;
      ++dropped;
      it = shard.by_dist.find(content_hash);
    }
  }
  return dropped;
}

PlanCache::Stats PlanCache::stats() const {
  Stats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
    total.insertions += shard.stats.insertions;
    total.evictions += shard.stats.evictions;
    total.stale += shard.stats.stale;
    total.invalidated += shard.stats.invalidated;
    total.rewrites_skipped += shard.stats.rewrites_skipped;
  }
  return total;
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.lru.size();
  }
  return n;
}

size_t PlanCache::aliases() const {
  size_t n = 0;
  for (const AliasIndex& index : memo_) {
    std::lock_guard<std::mutex> lock(index.mu);
    n += index.by_key.size();
  }
  return n;
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    ClearLocked(shard);
  }
}

std::string PlanCache::SaveSnapshot(serde::Encoding encoding,
                                    size_t* entries_out) const {
  // Copy the entries out under the shard locks, then serialize in
  // canonical order so the snapshot bytes are a function of the cache
  // *contents*, not of insertion history or shard layout (save → load →
  // save is byte-stable; golden snapshots stay diffable).
  std::vector<std::pair<std::string, OptimizeResult>> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const Entry& e : shard.lru) {
      entries.emplace_back(e.canonical, e.result);
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (entries_out != nullptr) *entries_out = entries.size();

  std::string out;
  serde::Writer w(&out, encoding);
  w.Tag("plan_cache_snapshot");
  w.U64(entries.size());
  for (const auto& [canonical, result] : entries) {
    w.Str(canonical);
    serde::Write(w, result);
  }
  w.Tag("end");
  return out;
}

size_t PlanCache::LoadSnapshot(std::string_view bytes) {
  serde::Reader r(bytes);
  r.ExpectTag("plan_cache_snapshot");
  uint64_t count = r.U64();
  if (count > (uint64_t{1} << 32)) {
    throw serde::SerdeError("serde: snapshot entry count implausible");
  }
  size_t loaded = 0;
  for (uint64_t i = 0; i < count; ++i) {
    QuerySignature sig;
    // Lift pre-v3 signatures to today's bytes (no-op for current ones),
    // so old snapshots keep serving hits to fresh requests.
    sig.canonical = QuerySignature::UpgradeCanonical(r.Str());
    sig.hash = Fnv1a64(sig.canonical);
    // Snapshot entries must stay reachable by precise invalidation too:
    // recover the distribution hashes from the canonical bytes.
    sig.dist_hashes = QuerySignature::ExtractDistHashes(sig.canonical);
    OptimizeResult result = serde::ReadOptimizeResult(r);
    Insert(sig, result);
    ++loaded;
  }
  r.ExpectTag("end");
  return loaded;
}

size_t PlanCache::SaveSnapshotFile(const std::string& path,
                                   serde::Encoding encoding) const {
  size_t entries = 0;
  std::string bytes = SaveSnapshot(encoding, &entries);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    throw std::runtime_error("plan cache: cannot write snapshot " + path);
  }
  return entries;
}

size_t PlanCache::LoadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("plan cache: cannot read snapshot " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadSnapshot(buf.str());
}

}  // namespace lec
