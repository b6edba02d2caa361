// Concurrent plan cache — the serving layer's reuse seam.
//
// A production optimizer service sees the same query shapes over and over:
// dashboards re-issue identical blocks, ORMs stamp out one template with
// the same statistics, a restarted worker re-optimizes yesterday's whole
// corpus. ChuHS99's formulation makes those requests *canonicalizable* —
// an optimization is a pure function of (strategy, query structure,
// statistics distributions, memory distribution, option fingerprint), all
// of which serialize to canonical bytes — and therefore cacheable. The
// PlanCache memoizes whole OptimizeResults under that canonical signature.
//
// Key (QuerySignature::Compute): the canonical serde bytes of everything a
// strategy's result depends on — strategy name, the result-affecting
// OptimizerOptions fields (for Algorithm A/B that includes whether an EC
// cache is attached: their cached scoring reassociates floating-point
// sums, so cache-on and cache-off are distinct worlds; for every other
// strategy memoization is bit-transparent and the pointer is ignored),
// per-position table pages +
// size distributions (full buckets AND their ContentHash), the predicate
// set with endpoint order normalized (a join predicate is symmetric:
// A.x = B.y and B.y = A.x optimize identically, bit for bit), the required
// order, the memory distribution, and the strategy-specific knobs actually
// consumed (the Markov chain only for lec_dynamic, top_c only for
// algorithm_b, the seed only for randomized, ...). Because the full
// canonical string is stored and compared on lookup, a 64-bit hash
// collision degrades to a miss, never to a wrong plan. Join-graph
// isomorphism (relabeling tables, reordering the predicate *list*) is NOT
// normalized here — it is the canonicalization rewrite pass's job
// (rewrite/rewrite.h): with OptimizerOptions::rewrite_mode on, the facade
// relabels the query into a content-hash canonical order BEFORE computing
// the signature, so every relabeling maps to the same bytes (schema v3)
// and the cached plan is already expressed in canonical positions —
// nothing needs relabeling on the way out. Raw (rewrite-off) requests
// keep the old behavior: relabelings are distinct entries, because
// serving across a relabeling would require remapping plan indices and
// reassociating selectivity products — breaking the bit-identity contract
// below. See DESIGN.md, "Plan cache & serialization" and "Rewrite passes".
//
// Request memo: with rewrite_mode on, the facade would otherwise re-run
// every rewrite pass and re-sign the rewritten query before each lookup,
// even for a request it served a moment ago. So each entry also keeps up
// to kMaxAliasesPerEntry ALIASES: the RequestKey of a raw (pre-rewrite)
// request that resolved to the entry, plus that request's RewriteOutcome.
// Optimize builds the raw key first; LookupRequest finds its alias (hash,
// then a full byte compare, like the canonical index) and serves the entry
// with the stored outcome, skipping the rewrite and the signature. The
// memo hit is accounted exactly like a canonical Lookup hit (LRU refresh,
// hits + 1), so hits, misses, evictions and LRU order are the same request
// for request with or without the memo; stats().rewrites_skipped counts
// the memo hits among the hits. Aliases hang off their entry: every path
// that drops an entry (eviction, InvalidateDistribution, InvalidateAll,
// Clear) drops them with it, and an Insert that replaces an entry's
// result (a racing duplicate, LoadSnapshot) replaces its aliases too, so
// the memo is never larger than kMaxAliasesPerEntry x the cache. An alias
// holds only its raw key and its outcome — never the canonical bytes.
//
// Correctness contract (pinned by tests/plan_cache_test.cc and fuzz
// invariant I8): a cache hit returns an OptimizeResult BIT-IDENTICAL to
// recomputing — same objective bits, structurally equal plan, same
// counters. The one exception is elapsed_seconds, which always reports the
// serving call's own wall time. This holds because every registered
// strategy is deterministic in the signature's inputs (randomized search
// is seeded, and the seed is in the signature).
//
// Concurrency: lookups and inserts take one shard mutex each (the shard is
// chosen by signature hash), so the cache is safe to share across the
// serving pipeline's workers. Eviction is per-shard LRU under a global
// entry cap. The alias
// index is sharded by raw-key hash under its own leaf mutexes: a path that
// holds a shard mutex may take one alias-index mutex, never the reverse
// (LookupRequest releases the index mutex before it takes the entry's
// shard mutex, and re-checks that the alias is still attached).
//
// Invalidation — the serving seam for "statistics drifted, stop trusting
// old plans" — comes in two grains. InvalidateDistribution(hash) is the
// precise one: each entry is linked in a per-shard reverse index under the
// ContentHash of every Distribution its signature consumed, so a
// re-derived statistic (src/stats/) drops exactly the plans that read its
// predecessor and nothing else. InvalidateAll() is the blunt fallback: it
// clears every shard under that shard's lock, so dead entries release
// their cap slots at once (counted in stats().stale).
//
// Persistence: SaveSnapshot/LoadSnapshot serialize every live entry
// through service/serde.h (bit-exact doubles), so a restarted service
// warm-loads yesterday's plans and serves its first requests from cache.
// Snapshots are written in canonical-signature order, making save →
// load → save byte-stable regardless of insertion history.
#ifndef LECOPT_SERVICE_PLAN_CACHE_H_
#define LECOPT_SERVICE_PLAN_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "optimizer/optimizer.h"
#include "service/serde.h"

namespace lec {

/// The canonical identity of one optimization request. `canonical` is the
/// exact byte string the cache compares on lookup; `hash` (FNV-1a over
/// those bytes) picks the shard and the bucket.
struct QuerySignature {
  std::string canonical;
  uint64_t hash = 0;
  /// ContentHashes of every Distribution the signature consumed (table
  /// size dists, predicate selectivities, the memory distribution),
  /// sorted and deduplicated. Side information for the cache's precise
  /// invalidation index — NOT part of the compared canonical bytes
  /// (they are recoverable from them; see ExtractDistHashes).
  std::vector<uint64_t> dist_hashes;

  /// Canonicalizes (strategy, request) as described in the header comment.
  /// Requires the same non-null fields Optimizer::Optimize requires (and
  /// `chain` for lec_dynamic); throws std::invalid_argument otherwise.
  static QuerySignature Compute(StrategyId id, const OptimizeRequest& request);

  /// Re-derives `dist_hashes` from canonical bytes (the signature stream
  /// already serializes each distribution's ContentHash ahead of its
  /// buckets). Used by LoadSnapshot, where only the bytes survive. Accepts
  /// schema v2 and v3 streams; throws serde::SerdeError on malformed or
  /// version-skewed input.
  static std::vector<uint64_t> ExtractDistHashes(std::string_view canonical);

  /// The v2→v3 upgrade path: re-serializes a schema-v2 canonical string as
  /// the exact v3 bytes Compute would produce for the same request today
  /// (the only v3 addition, rewrite_mode, defaults to kOff — precisely
  /// what every v2-era request meant). v3 input is returned unchanged, so
  /// LoadSnapshot runs every entry through this and a v2-era snapshot
  /// keeps serving hits to fresh rewrite-off requests. Throws
  /// serde::SerdeError on malformed input.
  static std::string UpgradeCanonical(std::string_view canonical);
};

/// FNV-1a, the signature/shard hash (also used by the snapshot loader).
uint64_t Fnv1a64(std::string_view bytes);

/// The memo key of one raw (pre-rewrite) request: binary serde bytes of
/// every input of StandardPassManager().Run and QuerySignature::Compute —
/// the strategy, the resolved SIMD tier, the options fingerprint, the
/// cost-model flags, the whole catalog (the RewriteOutcome copies it), the
/// query as given (tables, predicates in list order with their direction,
/// filters, required order), the memory distribution and the strategy
/// knobs. Two requests with equal keys rewrite to equal outcomes and sign
/// to equal signatures. Also the pipeline's coalescing key.
struct RequestKey {
  /// Clears `*out`, appends the key bytes (reusing its capacity) and
  /// returns their hash: a word-at-a-time mix, not FNV, since it keys only
  /// process-local indexes, never shards or snapshots. Same preconditions
  /// and exceptions as QuerySignature::Compute.
  static uint64_t ComputeInto(StrategyId id, const OptimizeRequest& request,
                              std::string* out);
};

class PlanCache {
 public:
  struct Options {
    /// Global cap on cached entries; per-shard LRU eviction keeps each
    /// shard at ~max_entries/shards. Values < 1 are treated as 1.
    size_t max_entries = 4096;
    /// Lock shards. More shards = less contention, slightly looser LRU
    /// (eviction order is per-shard). Values < 1 are treated as 1.
    int shards = 16;
  };

  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t insertions = 0;
    size_t evictions = 0;
    /// Entries dropped by InvalidateAll().
    size_t stale = 0;
    /// Entries dropped by InvalidateDistribution (precise invalidation).
    size_t invalidated = 0;
    /// Hits served through a request alias, which skipped the rewrite
    /// passes and the signature. Always <= hits.
    size_t rewrites_skipped = 0;

    size_t lookups() const { return hits + misses; }
  };

  /// A raw request's alias, handed to Lookup/Insert by the facade on a
  /// memo miss so the entry the request resolves to remembers it.
  struct RequestAlias {
    std::string_view key;  ///< RequestKey bytes (copied on attach)
    uint64_t key_hash = 0;
    std::shared_ptr<const rewrite::RewriteOutcome> rewrite;
  };

  /// Aliases one entry keeps; attaching another drops its oldest.
  static constexpr size_t kMaxAliasesPerEntry = 8;

  PlanCache();  // default Options
  explicit PlanCache(Options options);

  /// The cached result for `sig`, or nullopt. A hit refreshes LRU
  /// recency. The returned result shares the immutable plan tree with the
  /// cache — safe, plan nodes are never mutated.
  /// With `alias`, a hit also attaches it to the entry.
  std::optional<OptimizeResult> Lookup(const QuerySignature& sig,
                                       const RequestAlias* alias = nullptr);

  /// Inserts (or refreshes) the result for `sig`, evicting the shard's LRU
  /// tail if the cap is exceeded. A refresh replaces the entry's aliases;
  /// `alias`, if given, becomes the entry's one alias.
  void Insert(const QuerySignature& sig, const OptimizeResult& result,
              const RequestAlias* alias = nullptr);

  /// The memo path: the entry some earlier request with these RequestKey
  /// bytes resolved to, served as a Lookup hit with that request's
  /// RewriteOutcome stamped on `rewrite`. Nullopt — counting nothing —
  /// when no live alias matches; the caller then rewrites, signs and
  /// calls Lookup as usual.
  std::optional<OptimizeResult> LookupRequest(std::string_view key,
                                              uint64_t key_hash);

  /// Drops every entry, shard by shard under each shard's lock, counting
  /// them in stats().stale. An Insert racing the call lands either before
  /// its shard is cleared (and is dropped) or after (and is kept). The blunt
  /// fallback for "everything drifted" — for a single changed
  /// distribution use InvalidateDistribution.
  void InvalidateAll();

  /// Precise invalidation: drops exactly the entries whose signature
  /// consumed the distribution with this ContentHash (table size dist,
  /// predicate selectivity, or memory distribution), via a per-shard
  /// reverse index maintained on insert/evict. Returns the number of
  /// entries dropped (also counted in stats().invalidated). The serving
  /// seam for sketch-driven stats drift: a re-derived distribution stales
  /// only the plans that actually read its predecessor.
  size_t InvalidateDistribution(uint64_t content_hash);

  /// Aggregated over shards (takes each shard lock briefly).
  Stats stats() const;
  size_t size() const;
  /// Request aliases attached across all entries.
  size_t aliases() const;
  size_t max_entries() const { return max_entries_; }
  void Clear();

  // -- Snapshots ------------------------------------------------------------

  /// Serializes every entry, sorted by canonical signature; `entries_out`
  /// (optional) reports how many were written. Text encoding is the
  /// golden-snapshot format; binary is denser for big caches.
  std::string SaveSnapshot(serde::Encoding encoding = serde::Encoding::kText,
                           size_t* entries_out = nullptr) const;

  /// Inserts every entry of a snapshot (normal eviction applies); returns
  /// the number admitted. Throws serde::SerdeError on a
  /// malformed or version-skewed snapshot.
  size_t LoadSnapshot(std::string_view bytes);

  /// File convenience wrappers; throw std::runtime_error on I/O failure.
  /// SaveSnapshotFile returns the number of entries written.
  size_t SaveSnapshotFile(
      const std::string& path,
      serde::Encoding encoding = serde::Encoding::kText) const;
  size_t LoadSnapshotFile(const std::string& path);

 private:
  struct Shard;
  struct Alias;

  struct Entry {
    std::string canonical;
    OptimizeResult result;
    /// Sorted, deduplicated ContentHashes of the distributions this
    /// entry's signature consumed — the keys under which it is linked in
    /// the shard's reverse index.
    std::vector<uint64_t> dist_hashes;
    /// Oldest first; at most kMaxAliasesPerEntry.
    std::vector<std::shared_ptr<Alias>> aliases;
  };

  /// One attached request alias. `key`, `key_hash`, `rewrite` and `shard`
  /// are immutable; `live` and `entry` are guarded by shard->mu. Shared
  /// between its entry and the alias index, so a LookupRequest that found
  /// it can still read `live` after the entry is gone.
  struct Alias {
    std::string key;
    uint64_t key_hash = 0;
    std::shared_ptr<const rewrite::RewriteOutcome> rewrite;
    Shard* shard = nullptr;
    bool live = true;
    std::list<Entry>::iterator entry;
  };

  /// Raw-key hash -> alias, one of memo_.size() leaf-locked slices.
  struct AliasIndex {
    mutable std::mutex mu;
    std::unordered_multimap<uint64_t, std::shared_ptr<Alias>> by_key;
  };

  /// One lock shard: LRU list (front = most recent) plus an index into it.
  /// The index key views Entry::canonical — std::list nodes are stable and
  /// splice() never moves elements, so the views stay valid for the
  /// entry's lifetime. `by_dist` is the reverse index ContentHash → entry
  /// for InvalidateDistribution; every entry is linked under each of its
  /// dist_hashes, and unlinked on every erase path (eviction, precise
  /// invalidation, InvalidateAll, Clear).
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    std::unordered_multimap<uint64_t, std::list<Entry>::iterator> by_dist;
    Stats stats;
  };

  Shard& ShardFor(uint64_t hash) {
    return shards_[hash % shards_.size()];
  }
  const Shard& ShardFor(uint64_t hash) const {
    return shards_[hash % shards_.size()];
  }

  AliasIndex& IndexFor(uint64_t key_hash) {
    return memo_[key_hash % memo_.size()];
  }

  /// Erases the entry and its aliases from lru, index, by_dist and the
  /// alias index (caller holds shard.mu; counter accounting is the
  /// caller's).
  void EraseLocked(Shard& shard, std::list<Entry>::iterator entry_it);
  /// Drops the whole shard (caller holds shard.mu).
  void ClearLocked(Shard& shard);
  /// Detaches one alias and unlinks it from the alias index (caller holds
  /// its shard's mu).
  void UnlinkAlias(const std::shared_ptr<Alias>& alias);
  /// Attaches `alias` to the entry unless its key is already attached
  /// (caller holds shard.mu).
  void AttachLocked(Shard& shard, std::list<Entry>::iterator entry_it,
                    const RequestAlias& alias);

  std::vector<Shard> shards_;
  std::vector<AliasIndex> memo_;
  size_t max_entries_;
  size_t per_shard_cap_;
};

}  // namespace lec

#endif  // LECOPT_SERVICE_PLAN_CACHE_H_
