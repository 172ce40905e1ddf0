#ifndef DAF_SERVICE_QUERY_CACHE_H_
#define DAF_SERVICE_QUERY_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "daf/prepared.h"
#include "graph/canonical.h"
#include "graph/graph.h"
#include "service/job.h"
#include "util/memory_budget.h"

namespace daf::service {

/// Sizing and policy knobs of a QueryCache.
struct QueryCacheOptions {
  /// Independent shards (keys are hash-partitioned); more shards = less
  /// lock contention between workers resolving different patterns.
  uint32_t shards = 8;
  /// Total resident-bytes cap across all shards (0 = unlimited). Inserting
  /// past it evicts LRU entries from the inserting key's shard; an entry
  /// that does not fit even into an empty shard is simply not cached.
  uint64_t max_resident_bytes = 64ull << 20;
  /// Optional ledger (not owned; e.g. the service-global MemoryBudget) that
  /// resident cache bytes are charged to through a private child budget.
  /// Insertion pre-checks headroom and evicts until the charge fits, so the
  /// cache never pushes the parent over its limit (which would exhaust
  /// every job budget chained under it).
  MemoryBudget* budget = nullptr;
  /// Individualization-search leaf cap of the canonicalizer; queries whose
  /// canonization overruns it are treated as uncacheable.
  uint64_t canonical_max_leaves = 65536;
  /// Fingerprint of the data graph (a version/generation id); part of every
  /// key, so one cache instance can survive graph swaps without serving
  /// stale candidate spaces.
  uint64_t graph_id = 0;
};

/// Monotonic counters plus the current footprint of a QueryCache. The
/// classification invariant: every Acquire on a cacheable query is exactly
/// one of hit / miss / coalesced, so `hits + misses + coalesced == lookups`
/// always holds; uncacheable queries are counted separately and never
/// enter the lookup path.
struct QueryCacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;        // served from a resident entry
  uint64_t misses = 0;      // this caller built (insert may still fail)
  uint64_t coalesced = 0;   // waited on another caller's in-flight build
  uint64_t evictions = 0;   // entries removed by LRU pressure or a purge
  uint64_t insert_failures = 0;  // built but not retained (fault/pressure)
  uint64_t uncacheable = 0;      // canonization overran its leaf cap
  uint64_t resident_bytes = 0;   // current footprint
  uint64_t entries = 0;          // current entry count
};

/// A sharded, refcounted, canonically-keyed LRU cache of PreparedQuery
/// blobs — the cross-query reuse layer of ROADMAP item 3.
///
/// Keying: the submitted query is canonicalized (graph/canonical.h), and the
/// canonical encoding is extended with the CS-shaping option fingerprint
/// (CsFingerprint: refinement steps, NLF/MND filters, injectivity) and the
/// data-graph id.
/// Any two submissions that are isomorphic as labeled graphs — arbitrary
/// vertex relabelings included — therefore share one entry; options that
/// only affect the *search* (order, failing sets, limits, equivalence,
/// parallelism) deliberately do not key, because the cached prefix is
/// identical under all of them.
///
/// Concurrency: entries are std::shared_ptr<const PreparedQuery>, so a hit
/// leases the blob read-only and eviction never frees memory still in use —
/// the last lease holder does. Concurrent identical misses coalesce: the
/// first caller registers a per-key in-flight latch and builds; everyone
/// else blocks on the latch (polling their own cancel token) and shares the
/// one build. A build that is cancelled or interrupted resolves the latch
/// empty and unregisters it — no poisoned entry is ever published; waiters
/// and later callers fall back to a cold build.
///
/// Memory: each entry's resident_bytes counts against `max_resident_bytes`
/// and (when configured) against a child ledger under `budget`; insertion
/// evicts LRU-first until the new entry fits and gives up (keeping the blob
/// for the requesting caller only) when it cannot.
class QueryCache {
 public:
  /// The outcome of one Acquire. A null `prepared` means the cache cannot
  /// serve this submission — the query is uncacheable (`outcome` kNone),
  /// the build was interrupted (`interrupted` names the cause), or a
  /// coalesced wait ended without a blob — and the caller should run the
  /// ordinary cold path on the *submitted* query.
  ///
  /// A non-null `prepared` is a lease: the blob stays valid for as long as
  /// the shared_ptr is held, across any concurrent eviction. Searches run
  /// against the blob's *canonical* query graph; an embedding e of it maps
  /// back to the submitted vertex numbering as
  ///   e_submitted[u] = e[form.to_canonical[u]].
  struct Lease {
    std::shared_ptr<const PreparedQuery> prepared;
    CanonicalQuery form;
    CacheOutcome outcome = CacheOutcome::kNone;
    /// Why the build produced no blob (kNone otherwise). On the miss path
    /// this is the caller's own cancel/deadline/budget firing mid-build; on
    /// the coalesced path it may be the *builder's* — the caller should
    /// then fall back cold rather than fail its job.
    StopCause interrupted = StopCause::kNone;
  };

  explicit QueryCache(QueryCacheOptions options = {});
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Resolves one submission: canonicalize, then hit / coalesce / build.
  /// `options` supplies both the CS-shaping fingerprint and the build's
  /// stop sources (cancel, time_limit_ms, memory_budget) — a miss builds
  /// under the calling job's own deadline and budget, exactly like a cold
  /// run. `graph_id` is the version of `data` at this call (on top of the
  /// construction-time QueryCacheOptions::graph_id): it keys the lookup, so
  /// blobs built against an older version of a mutating graph can never be
  /// served after an update; PurgeBefore drops them as soon as a newer
  /// version is installed. Thread-safe; any number of workers may call
  /// concurrently.
  Lease Acquire(const Graph& query, const Graph& data,
                const MatchOptions& options, uint64_t graph_id = 0);

  /// Point-in-time counter snapshot (lock-free).
  QueryCacheStats Stats() const;

  /// Drops every resident entry (leases stay valid). In-flight builds are
  /// not affected; they may still publish afterwards.
  void Clear();

  /// Drops every resident entry keyed to a graph version below `graph_id`
  /// and stops retaining builds for such versions (an in-flight build for
  /// an old version still serves its caller and waiters, but is not
  /// inserted). Call after installing version `graph_id`: those blobs can
  /// never be hit again. Purged entries count as evictions; leases stay
  /// valid.
  void PurgeBefore(uint64_t graph_id);

 private:
  struct InFlight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const PreparedQuery> result;  // null => build failed
    StopCause cause = StopCause::kNone;
  };

  using Key = std::vector<uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };
  struct Entry {
    std::shared_ptr<const PreparedQuery> blob;
    uint64_t bytes = 0;
    std::list<Key>::iterator lru_it;  // position in Shard::lru
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, Entry, KeyHash> entries;
    std::list<Key> lru;  // front = most recently used
    std::unordered_map<Key, std::shared_ptr<InFlight>, KeyHash> in_flight;
  };

  Shard& ShardFor(const Key& key);
  /// Evicts `shard`'s LRU tail entry; false when the shard is empty or the
  /// cache_evict fault point fired. Caller holds shard.mutex.
  bool EvictOne(Shard& shard);
  /// Removes the entry at `it` and returns its bytes to the ledger. Caller
  /// holds shard.mutex.
  void Erase(Shard& shard,
             std::unordered_map<Key, Entry, KeyHash>::iterator it);
  /// Makes room for and inserts (key, blob); false when the entry was not
  /// retained (counted as insert_failure). Caller holds shard.mutex.
  bool Insert(Shard& shard, const Key& key,
              std::shared_ptr<const PreparedQuery> blob);

  const QueryCacheOptions options_;
  /// Resident bytes charge through this leaf so an over-limit cache charge
  /// latches exhaustion here (harmless, reset immediately) and never on the
  /// shared parent.
  MemoryBudget ledger_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::atomic<uint64_t> lookups_{0};
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> coalesced_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> insert_failures_{0};
  mutable std::atomic<uint64_t> uncacheable_{0};
  std::atomic<uint64_t> resident_bytes_{0};
  std::atomic<uint64_t> entries_{0};
  /// Lowest graph version still retained (PurgeBefore's argument).
  std::atomic<uint64_t> version_floor_{0};
};

}  // namespace daf::service

#endif  // DAF_SERVICE_QUERY_CACHE_H_
