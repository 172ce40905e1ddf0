// QueryCache unit and concurrency tests: canonical-key sharing across
// relabeled resubmissions, the single-build coalescing latch, refcounted
// eviction racing an active lease (ASan proves the blob outlives the
// entry), interrupted builds never publishing, the cache_insert/cache_evict
// fault points, and budget-ledger accounting.
#include "service/query_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "daf/prepared.h"
#include "graph/canonical.h"
#include "tests/test_util.h"
#include "util/fault_inject.h"
#include "util/memory_budget.h"
#include "util/rng.h"
#include "util/stop.h"

namespace daf::service {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakePath;
using daf::testing::RandomDataGraph;

class QueryCacheTest : public ::testing::Test {
 protected:
  ~QueryCacheTest() override { FaultInjector::Disarm(); }
};

// Runs the prepared search of `lease` and returns the embeddings remapped
// into the submitted query's vertex numbering — the exact transformation
// MatchService applies on a hit.
EmbeddingSet RunLease(const QueryCache::Lease& lease, const Graph& data,
                      MatchOptions options = {}) {
  EmbeddingSet canonical;
  options.callback = Collector(&canonical);
  MatchResult r = DafMatchPrepared(*lease.prepared, data, options);
  EXPECT_TRUE(r.ok);
  EmbeddingSet out;
  for (const std::vector<VertexId>& e : canonical) {
    std::vector<VertexId> remapped(e.size());
    for (VertexId u = 0; u < remapped.size(); ++u) {
      remapped[u] = e[lease.form.to_canonical[u]];
    }
    out.insert(std::move(remapped));
  }
  return out;
}

EmbeddingSet ColdEmbeddings(const Graph& query, const Graph& data) {
  EmbeddingSet out;
  MatchOptions options;
  options.callback = Collector(&out);
  EXPECT_TRUE(DafMatch(query, data, options).ok);
  return out;
}

TEST_F(QueryCacheTest, MissThenHitSharesOneBlob) {
  QueryCache cache;
  Graph data = MakeClique(std::vector<Label>(8, 0));
  Graph query = MakeClique(std::vector<Label>(3, 0));

  QueryCache::Lease first = cache.Acquire(query, data, {});
  ASSERT_NE(first.prepared, nullptr);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);

  QueryCache::Lease second = cache.Acquire(query, data, {});
  ASSERT_NE(second.prepared, nullptr);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  EXPECT_EQ(first.prepared.get(), second.prepared.get());

  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_EQ(s.hits + s.misses + s.coalesced, s.lookups);
}

TEST_F(QueryCacheTest, PermutedResubmissionHitsAndRemapsCorrectly) {
  Rng rng(11);
  QueryCache cache;
  Graph data = RandomDataGraph(60, 150, 3, rng);
  Graph query = MakePath({0, 1, 2, 1});

  QueryCache::Lease warm = cache.Acquire(query, data, {});
  ASSERT_NE(warm.prepared, nullptr);

  for (int i = 0; i < 5; ++i) {
    SCOPED_TRACE("perm " + std::to_string(i));
    std::vector<VertexId> perm(query.NumVertices());
    std::iota(perm.begin(), perm.end(), 0u);
    rng.Shuffle(perm);
    Graph permuted = PermuteVertices(query, perm);

    QueryCache::Lease lease = cache.Acquire(permuted, data, {});
    ASSERT_NE(lease.prepared, nullptr);
    EXPECT_EQ(lease.outcome, CacheOutcome::kHit);
    EXPECT_EQ(lease.prepared.get(), warm.prepared.get());
    // The remapped hit embeddings equal a cold run on the permuted query.
    EXPECT_EQ(RunLease(lease, data), ColdEmbeddings(permuted, data));
  }
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST_F(QueryCacheTest, CsShapingOptionsKeySeparately) {
  QueryCache cache;
  Graph data = MakeClique(std::vector<Label>(6, 0));
  Graph query = MakeClique(std::vector<Label>(3, 0));

  MatchOptions injective;  // defaults
  MatchOptions homomorphism;
  homomorphism.injective = false;
  MatchOptions one_pass;
  one_pass.refinement_steps = 1;

  EXPECT_EQ(cache.Acquire(query, data, injective).outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.Acquire(query, data, homomorphism).outcome,
            CacheOutcome::kMiss);
  EXPECT_EQ(cache.Acquire(query, data, one_pass).outcome,
            CacheOutcome::kMiss);
  // Search-time options (limit, order, failing sets) do NOT key.
  MatchOptions limited;
  limited.limit = 5;
  limited.use_failing_sets = false;
  limited.order = MatchOrder::kCandidateSize;
  EXPECT_EQ(cache.Acquire(query, data, limited).outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.Stats().entries, 3u);
}

TEST_F(QueryCacheTest, ConcurrentIdenticalQueriesBuildExactlyOnce) {
  Rng rng(23);
  QueryCache cache;
  // A data graph big enough that the CS build takes real time, so the
  // threads genuinely overlap the in-flight window.
  Graph data = RandomDataGraph(3000, 12000, 2, rng);
  Graph query = MakePath({0, 1, 0, 1, 0});

  constexpr int kThreads = 8;
  std::vector<QueryCache::Lease> leases(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      leases[t] = cache.Acquire(query, data, {});
    });
  }
  for (std::thread& th : threads) th.join();

  const PreparedQuery* blob = nullptr;
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(leases[t].prepared, nullptr) << "thread " << t;
    if (blob == nullptr) blob = leases[t].prepared.get();
    EXPECT_EQ(leases[t].prepared.get(), blob) << "thread " << t;
  }
  QueryCacheStats s = cache.Stats();
  // Exactly one build, counter-verified: every other thread either waited
  // on the latch (coalesced) or arrived after publication (hit).
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(s.hits + s.coalesced, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(s.hits + s.misses + s.coalesced, s.lookups);
  EXPECT_EQ(s.entries, 1u);
}

TEST_F(QueryCacheTest, EvictionRacingActiveLeaseNeverFreesTheBlob) {
  Graph data = MakeClique(std::vector<Label>(10, 0));
  Graph held_query = MakeClique(std::vector<Label>(4, 0));

  // Cap the cache at the held blob's footprint plus a few KiB of churn
  // headroom, so LRU pressure is guaranteed to reach the held entry.
  uint64_t held_bytes;
  {
    QueryCache probe;
    probe.Acquire(held_query, data, {});
    held_bytes = probe.Stats().resident_bytes;
  }
  QueryCacheOptions options;
  options.shards = 1;  // every insert contends with the held entry
  options.max_resident_bytes = held_bytes + 4096;
  QueryCache cache(options);

  QueryCache::Lease held = cache.Acquire(held_query, data, {});
  ASSERT_NE(held.prepared, nullptr);
  const uint64_t expected = ColdEmbeddings(held_query, data).size();

  // Churn distinct patterns through the one shard until LRU pressure has
  // evicted the held entry (distinct label sequences => distinct keys).
  int churned = 0;
  while (cache.Stats().evictions == 0 && churned < 200) {
    std::vector<Label> labels(5);
    for (size_t j = 0; j < labels.size(); ++j) {
      labels[j] = static_cast<Label>((churned >> (2 * j)) & 3);
    }
    cache.Acquire(MakePath(labels), data, {});
    ++churned;
  }
  ASSERT_GT(cache.Stats().evictions, 0u);

  // The lease keeps the evicted blob alive: using it now is valid (ASan
  // enforces this mechanically) and still produces the right embeddings.
  EXPECT_EQ(RunLease(held, data).size(), expected);

  // A re-acquire after eviction is a fresh miss, not a stale hit.
  uint64_t misses_before = cache.Stats().misses;
  QueryCache::Lease again = cache.Acquire(held_query, data, {});
  ASSERT_NE(again.prepared, nullptr);
  if (cache.Stats().misses > misses_before) {
    EXPECT_NE(again.prepared.get(), held.prepared.get());
  }
}

TEST_F(QueryCacheTest, CancelledBuildPublishesNoPoisonedEntry) {
  QueryCache cache;
  Graph data = MakeClique(std::vector<Label>(8, 0));
  Graph query = MakeClique(std::vector<Label>(3, 0));

  CancelToken token;
  token.Cancel();
  MatchOptions cancelled;
  cancelled.cancel = &token;
  QueryCache::Lease lease = cache.Acquire(query, data, cancelled);
  EXPECT_EQ(lease.prepared, nullptr);
  EXPECT_EQ(lease.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(lease.interrupted, StopCause::kCancel);
  EXPECT_EQ(cache.Stats().entries, 0u);

  // The next caller is not poisoned: a clean build and a working entry.
  QueryCache::Lease retry = cache.Acquire(query, data, {});
  ASSERT_NE(retry.prepared, nullptr);
  EXPECT_EQ(retry.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(RunLease(retry, data), ColdEmbeddings(query, data));
}

TEST_F(QueryCacheTest, CancelMidBuildRacingWaitersStaysConsistent) {
  // A builder being cancelled while waiters are coalesced on its latch:
  // whatever the interleaving, nobody deadlocks, nobody gets a poisoned
  // blob, and the counters stay classified.
  Rng rng(31);
  Graph data = RandomDataGraph(2000, 8000, 2, rng);
  Graph query = MakePath({0, 1, 0, 1});
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    QueryCache cache;
    CancelToken token;
    MatchOptions with_cancel;
    with_cancel.cancel = &token;

    std::vector<std::thread> threads;
    std::vector<QueryCache::Lease> leases(3);
    threads.emplace_back(
        [&] { leases[0] = cache.Acquire(query, data, with_cancel); });
    threads.emplace_back([&] { leases[1] = cache.Acquire(query, data, {}); });
    threads.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
      token.Cancel();
    });
    for (std::thread& th : threads) th.join();

    QueryCacheStats s = cache.Stats();
    EXPECT_EQ(s.hits + s.misses + s.coalesced, s.lookups);
    // Liveness + correctness after the dust settles.
    QueryCache::Lease after = cache.Acquire(query, data, {});
    ASSERT_NE(after.prepared, nullptr);
    EXPECT_EQ(RunLease(after, data), ColdEmbeddings(query, data));
  }
}

TEST_F(QueryCacheTest, InsertFaultDropsEntryButStillServesBuilder) {
  FaultInjector::FireNth("cache_insert", 1);
  QueryCache cache;
  Graph data = MakeClique(std::vector<Label>(8, 0));
  Graph query = MakeClique(std::vector<Label>(3, 0));

  QueryCache::Lease lease = cache.Acquire(query, data, {});
  ASSERT_NE(lease.prepared, nullptr);  // the builder still gets its blob
  EXPECT_EQ(lease.outcome, CacheOutcome::kMiss);
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.insert_failures, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);

  // Nothing was retained, so the next acquire rebuilds — and retains.
  QueryCache::Lease retry = cache.Acquire(query, data, {});
  ASSERT_NE(retry.prepared, nullptr);
  EXPECT_EQ(retry.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST_F(QueryCacheTest, EvictFaultFailsTheInsertNotTheCaller) {
  Graph data = MakeClique(std::vector<Label>(10, 0));
  Graph a = MakeClique(std::vector<Label>(4, 0));
  Graph b = MakeClique(std::vector<Label>(5, 0));

  // Size the cache so exactly one blob fits: measure A's footprint first.
  uint64_t bytes_a;
  {
    QueryCache probe;
    probe.Acquire(a, data, {});
    bytes_a = probe.Stats().resident_bytes;
  }
  QueryCacheOptions options;
  options.shards = 1;
  options.max_resident_bytes = bytes_a;
  QueryCache cache(options);
  ASSERT_NE(cache.Acquire(a, data, {}).prepared, nullptr);
  ASSERT_EQ(cache.Stats().entries, 1u);

  // Inserting B must evict A; the armed fault aborts the eviction pass, so
  // the insert fails — but B's caller still gets a working blob.
  FaultInjector::FireNth("cache_evict", 1);
  QueryCache::Lease lease = cache.Acquire(b, data, {});
  ASSERT_NE(lease.prepared, nullptr);
  QueryCacheStats s = cache.Stats();
  EXPECT_GE(s.insert_failures, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);  // A survived the aborted eviction
  EXPECT_EQ(RunLease(lease, data), ColdEmbeddings(b, data));
}

TEST_F(QueryCacheTest, UncacheableQueryNeverEntersTheLookupPath) {
  QueryCacheOptions options;
  options.canonical_max_leaves = 1;  // abort any branching search
  QueryCache cache(options);
  // Petersen: 3-regular, twin-free, unlabeled — refinement cannot split it
  // and a one-leaf budget cannot finish the search.
  std::vector<Label> labels(10, 0);
  std::vector<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0},
                             {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9},
                             {5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}};
  Graph query = Graph::FromEdges(labels, edges);
  Graph data = MakeClique(std::vector<Label>(12, 0));

  QueryCache::Lease lease = cache.Acquire(query, data, {});
  EXPECT_EQ(lease.prepared, nullptr);
  EXPECT_EQ(lease.outcome, CacheOutcome::kNone);
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.uncacheable, 1u);
  EXPECT_EQ(s.lookups, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST_F(QueryCacheTest, ResidentBytesChargeTheParentLedgerAndClearReturns) {
  MemoryBudget parent;  // unlimited, pure accounting
  QueryCacheOptions options;
  options.budget = &parent;
  QueryCache cache(options);
  Graph data = MakeClique(std::vector<Label>(8, 0));

  QueryCache::Lease lease =
      cache.Acquire(MakeClique(std::vector<Label>(3, 0)), data, {});
  ASSERT_NE(lease.prepared, nullptr);
  QueryCacheStats s = cache.Stats();
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_EQ(parent.used(), s.resident_bytes);

  cache.Clear();
  EXPECT_EQ(parent.used(), 0u);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_FALSE(parent.exhausted());
  // The lease outlives Clear.
  EXPECT_EQ(RunLease(lease, data).size(),
            ColdEmbeddings(MakeClique(std::vector<Label>(3, 0)), data).size());
}

TEST_F(QueryCacheTest, ParentBudgetPressureNeverLatchesTheParent) {
  // A parent ledger too small for any blob: the insert must fail cleanly —
  // bytes returned, no entry retained, and crucially the *parent* never
  // left exhausted (that would poison every job budget chained under it).
  MemoryBudget parent(256);
  QueryCacheOptions options;
  options.budget = &parent;
  QueryCache cache(options);
  Graph data = MakeClique(std::vector<Label>(8, 0));

  QueryCache::Lease lease =
      cache.Acquire(MakeClique(std::vector<Label>(3, 0)), data, {});
  ASSERT_NE(lease.prepared, nullptr);  // caller is served regardless
  QueryCacheStats s = cache.Stats();
  EXPECT_GE(s.insert_failures, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(parent.used(), 0u);
  EXPECT_FALSE(parent.exhausted());
}

TEST_F(QueryCacheTest, PurgeBeforeDropsOlderVersionsAndKeepsLeases) {
  MemoryBudget parent;  // unlimited, pure accounting
  QueryCacheOptions options;
  options.budget = &parent;
  QueryCache cache(options);
  Graph data = MakeClique(std::vector<Label>(8, 0));
  const Graph triangle = MakeClique(std::vector<Label>(3, 0));
  const Graph path = MakePath({0, 0, 0, 0});

  QueryCache::Lease held = cache.Acquire(triangle, data, {}, /*graph_id=*/0);
  ASSERT_NE(held.prepared, nullptr);
  ASSERT_NE(cache.Acquire(path, data, {}, 0).prepared, nullptr);
  QueryCache::Lease current = cache.Acquire(triangle, data, {}, 1);
  ASSERT_NE(current.prepared, nullptr);
  ASSERT_EQ(cache.Stats().entries, 3u);

  // Version 1 installed: both version-0 entries and their bytes go, the
  // version-1 entry stays, and the purge counts as evictions.
  cache.PurgeBefore(1);
  QueryCacheStats s = cache.Stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.resident_bytes, current.prepared->resident_bytes);
  EXPECT_EQ(parent.used(), s.resident_bytes);
  EXPECT_EQ(s.evictions, 2u);

  // The held version-0 lease still searches.
  EXPECT_EQ(RunLease(held, data), ColdEmbeddings(triangle, data));

  // A late lookup at the retired version builds for its caller but is not
  // retained; the current version still hits.
  QueryCache::Lease late = cache.Acquire(path, data, {}, 0);
  ASSERT_NE(late.prepared, nullptr);
  EXPECT_EQ(late.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Acquire(triangle, data, {}, 1).outcome, CacheOutcome::kHit);

  s = cache.Stats();
  EXPECT_EQ(s.hits + s.misses + s.coalesced, s.lookups);
  EXPECT_EQ(s.insert_failures, 0u);
}

}  // namespace
}  // namespace daf::service
