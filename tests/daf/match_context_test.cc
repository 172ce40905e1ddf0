#include "daf/match_context.h"

#include <gtest/gtest.h>

#include <vector>

#include "daf/engine.h"
#include "daf/parallel.h"
#include "graph/query_extract.h"
#include "obs/metrics.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakePath;

// Regression test for the warm-engine contract: the second DafMatch on a
// warmed MatchContext performs zero arena block allocations, and the
// SearchProfile memory counters report exactly that.
TEST(MatchContextTest, SecondRunWithWarmContextAcquiresNoBlocks) {
  Rng rng(311);
  Graph data = daf::testing::RandomDataGraph(60, 150, 3, rng);
  auto extracted = ExtractRandomWalkQuery(data, 6, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());
  const Graph& query = extracted->query;

  MatchContext context;
  obs::SearchProfile profile;
  MatchOptions opts;
  opts.profile = &profile;

  MatchResult first = DafMatch(query, data, opts, &context);
  ASSERT_TRUE(first.ok);
  EXPECT_GT(profile.memory.arena_blocks_acquired, 0u);  // cold: must allocate
  EXPECT_GT(profile.memory.arena_bytes, 0u);
  const uint64_t cold_bytes = profile.memory.arena_bytes;

  MatchResult second = DafMatch(query, data, opts, &context);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.embeddings, first.embeddings);
  EXPECT_EQ(profile.memory.arena_blocks_acquired, 0u);  // zero steady-state
  EXPECT_EQ(profile.memory.arena_bytes, cold_bytes);    // same query, same CS
  EXPECT_EQ(context.arena_stats().blocks_acquired, 0u);
  EXPECT_GE(profile.memory.arena_capacity_bytes, cold_bytes);
}

// A context reused across *different* queries settles: once every query has
// been seen, a second pass over all of them allocates nothing.
TEST(MatchContextTest, VaryingQueriesSettleToZeroAllocations) {
  Rng rng(313);
  Graph data = daf::testing::RandomDataGraph(70, 180, 3, rng);
  std::vector<Graph> queries;
  for (int i = 0; i < 6 && queries.size() < 4; ++i) {
    auto extracted = ExtractRandomWalkQuery(
        data, 4 + static_cast<uint32_t>(rng.UniformInt(5)), -1.0, rng);
    if (extracted) queries.push_back(std::move(extracted->query));
  }
  ASSERT_GE(queries.size(), 2u);

  MatchContext context;
  std::vector<uint64_t> cold_counts;
  for (const Graph& q : queries) {
    MatchResult r = DafMatch(q, data, {}, &context);
    ASSERT_TRUE(r.ok);
    cold_counts.push_back(r.embeddings);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    MatchResult r = DafMatch(queries[i], data, {}, &context);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.embeddings, cold_counts[i]);
    EXPECT_EQ(context.arena_stats().blocks_acquired, 0u)
        << "query " << i << " allocated on a settled context";
  }
}

// Warm runs must be bit-for-bit equivalent to cold runs: the embedding sets
// agree, not just the counts.
TEST(MatchContextTest, WarmResultsMatchColdResults) {
  Rng rng(317);
  Graph data = daf::testing::RandomDataGraph(50, 120, 3, rng);
  MatchContext context;
  for (int trial = 0; trial < 5; ++trial) {
    auto extracted = ExtractRandomWalkQuery(
        data, 4 + static_cast<uint32_t>(rng.UniformInt(4)), -1.0, rng);
    if (!extracted) continue;
    EmbeddingSet cold;
    MatchOptions cold_opts;
    cold_opts.callback = Collector(&cold);
    ASSERT_TRUE(DafMatch(extracted->query, data, cold_opts).ok);

    EmbeddingSet warm;
    MatchOptions warm_opts;
    warm_opts.callback = Collector(&warm);
    ASSERT_TRUE(DafMatch(extracted->query, data, warm_opts, &context).ok);
    EXPECT_EQ(warm, cold) << "trial " << trial;
  }
}

TEST(MatchContextTest, TrimReleasesRetainedMemory) {
  Rng rng(331);
  Graph data = daf::testing::RandomDataGraph(50, 120, 3, rng);
  auto extracted = ExtractRandomWalkQuery(data, 6, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());

  MatchContext context;
  MatchResult first = DafMatch(extracted->query, data, {}, &context);
  ASSERT_TRUE(first.ok);
  ASSERT_GT(context.arena_stats().capacity_bytes, 0u);

  context.Trim();
  EXPECT_EQ(context.arena_stats().capacity_bytes, 0u);

  // The context re-warms transparently.
  MatchResult again = DafMatch(extracted->query, data, {}, &context);
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.embeddings, first.embeddings);
  EXPECT_GT(context.arena_stats().blocks_acquired, 0u);
}

// ParallelDafMatch shares one context across its workers and gets the same
// warm behavior: the second run allocates no arena blocks.
TEST(MatchContextTest, ParallelRunReusesASharedContext) {
  Rng rng(337);
  Graph data = daf::testing::RandomDataGraph(60, 150, 3, rng);
  auto extracted = ExtractRandomWalkQuery(data, 6, -1.0, rng);
  ASSERT_TRUE(extracted.has_value());
  MatchResult serial = DafMatch(extracted->query, data, {});
  ASSERT_TRUE(serial.ok);

  MatchContext context;
  MatchResult first = ParallelDafMatch(extracted->query, data, {}, 2, &context);
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.embeddings, serial.embeddings);

  MatchResult second =
      ParallelDafMatch(extracted->query, data, {}, 2, &context);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.embeddings, serial.embeddings);
  EXPECT_EQ(context.arena_stats().blocks_acquired, 0u);
}

// Early exits (CS-certified negatives) still report the memory profile.
TEST(MatchContextTest, MemoryProfileFilledOnCertifiedNegative) {
  Graph data = MakePath({0, 1, 0});
  Graph query = MakePath({0, 9});  // label 9 absent from the data graph
  MatchContext context;
  obs::SearchProfile profile;
  MatchOptions opts;
  opts.profile = &profile;
  MatchResult result = DafMatch(query, data, opts, &context);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.cs_certified_negative);
  EXPECT_EQ(profile.memory.arena_bytes, context.arena_stats().bytes_used);
  EXPECT_EQ(profile.memory.arena_capacity_bytes,
            context.arena_stats().capacity_bytes);
}

}  // namespace
}  // namespace daf
