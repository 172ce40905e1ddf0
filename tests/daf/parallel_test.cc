#include "daf/parallel.h"

#include <gtest/gtest.h>

#include <mutex>
#include <vector>

#include "baselines/bruteforce.h"
#include "daf/prepared.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakeCycle;

TEST(ParallelTest, MatchesSequentialWithoutLimit) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(50, 120 + rng.UniformInt(120), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 4 + rng.UniformInt(4), -1.0, rng);
    if (!extracted) continue;
    MatchResult sequential = DafMatch(extracted->query, data);
    for (uint32_t threads : {1u, 2u, 4u}) {
      MatchResult parallel =
          ParallelDafMatch(extracted->query, data, MatchOptions{}, threads);
      ASSERT_TRUE(parallel.ok);
      EXPECT_EQ(parallel.embeddings, sequential.embeddings)
          << "threads=" << threads;
      EXPECT_EQ(parallel.threads_used, threads);
    }
  }
}

TEST(ParallelTest, ProducesExactEmbeddingSet) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  EmbeddingSet expected;
  MatchOptions seq;
  seq.callback = Collector(&expected);
  DafMatch(query, data, seq);

  EmbeddingSet found;
  MatchOptions par;
  par.callback = Collector(&found);  // engine serializes callback
  MatchResult result = ParallelDafMatch(query, data, par, 4);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(found, expected);
  EXPECT_EQ(result.embeddings, expected.size());
}

TEST(ParallelTest, RespectsLimitExactly) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 7*6*5 = 210 embeddings
  for (ParallelStrategy strategy :
       {ParallelStrategy::kWorkStealing, ParallelStrategy::kRootCursor}) {
    MatchOptions opts;
    opts.limit = 50;
    opts.parallel_strategy = strategy;
    MatchResult result = ParallelDafMatch(query, data, opts, 4);
    ASSERT_TRUE(result.ok);
    EXPECT_TRUE(result.limit_reached);
    // Claim-before-count on the shared counter: the reported count equals
    // the limit exactly, as in a single-threaded run — no overshoot from
    // in-flight embeddings.
    EXPECT_EQ(result.embeddings, 50u);
  }
}

TEST(ParallelTest, PerThreadCallsSumToTotal) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  MatchResult result = ParallelDafMatch(query, data, MatchOptions{}, 3);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.per_thread_calls.size(), 3u);
  uint64_t sum = 0;
  for (uint64_t c : result.per_thread_calls) sum += c;
  EXPECT_EQ(sum, result.recursive_calls);
}

TEST(ParallelTest, EveryEntryPointReportsItsThreads) {
  // One result type: the single-threaded entry points report one worker
  // that did all the calls, with no scheduler activity.
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  PrepareOutcome prepared = PrepareQuery(query, data, MatchOptions{});
  ASSERT_NE(prepared.prepared, nullptr);
  for (const MatchResult& r :
       {DafMatch(query, data), ParallelDafMatch(query, data, {}, 1),
        DafMatchPrepared(*prepared.prepared, data, {})}) {
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.embeddings, 60u);
    EXPECT_EQ(r.threads_used, 1u);
    EXPECT_EQ(r.per_thread_calls, std::vector<uint64_t>{r.recursive_calls});
    EXPECT_EQ(r.call_imbalance, 1.0);
    EXPECT_EQ(r.tasks_executed, 0u);
    EXPECT_EQ(r.steals, 0u);
    EXPECT_EQ(r.donations, 0u);
  }
  const MatchResult parallel =
      ParallelDafMatchPrepared(*prepared.prepared, data, {}, 3);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(parallel.threads_used, 3u);
  EXPECT_EQ(parallel.per_thread_calls.size(), 3u);
  EXPECT_GT(parallel.tasks_executed, 0u);
}

TEST(ParallelTest, SupportsDisconnectedQueries) {
  // Edge (6 ordered embeddings in K3) x isolated third vertex (1 choice
  // left) = 6.
  Graph data = MakeClique({0, 0, 0});
  Graph query = Graph::FromEdges({0, 0, 0}, {{0, 1}});
  MatchResult result = ParallelDafMatch(query, data, MatchOptions{}, 2);
  ASSERT_TRUE(result.ok);
  baselines::MatcherResult brute = baselines::BruteForceMatch(query, data);
  EXPECT_EQ(result.embeddings, brute.embeddings);
}

TEST(ParallelTest, HomomorphismModeAgrees) {
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  MatchOptions hom;
  hom.injective = false;
  MatchResult parallel = ParallelDafMatch(query, data, hom, 3);
  MatchResult sequential = DafMatch(query, data, hom);
  ASSERT_TRUE(parallel.ok && sequential.ok);
  EXPECT_EQ(parallel.embeddings, sequential.embeddings);
}

TEST(ParallelTest, ZeroThreadsClampsToOne) {
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  MatchResult result = ParallelDafMatch(query, data, MatchOptions{}, 0);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.threads_used, 1u);
  EXPECT_EQ(result.embeddings, 24u);
}

TEST(ParallelTest, NegativeQueryCertifiedWithoutSearch) {
  Graph data = MakeClique({0, 0, 0});
  Graph query = MakeCycle({0, 0, 7});
  MatchResult result = ParallelDafMatch(query, data, MatchOptions{}, 2);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.cs_certified_negative);
  EXPECT_EQ(result.embeddings, 0u);
}

}  // namespace
}  // namespace daf
