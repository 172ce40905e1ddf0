#include "daf/cursor.h"

#include <gtest/gtest.h>

#include "baselines/bruteforce.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakeCycle;
using daf::testing::MakePath;

TEST(CursorTest, EnumeratesExactlyTheEmbeddingSet) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  EmbeddingSet expected;
  MatchOptions collect;
  collect.callback = Collector(&expected);
  DafMatch(query, data, collect);

  EmbeddingCursor cursor(query, data);
  EmbeddingSet found;
  while (auto embedding = cursor.Next()) {
    EXPECT_TRUE(daf::testing::IsValidEmbedding(query, data, *embedding));
    found.insert(*embedding);
  }
  EXPECT_EQ(found, expected);
  const MatchResult& result = cursor.Finish();
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.embeddings, expected.size());
  EXPECT_TRUE(result.Complete());
}

TEST(CursorTest, NextAfterExhaustionKeepsReturningNullopt) {
  Graph data = MakePath({0, 1});
  Graph query = MakePath({0, 1});
  EmbeddingCursor cursor(query, data);
  ASSERT_TRUE(cursor.Next().has_value());
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_FALSE(cursor.Next().has_value());
}

TEST(CursorTest, EarlyAbandonStopsSearch) {
  // Huge search space; pulling 5 embeddings and destroying the cursor must
  // terminate promptly.
  std::vector<Label> labels(30, 0);
  Graph data = MakeClique(labels);
  Graph query = MakeClique(std::vector<Label>(6, 0));
  {
    EmbeddingCursor cursor(query, data);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(cursor.Next().has_value());
    }
  }  // destructor closes + joins; hang here = bug
  SUCCEED();
}

TEST(CursorTest, FinishBeforeExhaustionStopsEarly) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  EmbeddingCursor cursor(query, data);
  ASSERT_TRUE(cursor.Next().has_value());
  const MatchResult& result = cursor.Finish();
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.Complete());  // stopped early via the callback
}

TEST(CursorTest, RespectsLimitOption) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 120 embeddings
  MatchOptions options;
  options.limit = 4;
  EmbeddingCursor cursor(query, data, options);
  int count = 0;
  while (cursor.Next()) ++count;
  EXPECT_EQ(count, 4);
  EXPECT_TRUE(cursor.Finish().limit_reached);
}

TEST(CursorTest, AgreesWithBruteForceOnRandomInstances) {
  Rng rng(171);
  for (int trial = 0; trial < 8; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(40, 100 + rng.UniformInt(80), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 4 + rng.UniformInt(4), -1.0, rng);
    if (!extracted) continue;
    EmbeddingSet expected;
    baselines::MatcherOptions brute;
    brute.callback = Collector(&expected);
    baselines::BruteForceMatch(extracted->query, data, brute);
    EmbeddingCursor cursor(extracted->query, data);
    EmbeddingSet found;
    while (auto embedding = cursor.Next()) {
      EXPECT_TRUE(
          daf::testing::IsValidEmbedding(extracted->query, data, *embedding));
      found.insert(*embedding);
    }
    EXPECT_EQ(found, expected);
  }
}

TEST(CursorTest, NegativeQueryYieldsNothing) {
  Graph data = MakePath({0, 1, 0});
  Graph query = MakePath({0, 9});
  EmbeddingCursor cursor(query, data);
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_TRUE(cursor.Finish().cs_certified_negative);
}

// Resume semantics: pulling past the limit must not block or produce
// extras — the enumeration is exhausted at `limit` and every later Next()
// (including after Finish()) keeps returning nullopt.
TEST(CursorTest, PullingPastLimitKeepsReturningNullopt) {
  Graph data = MakeClique({0, 0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 120 embeddings
  MatchOptions options;
  options.limit = 4;
  EmbeddingCursor limited(query, data, options);
  int produced = 0;
  for (int pull = 0; pull < 12; ++pull) {
    auto embedding = limited.Next();
    if (embedding) {
      EXPECT_TRUE(daf::testing::IsValidEmbedding(query, data, *embedding));
      ++produced;
    } else {
      EXPECT_GE(pull, 4);
    }
  }
  EXPECT_EQ(produced, 4);
  EXPECT_TRUE(limited.Finish().limit_reached);
  EXPECT_FALSE(limited.Next().has_value());  // resume after Finish: still dry
}

// Two cursors enumerating the same (query, data) pair concurrently must
// not interfere: each one's pull sequence is an independent, complete
// enumeration even when the pulls interleave arbitrarily.
TEST(CursorTest, InterleavedCursorsEnumerateIndependently) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  EmbeddingSet expected;
  MatchOptions collect;
  collect.callback = Collector(&expected);
  DafMatch(query, data, collect);
  ASSERT_FALSE(expected.empty());

  EmbeddingCursor a(query, data);
  EmbeddingCursor b(query, data);
  EmbeddingSet found_a;
  EmbeddingSet found_b;
  // Unbalanced interleaving: a advances twice per b step.
  bool a_done = false;
  bool b_done = false;
  while (!a_done || !b_done) {
    for (int k = 0; k < 2 && !a_done; ++k) {
      if (auto e = a.Next()) {
        found_a.insert(*e);
      } else {
        a_done = true;
      }
    }
    if (!b_done) {
      if (auto e = b.Next()) {
        found_b.insert(*e);
      } else {
        b_done = true;
      }
    }
  }
  EXPECT_EQ(found_a, expected);
  EXPECT_EQ(found_b, expected);
  EXPECT_TRUE(a.Finish().Complete());
  EXPECT_TRUE(b.Finish().Complete());
}

// A timeout that fires mid-enumeration ends the stream cleanly: the pulls
// up to the cutoff are valid embeddings, the cursor then drains to nullopt
// (no hang), and the final result reports timed_out.
TEST(CursorTest, TimeoutMidEnumerationEndsStreamCleanly) {
  // ~40^7 embeddings: cannot complete within the time limit.
  Graph data = MakeClique(std::vector<Label>(40, 0));
  Graph query = MakeClique(std::vector<Label>(7, 0));
  MatchOptions options;
  options.time_limit_ms = 50;
  EmbeddingCursor cursor(query, data, options);
  uint64_t produced = 0;
  while (auto embedding = cursor.Next()) {
    if (produced < 16) {  // spot-check validity, don't drown in asserts
      EXPECT_TRUE(daf::testing::IsValidEmbedding(query, data, *embedding));
    }
    ++produced;
  }
  const MatchResult& result = cursor.Finish();
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.Complete());
  EXPECT_FALSE(cursor.Next().has_value());  // stream stays dry after timeout
}

// Sequential cursors may share one MatchContext (the warm-engine path);
// each enumeration is complete and correct.
TEST(CursorTest, SequentialCursorsShareAMatchContext) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  EmbeddingSet expected;
  MatchOptions collect;
  collect.callback = Collector(&expected);
  DafMatch(query, data, collect);

  MatchContext context;
  for (int round = 0; round < 3; ++round) {
    EmbeddingCursor cursor(query, data, {}, &context);
    EmbeddingSet found;
    while (auto embedding = cursor.Next()) found.insert(*embedding);
    EXPECT_EQ(found, expected) << "round " << round;
    EXPECT_TRUE(cursor.Finish().Complete());
  }
  // The later rounds ran entirely out of retained memory.
  EXPECT_EQ(context.arena_stats().blocks_acquired, 0u);
}

// The cursor owns the delivery channel: a caller-set callback is rejected
// in every build type (not only where asserts are compiled in). Neither
// constructor starts a search; Next() is dry and Finish() reports the error
// instead of silently dropping the caller's callback.
TEST(CursorTest, CallerCallbackIsRejected) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  uint64_t calls = 0;
  MatchOptions options;
  options.callback = [&calls](std::span<const VertexId>) {
    ++calls;
    return true;
  };
  PrepareOutcome prepared = PrepareQuery(query, data, MatchOptions{});
  ASSERT_NE(prepared.prepared, nullptr);
  EmbeddingCursor cold(query, data, options);
  EmbeddingCursor warm(prepared.prepared, data, options);
  for (EmbeddingCursor* cursor : {&cold, &warm}) {
    EXPECT_FALSE(cursor->Next().has_value());
    const MatchResult& result = cursor->Finish();
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.error.empty());
    EXPECT_EQ(result.embeddings, 0u);
    EXPECT_FALSE(cursor->Next().has_value());
  }
  EXPECT_EQ(calls, 0u);
}

}  // namespace
}  // namespace daf
