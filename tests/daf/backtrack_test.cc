#include "daf/backtrack.h"

#include <gtest/gtest.h>

#include "daf/candidate_space.h"
#include "daf/query_dag.h"
#include "daf/weights.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;
using daf::testing::MakeClique;
using daf::testing::MakeCycle;
using daf::testing::MakePath;

struct Pipeline {
  QueryDag dag;
  CandidateSpace cs;
  WeightArray weights;

  Pipeline(const Graph& query, const Graph& data)
      : dag(QueryDag::Build(query, data)),
        cs(CandidateSpace::Build(query, dag, data)),
        weights(WeightArray::Compute(dag, cs)) {}
};

TEST(BacktrackTest, ReusableAcrossRuns) {
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  Pipeline p(query, data);
  Backtracker bt(query, p.dag, p.cs, &p.weights, data.NumVertices());
  BacktrackOptions opts;
  BacktrackStats first = bt.Run(opts);
  BacktrackStats second = bt.Run(opts);
  EXPECT_EQ(first.embeddings, 24u);
  EXPECT_EQ(second.embeddings, first.embeddings);
  EXPECT_EQ(second.recursive_calls, first.recursive_calls);
}

TEST(BacktrackTest, CandidateSizeOrderWorksWithoutWeights) {
  Graph data = MakeClique({0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});
  Pipeline p(query, data);
  Backtracker bt(query, p.dag, p.cs, nullptr, data.NumVertices());
  BacktrackOptions opts;
  opts.order = MatchOrder::kCandidateSize;
  EXPECT_EQ(bt.Run(opts).embeddings, 24u);
}

TEST(BacktrackTest, FailingSetsNeverChangeResults) {
  Rng rng(91);
  for (int trial = 0; trial < 20; ++trial) {
    Graph data =
        daf::testing::RandomDataGraph(40, 100 + rng.UniformInt(100), 3, rng);
    auto extracted =
        ExtractRandomWalkQuery(data, 4 + rng.UniformInt(5), -1.0, rng);
    if (!extracted) continue;
    Pipeline p(extracted->query, data);
    Backtracker bt(extracted->query, p.dag, p.cs, &p.weights,
                   data.NumVertices());
    EmbeddingSet with;
    EmbeddingSet without;
    BacktrackOptions a;
    a.use_failing_sets = true;
    a.callback = Collector(&with);
    BacktrackStats sa = bt.Run(a);
    BacktrackOptions b;
    b.use_failing_sets = false;
    b.callback = Collector(&without);
    BacktrackStats sb = bt.Run(b);
    EXPECT_EQ(with, without);
    // Pruning can only remove search-tree nodes.
    EXPECT_LE(sa.recursive_calls, sb.recursive_calls);
  }
}

TEST(BacktrackTest, ConflictNodesAreCounted) {
  // Query: path B-A-B; data: A-hub with exactly two B leaves. The second B
  // query vertex conflicts with the first on one branch, producing
  // conflict-class search-tree nodes.
  Graph query = MakePath({1, 0, 1});
  Graph data = Graph::FromEdges({0, 1, 1}, {{0, 1}, {0, 2}});
  Pipeline p(query, data);
  Backtracker bt(query, p.dag, p.cs, &p.weights, data.NumVertices());
  BacktrackOptions opts;
  BacktrackStats stats = bt.Run(opts);
  EXPECT_EQ(stats.embeddings, 2u);  // (1,0,2) and (2,0,1)
  // Nodes: root + hub + 2 first-B + 2 embeddings + 2 conflicts >= 7.
  EXPECT_GE(stats.recursive_calls, 7u);
}

TEST(BacktrackTest, SharedCountLimitsAcrossRuns) {
  Graph data = MakeClique({0, 0, 0, 0, 0});
  Graph query = MakeCycle({0, 0, 0});  // 60 embeddings
  Pipeline p(query, data);
  Backtracker bt(query, p.dag, p.cs, &p.weights, data.NumVertices());
  std::atomic<uint64_t> shared{55};  // pretend another worker found 55
  BacktrackOptions opts;
  opts.limit = 60;
  opts.shared_count = &shared;
  BacktrackStats stats = bt.Run(opts);
  EXPECT_EQ(stats.embeddings, 5u);
  EXPECT_TRUE(stats.limit_reached);
}

TEST(BacktrackTest, LeafDecompositionDefersLeaves) {
  // Star query: center + 3 leaves. With leaf decomposition the center (the
  // only non-leaf) must be matched first — identical results either way.
  Graph data = daf::testing::MakeStar({1, 0, 0, 0, 0});
  Graph query = daf::testing::MakeStar({1, 0, 0, 0});
  Pipeline p(query, data);
  Backtracker bt(query, p.dag, p.cs, &p.weights, data.NumVertices());
  EmbeddingSet with;
  EmbeddingSet without;
  BacktrackOptions a;
  a.leaf_decomposition = true;
  a.callback = Collector(&with);
  bt.Run(a);
  BacktrackOptions b;
  b.leaf_decomposition = false;
  b.callback = Collector(&without);
  bt.Run(b);
  EXPECT_EQ(with, without);
  EXPECT_EQ(with.size(), 24u);  // 4*3*2 leaf assignments
}

}  // namespace
}  // namespace daf
