#include <gtest/gtest.h>

#include "baselines/bruteforce.h"
#include "baselines/cfl_match.h"
#include "baselines/gaddi.h"
#include "baselines/graphql.h"
#include "baselines/quicksi.h"
#include "baselines/spath.h"
#include "baselines/turboiso.h"
#include "baselines/vf2.h"
#include "daf/engine.h"
#include "daf/parallel.h"
#include "graph/io.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"

namespace daf {
namespace {

using daf::testing::Collector;
using daf::testing::EmbeddingSet;

TEST(EdgeLabelGraphTest, StorageAndAccessors) {
  // Triangle with bond types: 0-1 single(1), 1-2 double(2), 0-2 single(1).
  Graph g = Graph::FromLabeledEdges({0, 0, 1}, {{0, 1}, {1, 2}, {0, 2}},
                                    {1, 2, 1});
  EXPECT_TRUE(g.HasNontrivialEdgeLabels());
  EXPECT_EQ(g.EdgeLabelBetween(0, 1), 1u);
  EXPECT_EQ(g.EdgeLabelBetween(1, 2), 2u);
  EXPECT_EQ(g.EdgeLabelBetween(2, 1), 2u);  // symmetric
  EXPECT_TRUE(g.HasEdgeWithLabel(0, 1, 1));
  EXPECT_FALSE(g.HasEdgeWithLabel(0, 1, 2));
  EXPECT_FALSE(g.HasEdgeWithLabel(0, 1, 0));
  EXPECT_FALSE(g.HasEdgeWithLabel(1, 0, 2));
  // NeighborEdgeLabels aligned with Neighbors.
  auto neighbors = g.Neighbors(1);
  auto labels = g.NeighborEdgeLabels(1);
  ASSERT_EQ(neighbors.size(), labels.size());
  for (size_t i = 0; i < neighbors.size(); ++i) {
    EXPECT_EQ(labels[i], g.EdgeLabelBetween(1, neighbors[i]));
  }
}

TEST(EdgeLabelGraphTest, UnlabeledGraphsAreTrivial) {
  Graph g = Graph::FromEdges({0, 0}, {{0, 1}});
  EXPECT_FALSE(g.HasNontrivialEdgeLabels());
  EXPECT_EQ(g.EdgeLabelBetween(0, 1), 0u);
  EXPECT_TRUE(g.HasEdgeWithLabel(0, 1, 0));
}

TEST(EdgeLabelGraphTest, DuplicateEdgeFirstLabelWins) {
  Graph g = Graph::FromLabeledEdges({0, 0}, {{0, 1}, {1, 0}}, {7, 9});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.EdgeLabelBetween(0, 1), 7u);
}

TEST(EdgeLabelGraphTest, LabeledEdgeListRoundTrip) {
  Rng rng(201);
  Graph base = daf::testing::RandomDataGraph(40, 90, 3, rng);
  std::vector<Edge> edges = base.EdgeList();
  std::vector<Label> edge_labels;
  for (size_t i = 0; i < edges.size(); ++i) {
    edge_labels.push_back(static_cast<Label>(rng.UniformInt(3)));
  }
  std::vector<Label> labels(base.NumVertices());
  for (uint32_t v = 0; v < base.NumVertices(); ++v) {
    labels[v] = base.original_label(base.label(v));
  }
  Graph g = Graph::FromLabeledEdges(labels, edges, edge_labels);
  Graph g2 = [&] {
    std::vector<Edge> e2;
    std::vector<Label> l2;
    for (const auto& [e, l] : g.LabeledEdgeList()) {
      e2.push_back(e);
      l2.push_back(l);
    }
    return Graph::FromLabeledEdges(labels, e2, l2);
  }();
  for (const auto& [e, l] : g.LabeledEdgeList()) {
    EXPECT_EQ(g2.EdgeLabelBetween(e.first, e.second), l);
  }
}

TEST(EdgeLabelIoTest, TextRoundTripKeepsEdgeLabels) {
  Graph g = Graph::FromLabeledEdges({5, 5, 6}, {{0, 1}, {1, 2}}, {3, 4});
  std::string error;
  auto g2 = ParseGraphText(GraphToText(g), &error);
  ASSERT_TRUE(g2.has_value()) << error;
  EXPECT_TRUE(g2->HasNontrivialEdgeLabels());
  EXPECT_EQ(g2->EdgeLabelBetween(0, 1), 3u);
  EXPECT_EQ(g2->EdgeLabelBetween(1, 2), 4u);
}

TEST(EdgeLabelMatchTest, BondTypesDiscriminate) {
  // Data "molecule": C=C-C (double bond then single bond), all carbons.
  Graph data = Graph::FromLabeledEdges({0, 0, 0}, {{0, 1}, {1, 2}}, {2, 1});
  // Query: two carbons joined by a double bond.
  Graph double_bond = Graph::FromLabeledEdges({0, 0}, {{0, 1}}, {2});
  Graph single_bond = Graph::FromLabeledEdges({0, 0}, {{0, 1}}, {1});
  MatchResult d = DafMatch(double_bond, data);
  MatchResult s = DafMatch(single_bond, data);
  ASSERT_TRUE(d.ok && s.ok);
  EXPECT_EQ(d.embeddings, 2u);  // (0,1) and (1,0)
  EXPECT_EQ(s.embeddings, 2u);  // (1,2) and (2,1)
  // Without edge labels both queries would match both edges (4 each).
  Graph unlabeled_query = Graph::FromEdges({0, 0}, {{0, 1}});
  Graph unlabeled_data = Graph::FromEdges({0, 0, 0}, {{0, 1}, {1, 2}});
  EXPECT_EQ(DafMatch(unlabeled_query, unlabeled_data).embeddings, 4u);
}

TEST(EdgeLabelMatchTest, UnlabeledQueryOnLabeledDataMatchesLabelZeroOnly) {
  // Strict semantics: a query edge with label 0 only matches data edges
  // with label 0.
  Graph data = Graph::FromLabeledEdges({0, 0, 0}, {{0, 1}, {1, 2}}, {0, 5});
  Graph query = Graph::FromEdges({0, 0}, {{0, 1}});
  MatchResult r = DafMatch(query, data);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.embeddings, 2u);  // only the label-0 edge, both directions
}

// The full cross-engine agreement sweep under random edge labels.
class EdgeLabelCrossTest : public ::testing::TestWithParam<int> {};

TEST_P(EdgeLabelCrossTest, AllEnginesAgree) {
  Rng rng(9100 + GetParam());
  const uint32_t n = 30 + static_cast<uint32_t>(rng.UniformInt(40));
  Graph base = daf::testing::RandomDataGraph(
      n, 2 * n + rng.UniformInt(3 * n), 3, rng);
  // Re-label edges randomly from a small bond alphabet.
  std::vector<Edge> edges = base.EdgeList();
  std::vector<Label> edge_labels;
  for (size_t i = 0; i < edges.size(); ++i) {
    edge_labels.push_back(static_cast<Label>(rng.UniformInt(3)));
  }
  std::vector<Label> labels(base.NumVertices());
  for (uint32_t v = 0; v < base.NumVertices(); ++v) {
    labels[v] = base.original_label(base.label(v));
  }
  Graph data = Graph::FromLabeledEdges(labels, edges, edge_labels);
  auto extracted =
      ExtractRandomWalkQuery(data, 4 + rng.UniformInt(4), -1.0, rng);
  if (!extracted) GTEST_SKIP();
  const Graph& query = extracted->query;
  EXPECT_TRUE(query.HasNontrivialEdgeLabels() || query.NumEdges() == 0 ||
              !data.HasNontrivialEdgeLabels());

  EmbeddingSet expected;
  baselines::MatcherOptions brute;
  brute.callback = Collector(&expected);
  baselines::BruteForceMatch(query, data, brute);
  EXPECT_GE(expected.size(), 1u);  // witness guarantees positivity

  // DAF variants + parallel.
  for (bool failing : {false, true}) {
    EmbeddingSet found;
    MatchOptions opts;
    opts.use_failing_sets = failing;
    opts.callback = Collector(&found);
    MatchResult r = DafMatch(query, data, opts);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(found, expected) << "failing=" << failing;
  }
  {
    EmbeddingSet found;
    MatchOptions opts;
    opts.callback = Collector(&found);
    MatchResult r = ParallelDafMatch(query, data, opts, 3);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(found, expected) << "parallel";
  }
  // DAF-Boost under edge labels (equivalence classes must respect them).
  {
    VertexEquivalence eq = VertexEquivalence::Compute(data);
    EmbeddingSet found;
    MatchOptions opts;
    opts.equivalence = &eq;
    opts.callback = Collector(&found);
    MatchResult r = DafMatch(query, data, opts);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(found, expected) << "boost";
  }
  // All baselines.
  struct Named {
    const char* name;
    baselines::MatcherResult (*fn)(const Graph&, const Graph&,
                                   const baselines::MatcherOptions&);
  };
  const Named algorithms[] = {
      {"VF2", &baselines::Vf2Match},
      {"QuickSI", &baselines::QuickSiMatch},
      {"GraphQL", &baselines::GraphQlMatch},
      {"SPath", &baselines::SPathMatch},
      {"GADDI", &baselines::GaddiMatch},
      {"TurboIso", &baselines::TurboIsoMatch},
      {"CFL", &baselines::CflMatch},
  };
  for (const Named& algorithm : algorithms) {
    EmbeddingSet found;
    baselines::MatcherOptions opts;
    opts.callback = Collector(&found);
    baselines::MatcherResult r = algorithm.fn(query, data, opts);
    ASSERT_TRUE(r.ok) << algorithm.name;
    EXPECT_EQ(found, expected) << algorithm.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EdgeLabelCrossTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace daf
