// The per-vertex neighbor-label run index against a brute-force scan of the
// adjacency: every by-label lookup (NeighborsWithLabel, NeighborLabelCount,
// NeighborsWithLabelAndEdges, NeighborLabelRuns, NeighborLabelVariety) and
// every edge probe (HasEdge, HasEdgeWithLabel, EdgeLabelBetween), over
// graphs from each construction path: FromEdges, FromLabeledEdges,
// FromCsrParts (the snapshot load path) and DeltaGraph::Materialize.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace daf {
namespace {

// Checks one graph exhaustively. Only Neighbors, NeighborEdgeLabels and
// label are trusted; everything else is recomputed by linear scans.
void CheckAgainstScan(const Graph& g, const std::string& name) {
  SCOPED_TRACE(name);
  const uint32_t n = g.NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    std::span<const VertexId> all = g.Neighbors(v);
    std::span<const Label> all_edge_labels = g.NeighborEdgeLabels(v);
    std::set<Label> distinct;
    for (VertexId w : all) distinct.insert(g.label(w));
    EXPECT_EQ(g.NeighborLabelVariety(v), distinct.size()) << "v=" << v;

    // Runs: one per distinct label, ascending, ends cumulative.
    std::span<const Graph::LabelRun> runs = g.NeighborLabelRuns(v);
    ASSERT_EQ(runs.size(), distinct.size()) << "v=" << v;
    uint32_t begin = 0;
    auto label_it = distinct.begin();
    for (const Graph::LabelRun& run : runs) {
      EXPECT_EQ(run.label, *label_it++);
      ASSERT_GT(run.end, begin);
      ASSERT_LE(run.end, all.size());
      for (uint32_t i = begin; i < run.end; ++i) {
        EXPECT_EQ(g.label(all[i]), run.label);
      }
      begin = run.end;
    }
    EXPECT_EQ(begin, all.size());

    // One label past the last dense label exercises the "absent, sorts
    // after everything" position.
    for (Label l = 0; l <= g.NumLabels(); ++l) {
      std::vector<VertexId> expected;
      std::vector<Label> expected_edge_labels;
      for (size_t i = 0; i < all.size(); ++i) {
        if (g.label(all[i]) == l) {
          expected.push_back(all[i]);
          expected_edge_labels.push_back(all_edge_labels[i]);
        }
      }
      std::span<const VertexId> got = g.NeighborsWithLabel(v, l);
      EXPECT_EQ(std::vector<VertexId>(got.begin(), got.end()), expected)
          << "v=" << v << " l=" << l;
      // A sub-range of Neighbors(v), even when empty.
      EXPECT_GE(got.data(), all.data());
      EXPECT_LE(got.data() + got.size(), all.data() + all.size());
      EXPECT_EQ(g.NeighborLabelCount(v, l), expected.size());
      Graph::NeighborSlice slice = g.NeighborsWithLabelAndEdges(v, l);
      EXPECT_EQ(std::vector<VertexId>(slice.vertices.begin(),
                                      slice.vertices.end()),
                expected);
      EXPECT_EQ(std::vector<Label>(slice.edge_labels.begin(),
                                   slice.edge_labels.end()),
                expected_edge_labels);
    }
  }

  // Every ordered pair, against a linear scan of u's adjacency.
  for (VertexId u = 0; u < n; ++u) {
    std::span<const VertexId> all = g.Neighbors(u);
    std::span<const Label> all_edge_labels = g.NeighborEdgeLabels(u);
    for (VertexId v = 0; v < n; ++v) {
      auto it = std::find(all.begin(), all.end(), v);
      const bool present = it != all.end();
      ASSERT_EQ(g.HasEdge(u, v), present) << u << "-" << v;
      if (!present) {
        EXPECT_FALSE(g.HasEdgeWithLabel(u, v, 0));
        continue;
      }
      const Label el = all_edge_labels[it - all.begin()];
      EXPECT_EQ(g.EdgeLabelBetween(u, v), el);
      EXPECT_TRUE(g.HasEdgeWithLabel(u, v, el));
      EXPECT_FALSE(g.HasEdgeWithLabel(u, v, el + 1));
    }
  }
}

// A random graph with isolated vertices (the last few ids get no edges),
// one hub adjacent to every non-isolated vertex from 3 on (more than 16
// distinct neighbor labels: the binary-search branch), and two star centers
// (vertices 1 and 2, outside the hub and the random edges) that see exactly
// 16 and 17 distinct labels: both sides of the linear/binary boundary.
struct RawGraph {
  std::vector<Label> labels;
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
};

RawGraph MakeRawGraph(uint64_t seed, uint32_t num_labels) {
  Rng rng(seed);
  const uint32_t n = 120;
  const uint32_t connected = n - 5;
  RawGraph raw;
  raw.labels.resize(n);
  // Sparse label values: dense remapping must not matter.
  for (uint32_t v = 0; v < n; ++v) {
    raw.labels[v] = 3 * static_cast<Label>(rng.UniformInt(num_labels)) + 1;
  }
  auto add = [&](VertexId a, VertexId b) {
    raw.edges.emplace_back(a, b);
    raw.edge_labels.push_back(static_cast<Label>(rng.UniformInt(4)));
  };
  for (VertexId v = 3; v < connected; ++v) add(0, v);  // the hub
  for (int i = 0; i < 300; ++i) {
    add(3 + static_cast<VertexId>(rng.UniformInt(connected - 3)),
        3 + static_cast<VertexId>(rng.UniformInt(connected - 3)));
  }
  for (uint32_t k = 0; k < 17; ++k) {
    const VertexId leaf = 10 + k;
    raw.labels[leaf] = 1000 + k;
    if (k < 16) add(1, leaf);
    add(2, leaf);
  }
  return raw;
}

TEST(LabelRunIndexTest, FromEdgesMatchesScan) {
  for (uint32_t num_labels : {1u, 4u, 40u}) {
    RawGraph raw = MakeRawGraph(num_labels, num_labels);
    Graph g = Graph::FromEdges(raw.labels, raw.edges);
    ASSERT_GT(g.NeighborLabelVariety(0), 16u);  // hub
    ASSERT_EQ(g.NeighborLabelVariety(1), 16u);
    ASSERT_EQ(g.NeighborLabelVariety(2), 17u);
    ASSERT_EQ(g.degree(119), 0u);  // isolated
    CheckAgainstScan(g, "FromEdges labels=" + std::to_string(num_labels));
  }
}

TEST(LabelRunIndexTest, FromLabeledEdgesMatchesScan) {
  for (uint32_t num_labels : {1u, 4u, 40u}) {
    RawGraph raw = MakeRawGraph(100 + num_labels, num_labels);
    Graph g = Graph::FromLabeledEdges(raw.labels, raw.edges, raw.edge_labels);
    ASSERT_TRUE(g.HasNontrivialEdgeLabels());
    CheckAgainstScan(g,
                     "FromLabeledEdges labels=" + std::to_string(num_labels));
  }
}

TEST(LabelRunIndexTest, FromCsrPartsMatchesScan) {
  for (uint32_t num_labels : {4u, 40u}) {
    RawGraph raw = MakeRawGraph(200 + num_labels, num_labels);
    for (bool edge_labeled : {false, true}) {
      Graph source =
          edge_labeled
              ? Graph::FromLabeledEdges(raw.labels, raw.edges, raw.edge_labels)
              : Graph::FromEdges(raw.labels, raw.edges);
      std::string error;
      std::optional<Graph> g =
          Graph::FromCsrParts(source.ToCsrParts(), &error);
      ASSERT_TRUE(g.has_value()) << error;
      CheckAgainstScan(*g, "FromCsrParts labels=" +
                               std::to_string(num_labels) +
                               " edge_labeled=" + std::to_string(edge_labeled));
    }
  }
}

TEST(LabelRunIndexTest, MaterializedDeltaGraphMatchesScan) {
  RawGraph raw = MakeRawGraph(300, 6);
  dyn::DeltaGraph dg(
      Graph::FromLabeledEdges(raw.labels, raw.edges, raw.edge_labels));
  Rng rng(301);
  for (int round = 0; round < 3; ++round) {
    dyn::UpdateBatch batch;
    batch.AddVertex(7).AddVertex(2000 + round);  // a brand-new label
    const VertexId fresh = dg.NumVertices();
    batch.InsertEdge(fresh, 0, 1).InsertEdge(fresh + 1, fresh, 2);
    // Random churn among vertices 40..109, clear of the tombstones below.
    for (int i = 0; i < 20; ++i) {
      batch.InsertEdge(40 + static_cast<VertexId>(rng.UniformInt(70)),
                       40 + static_cast<VertexId>(rng.UniformInt(70)),
                       static_cast<Label>(rng.UniformInt(3)));
      batch.RemoveEdge(40 + static_cast<VertexId>(rng.UniformInt(70)),
                       40 + static_cast<VertexId>(rng.UniformInt(70)));
    }
    // Tombstone a vertex adjacent to the hub (its edges go with it).
    batch.RemoveVertex(30 + static_cast<VertexId>(round));
    ASSERT_TRUE(dg.ApplyBatch(batch).ok);
    CheckAgainstScan(*dg.Materialize(),
                     "Materialize round=" + std::to_string(round));
  }
}

}  // namespace
}  // namespace daf
