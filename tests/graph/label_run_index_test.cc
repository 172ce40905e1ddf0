// The per-vertex neighbor-label run index against a brute-force scan of the
// adjacency: every by-label lookup (NeighborsWithLabel, NeighborLabelCount,
// NeighborsWithLabelAndEdges, NeighborLabelRuns, NeighborLabelVariety) and
// every edge probe (HasEdge, HasEdgeWithLabel, EdgeLabelBetween), over
// graphs from each construction path: FromEdges, FromLabeledEdges,
// FromCsrParts (the snapshot load path) and DeltaGraph::Materialize. A
// differential test also holds DeltaGraph::Materialize, which patches each
// version from the last one, to a from-scratch FromLabeledEdges build.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "dyn/delta_graph.h"
#include "graph/graph.h"
#include "graph/query_extract.h"
#include "persist/snapshot.h"
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

// `got` against `want` array for array (ToCsrParts), then every derived
// index: dense labels, neighbor-label runs, MaxNeighborDegree, the label
// index and the edge-label flag.
void ExpectSameGraph(const Graph& got, const Graph& want,
                     const std::string& name) {
  SCOPED_TRACE(name);
  const Graph::CsrParts a = got.ToCsrParts();
  const Graph::CsrParts b = want.ToCsrParts();
  ASSERT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.adjacency, b.adjacency);
  ASSERT_EQ(a.edge_labels, b.edge_labels);
  ASSERT_EQ(got.NumLabels(), want.NumLabels());
  EXPECT_EQ(got.HasNontrivialEdgeLabels(), want.HasNontrivialEdgeLabels());
  for (VertexId v = 0; v < got.NumVertices(); ++v) {
    ASSERT_EQ(got.label(v), want.label(v)) << "v=" << v;
    EXPECT_EQ(got.MaxNeighborDegree(v), want.MaxNeighborDegree(v))
        << "v=" << v;
    std::span<const Label> got_edges = got.NeighborEdgeLabels(v);
    std::span<const Label> want_edges = want.NeighborEdgeLabels(v);
    EXPECT_TRUE(std::equal(got_edges.begin(), got_edges.end(),
                           want_edges.begin(), want_edges.end()))
        << "v=" << v;
    std::span<const Graph::LabelRun> got_runs = got.NeighborLabelRuns(v);
    std::span<const Graph::LabelRun> want_runs = want.NeighborLabelRuns(v);
    ASSERT_EQ(got_runs.size(), want_runs.size()) << "v=" << v;
    for (size_t i = 0; i < got_runs.size(); ++i) {
      EXPECT_EQ(got_runs[i].label, want_runs[i].label) << "v=" << v;
      EXPECT_EQ(got_runs[i].end, want_runs[i].end) << "v=" << v;
    }
  }
  for (Label l = 0; l < got.NumLabels(); ++l) {
    EXPECT_EQ(got.original_label(l), want.original_label(l));
    EXPECT_EQ(got.LabelFrequency(l), want.LabelFrequency(l)) << "l=" << l;
    std::span<const VertexId> got_vs = got.VerticesWithLabel(l);
    std::span<const VertexId> want_vs = want.VerticesWithLabel(l);
    EXPECT_TRUE(std::equal(got_vs.begin(), got_vs.end(), want_vs.begin(),
                           want_vs.end()))
        << "l=" << l;
  }
}

// The current state of `dg` built from scratch.
Graph Rebuild(const dyn::DeltaGraph& dg) {
  std::vector<Label> labels(dg.NumVertices());
  for (VertexId v = 0; v < dg.NumVertices(); ++v) {
    labels[v] = dg.OriginalLabel(v);
  }
  std::vector<Edge> edges;
  std::vector<Label> edge_labels;
  for (const auto& [e, l] : dg.CurrentEdges()) {
    edges.push_back(e);
    edge_labels.push_back(l);
  }
  return Graph::FromLabeledEdges(std::move(labels), edges, edge_labels);
}

// A random alive vertex other than the hub and the two star centers.
VertexId RandomAlive(const dyn::DeltaGraph& dg, Rng& rng) {
  for (;;) {
    const auto v = static_cast<VertexId>(rng.UniformInt(dg.NumVertices()));
    if (v > 2 && dg.Alive(v)) return v;
  }
}

// Seeded random batches over MakeRawGraph (labels 1, 4, ..., 16 and the
// leaves' 1000..1016): edge churn with edge labels 0..2, new vertices with
// existing and brand-new labels, and tombstones. Scripted rounds add the
// one vertex of a label (2) that sorts below most others, tombstone it so
// its label disappears again (both shift every larger dense label), reset
// every edge label to 0, and round-trip the graph through a persist
// snapshot into DeltaGraph::Restore. Materialize runs after most batches;
// every fourth group of four batches skips it, so one patch spans several
// batches. A low compaction floor makes ApplyBatch compact now and then.
TEST(LabelRunIndexTest, MaterializedDeltaGraphMatchesRebuild) {
  const dyn::DeltaGraph::Options options{0.25, 64};
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RawGraph raw = MakeRawGraph(400 + seed, 6);
    dyn::DeltaGraph dg(
        Graph::FromLabeledEdges(raw.labels, raw.edges, raw.edge_labels),
        options);
    Rng rng(seed);
    int compactions = 0;
    VertexId lone = kInvalidVertex;  // the only vertex labeled 2
    for (int round = 0; round < 48; ++round) {
      const std::string where = "round=" + std::to_string(round);
      dyn::UpdateBatch batch;
      if (round == 5) {
        lone = dg.NumVertices();
        batch.AddVertex(2).InsertEdge(lone, RandomAlive(dg, rng), 1);
      } else if (round == 9) {
        batch.RemoveVertex(lone);
      } else if (round == 30) {
        for (const auto& [e, l] : dg.CurrentEdges()) {
          if (l != 0) batch.InsertEdge(e.first, e.second, 0);
        }
      } else {
        for (uint64_t i = rng.UniformInt(3); i > 0; --i) {
          const VertexId fresh =
              dg.NumVertices() +
              static_cast<VertexId>(batch.add_vertices.size());
          batch.AddVertex(rng.UniformInt(2) == 0
                              ? 3 * static_cast<Label>(rng.UniformInt(6)) + 1
                              : 5000 + static_cast<Label>(round));
          batch.InsertEdge(fresh, RandomAlive(dg, rng),
                           static_cast<Label>(rng.UniformInt(3)));
        }
        for (int i = 0; i < 12; ++i) {
          batch.InsertEdge(RandomAlive(dg, rng), RandomAlive(dg, rng),
                           static_cast<Label>(rng.UniformInt(3)));
          const VertexId v = RandomAlive(dg, rng);
          std::vector<VertexId> neighbors;
          dg.ForEachNeighbor(v, [&](VertexId w, Label) {
            neighbors.push_back(w);
            return true;
          });
          if (!neighbors.empty()) {
            batch.RemoveEdge(v, neighbors[rng.UniformInt(neighbors.size())]);
          }
        }
        if (round % 3 == 0) {
          VertexId v = RandomAlive(dg, rng);
          if (v != lone) batch.RemoveVertex(v);
        }
      }
      const dyn::ApplyResult applied = dg.ApplyBatch(batch);
      ASSERT_TRUE(applied.ok) << where << ": " << applied.error;
      compactions += applied.compacted ? 1 : 0;

      if (round == 20) {
        // Persist round trip: the restored graph patches its next versions
        // from the loaded snapshot.
        char path[] = "/tmp/daf_materialize_test_XXXXXX";
        const int fd = ::mkstemp(path);
        ASSERT_GE(fd, 0);
        ::close(fd);
        std::string error;
        ASSERT_TRUE(persist::WriteSnapshot(*dg.Materialize(), dg.version(),
                                           path, &error))
            << error;
        uint64_t version = 0;
        std::optional<Graph> loaded =
            persist::LoadSnapshot(path, &version, &error);
        std::remove(path);
        ASSERT_TRUE(loaded.has_value()) << error;
        ASSERT_EQ(version, dg.version());
        dg = dyn::DeltaGraph::Restore(std::move(*loaded), options, version);
      }
      if ((round / 4) % 4 == 3 && round != 9 && round != 30) continue;
      std::shared_ptr<const Graph> got = dg.Materialize();
      ExpectSameGraph(*got, Rebuild(dg), where);
      if (::testing::Test::HasFatalFailure()) return;
      if (round == 5) {
        EXPECT_NE(got->DenseLabel(2), kNoSuchLabel);
      }
      if (round == 9) {
        EXPECT_EQ(got->DenseLabel(2), kNoSuchLabel);
      }
      if (round == 30) {
        EXPECT_FALSE(got->HasNontrivialEdgeLabels());
      }
    }
    EXPECT_GT(compactions, 0);
  }
}

}  // namespace
}  // namespace daf
