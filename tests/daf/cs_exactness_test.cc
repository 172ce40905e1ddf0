// CandidateSpace::Build against a literal transcription of Section 4: seed
// C_ini(u) by label + degree + MND + NLF, run `refinement_steps` alternating
// passes of Recurrence (1) (q_D^{-1} first), then list N^u_{uc}(v) for every
// DAG edge. The reference reads the data graph only through Neighbors,
// NeighborEdgeLabels, label and degree, so it checks the by-label lookups
// the build uses instead of sharing them. Candidate sets and every edge list
// must be equal, over the NLF x MND x injectivity x edge-label x steps 0..4
// matrix, through both Build overloads (one arena scratch reused across two
// data graphs of different sizes).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "daf/candidate_space.h"
#include "daf/match_context.h"
#include "daf/query_dag.h"
#include "graph/query_extract.h"
#include "tests/test_util.h"
#include "util/arena.h"

namespace daf {
namespace {

struct ReferenceCs {
  std::vector<std::vector<VertexId>> candidates;  // per u, ascending
  // Per DAG edge id, per parent candidate index: child candidate indices.
  std::vector<std::vector<std::vector<uint32_t>>> edges;
};

// Label of the data edge (v, w), or false when there is none.
bool ScanEdge(const Graph& data, VertexId v, VertexId w, Label* label) {
  std::span<const VertexId> all = data.Neighbors(v);
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] == w) {
      *label = data.NeighborEdgeLabels(v)[i];
      return true;
    }
  }
  return false;
}

bool Adjacent(const Graph& data, VertexId v, VertexId w, Label edge_label) {
  Label l = 0;
  return ScanEdge(data, v, w, &l) && l == edge_label;
}

Label QueryEdgeLabel(const Graph& query, VertexId u, VertexId w) {
  Label l = 0;
  EXPECT_TRUE(ScanEdge(query, u, w, &l));
  return l;
}

ReferenceCs BuildReference(const Graph& query, const QueryDag& dag,
                           const Graph& data,
                           const CandidateSpace::Options& options) {
  const uint32_t n = query.NumVertices();
  ReferenceCs ref;
  ref.candidates.resize(n);
  for (VertexId u = 0; u < n; ++u) {
    if (dag.DataLabel(u) == kNoSuchLabel) continue;
    std::map<Label, uint32_t> profile;  // NLF: data label -> count in q
    bool profile_ok = true;
    uint32_t max_nbr_deg = 0;
    for (VertexId w : query.Neighbors(u)) {
      if (dag.DataLabel(w) == kNoSuchLabel) profile_ok = false;
      ++profile[dag.DataLabel(w)];
      max_nbr_deg = std::max(max_nbr_deg, query.degree(w));
    }
    if (options.use_nlf_filter && !profile_ok) continue;
    for (VertexId v = 0; v < data.NumVertices(); ++v) {
      if (data.label(v) != dag.DataLabel(u)) continue;
      if (options.injective && data.degree(v) < query.degree(u)) continue;
      uint32_t mnd = 0;
      std::map<Label, uint32_t> nlf;
      for (VertexId w : data.Neighbors(v)) {
        mnd = std::max(mnd, data.degree(w));
        ++nlf[data.label(w)];
      }
      if (options.injective && options.use_mnd_filter && mnd < max_nbr_deg) {
        continue;
      }
      bool nlf_ok = true;
      if (options.use_nlf_filter) {
        for (const auto& [label, count] : profile) {
          nlf_ok &= nlf[label] >= (options.injective ? count : 1);
        }
      }
      if (nlf_ok) ref.candidates[u].push_back(v);
    }
  }

  // Recurrence (1): v stays in C(u) iff every DP child uc has a candidate
  // adjacent to v through an edge carrying the query edge's label. Step i
  // runs over q_D^{-1} (children = DAG parents) for even i, q_D otherwise,
  // in reverse topological order of the DP DAG; sets update in place.
  const std::vector<VertexId>& topo = dag.TopologicalOrder();
  for (int step = 0; step < options.refinement_steps; ++step) {
    const bool reversed = step % 2 == 0;
    for (uint32_t pos = 0; pos < n; ++pos) {
      const VertexId u = reversed ? topo[pos] : topo[n - 1 - pos];
      const std::vector<VertexId>& children =
          reversed ? dag.Parents(u) : dag.Children(u);
      std::vector<VertexId> kept;
      for (VertexId v : ref.candidates[u]) {
        bool survives = true;
        for (VertexId uc : children) {
          const Label required = QueryEdgeLabel(query, u, uc);
          bool found = false;
          for (VertexId vc : ref.candidates[uc]) {
            found |= Adjacent(data, v, vc, required);
          }
          survives &= found;
        }
        if (survives) kept.push_back(v);
      }
      ref.candidates[u] = std::move(kept);
    }
  }

  ref.edges.resize(dag.NumEdges());
  for (VertexId u = 0; u < n; ++u) {
    for (uint32_t pos = 0; pos < dag.Children(u).size(); ++pos) {
      const VertexId uc = dag.Children(u)[pos];
      const uint32_t edge_id = dag.ChildEdgeId(u, pos);
      const Label required = QueryEdgeLabel(query, u, uc);
      for (VertexId v : ref.candidates[u]) {
        std::vector<uint32_t> targets;
        for (uint32_t ic = 0; ic < ref.candidates[uc].size(); ++ic) {
          if (Adjacent(data, v, ref.candidates[uc][ic], required)) {
            targets.push_back(ic);
          }
        }
        ref.edges[edge_id].push_back(std::move(targets));
      }
    }
  }
  return ref;
}

void ExpectEqualToReference(const ReferenceCs& ref, const QueryDag& dag,
                            const CandidateSpace& cs) {
  ASSERT_FALSE(cs.interrupted());
  uint64_t total_edges = 0;
  for (VertexId u = 0; u < ref.candidates.size(); ++u) {
    std::span<const VertexId> got = cs.Candidates(u);
    ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()),
              ref.candidates[u])
        << "C(u" << u << ")";
  }
  for (VertexId u = 0; u < ref.candidates.size(); ++u) {
    for (uint32_t pos = 0; pos < dag.Children(u).size(); ++pos) {
      const uint32_t edge_id = dag.ChildEdgeId(u, pos);
      for (uint32_t ip = 0; ip < ref.candidates[u].size(); ++ip) {
        std::span<const uint32_t> got = cs.EdgeNeighbors(edge_id, ip);
        ASSERT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
                  ref.edges[edge_id][ip])
            << "edge " << edge_id << " parent candidate " << ip;
        total_edges += got.size();
      }
    }
  }
  EXPECT_EQ(cs.TotalEdges(), total_edges);
}

// A random data graph; with `edge_labeled`, every edge gets a label from a
// three-letter alphabet.
Graph MakeData(uint32_t n, uint64_t m, bool edge_labeled, Rng& rng) {
  Graph base = daf::testing::RandomDataGraph(n, m, 4, rng);
  if (!edge_labeled) return base;
  std::vector<Edge> edges = base.EdgeList();
  std::vector<Label> edge_labels;
  for (size_t i = 0; i < edges.size(); ++i) {
    edge_labels.push_back(static_cast<Label>(rng.UniformInt(3)));
  }
  std::vector<Label> labels(base.NumVertices());
  for (VertexId v = 0; v < base.NumVertices(); ++v) {
    labels[v] = base.original_label(base.label(v));
  }
  return Graph::FromLabeledEdges(labels, edges, edge_labels);
}

TEST(CsExactnessTest, BuildMatchesLiteralRecurrence) {
  Rng rng(4242);
  int checked = 0;
  uint64_t nonempty_edge_lists = 0;
  for (bool edge_labeled : {false, true}) {
    // Two data graphs of different sizes share one arena scratch below, so
    // per-build state sized for one must not leak into the other.
    Graph small_data = MakeData(40, 110, edge_labeled, rng);
    Graph large_data = MakeData(90, 300, edge_labeled, rng);
    const Graph* datas[] = {&large_data, &small_data};
    std::vector<Graph> queries[2];
    for (int d = 0; d < 2; ++d) {
      for (uint32_t size : {3u, 5u, 7u}) {
        auto extracted = ExtractRandomWalkQuery(*datas[d], size, -1.0, rng);
        ASSERT_TRUE(extracted.has_value());
        queries[d].push_back(std::move(extracted->query));
      }
    }
    Arena arena;
    CsBuildScratch scratch;
    for (bool nlf : {false, true}) {
      for (bool mnd : {false, true}) {
        for (bool injective : {false, true}) {
          for (int steps = 0; steps <= 4; ++steps) {
            CandidateSpace::Options options;
            options.use_nlf_filter = nlf;
            options.use_mnd_filter = mnd;
            options.injective = injective;
            options.refinement_steps = steps;
            for (int d = 0; d < 2; ++d) {
              for (const Graph& query : queries[d]) {
                SCOPED_TRACE("edge_labeled=" + std::to_string(edge_labeled) +
                             " nlf=" + std::to_string(nlf) +
                             " mnd=" + std::to_string(mnd) +
                             " injective=" + std::to_string(injective) +
                             " steps=" + std::to_string(steps) +
                             " data=" + std::to_string(d) +
                             " |q|=" + std::to_string(query.NumVertices()));
                const Graph& data = *datas[d];
                QueryDag dag = QueryDag::Build(query, data);
                ReferenceCs ref = BuildReference(query, dag, data, options);
                for (const auto& lists : ref.edges) {
                  for (const auto& targets : lists) {
                    nonempty_edge_lists += !targets.empty();
                  }
                }
                ExpectEqualToReference(
                    ref, dag, CandidateSpace::Build(query, dag, data, options));
                arena.Reset();
                ExpectEqualToReference(
                    ref, dag,
                    CandidateSpace::Build(query, dag, data, options, &arena,
                                          &scratch));
                ++checked;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 2 * 2 * 2 * 5 * 6);
  EXPECT_GT(nonempty_edge_lists, 1000u);  // the sets are not trivially empty
}

}  // namespace
}  // namespace daf
