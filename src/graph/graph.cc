#include "graph/graph.h"

#include <algorithm>
#include <cassert>

namespace daf {

Graph Graph::FromEdges(std::vector<Label> labels,
                       const std::vector<Edge>& edges) {
  return FromLabeledEdges(std::move(labels), edges, {});
}

Label Graph::DenseLabel(Label original) const {
  auto it = std::lower_bound(original_labels_.begin(),
                             original_labels_.end(), original);
  if (it == original_labels_.end() || *it != original) {
    return static_cast<Label>(-1);
  }
  return static_cast<Label>(it - original_labels_.begin());
}

Graph Graph::FromLabeledEdges(std::vector<Label> labels,
                              const std::vector<Edge>& edges,
                              const std::vector<Label>& edge_labels) {
  Graph g;
  const uint32_t n = static_cast<uint32_t>(labels.size());
  assert(edge_labels.empty() || edge_labels.size() == edges.size());

  // Remap labels to a dense 0..k-1 range preserving relative order.
  std::vector<Label> sorted_labels = labels;
  std::sort(sorted_labels.begin(), sorted_labels.end());
  sorted_labels.erase(
      std::unique(sorted_labels.begin(), sorted_labels.end()),
      sorted_labels.end());
  g.original_labels_ = sorted_labels;
  g.labels_.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    g.labels_[v] = static_cast<Label>(
        std::lower_bound(sorted_labels.begin(), sorted_labels.end(),
                         labels[v]) -
        sorted_labels.begin());
  }
  // Deduplicate edges, dropping self-loops; normalize to u < v. A stable
  // sort + unique keeps the *first* occurrence of a duplicated edge, so its
  // edge label wins.
  struct LabeledEdge {
    Edge edge;
    Label label;
  };
  std::vector<LabeledEdge> clean;
  clean.reserve(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.first == e.second) continue;
    assert(e.first < n && e.second < n);
    clean.push_back({{std::min(e.first, e.second),
                      std::max(e.first, e.second)},
                     edge_labels.empty() ? 0 : edge_labels[i]});
  }
  std::stable_sort(clean.begin(), clean.end(),
                   [](const LabeledEdge& a, const LabeledEdge& b) {
                     return a.edge < b.edge;
                   });
  clean.erase(std::unique(clean.begin(), clean.end(),
                          [](const LabeledEdge& a, const LabeledEdge& b) {
                            return a.edge == b.edge;
                          }),
              clean.end());

  // CSR with adjacency (and aligned edge labels) sorted by (label, id).
  g.offsets_.assign(n + 1, 0);
  for (const LabeledEdge& e : clean) {
    ++g.offsets_[e.edge.first + 1];
    ++g.offsets_[e.edge.second + 1];
  }
  for (uint32_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adjacency_.resize(clean.size() * 2);
  g.edge_labels_.resize(clean.size() * 2);
  {
    std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const LabeledEdge& e : clean) {
      g.adjacency_[cursor[e.edge.first]] = e.edge.second;
      g.edge_labels_[cursor[e.edge.first]++] = e.label;
      g.adjacency_[cursor[e.edge.second]] = e.edge.first;
      g.edge_labels_[cursor[e.edge.second]++] = e.label;
    }
  }
  {
    std::vector<std::pair<VertexId, Label>> scratch;
    for (uint32_t v = 0; v < n; ++v) {
      const uint64_t begin = g.offsets_[v];
      const uint64_t end = g.offsets_[v + 1];
      scratch.clear();
      for (uint64_t i = begin; i < end; ++i) {
        scratch.emplace_back(g.adjacency_[i], g.edge_labels_[i]);
      }
      std::sort(scratch.begin(), scratch.end(),
                [&g](const auto& a, const auto& b) {
                  return std::make_pair(g.labels_[a.first], a.first) <
                         std::make_pair(g.labels_[b.first], b.first);
                });
      for (uint64_t i = begin; i < end; ++i) {
        g.adjacency_[i] = scratch[i - begin].first;
        g.edge_labels_[i] = scratch[i - begin].second;
      }
    }
  }
  g.BuildDerivedIndexes();
  return g;
}

void Graph::BuildDerivedIndexes() {
  const uint32_t n = NumVertices();
  BuildVertexIndexes();
  // Neighbor-label runs, sized exactly: count each vertex's label changes,
  // then fill the (label, end offset) pairs.
  run_offsets_.assign(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    run_offsets_[v + 1] = run_offsets_[v] + CountRuns(v);
  }
  label_runs_.resize(run_offsets_[n]);
  for (uint32_t v = 0; v < n; ++v) FillRuns(v);
}

void Graph::BuildVertexIndexes() {
  const uint32_t n = NumVertices();
  const uint32_t num_labels = static_cast<uint32_t>(original_labels_.size());

  nontrivial_edge_labels_ = false;
  for (Label l : edge_labels_) {
    if (l != 0) {
      nontrivial_edge_labels_ = true;
      break;
    }
  }

  // Max neighbor degree.
  max_neighbor_degree_.assign(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    for (VertexId u : Neighbors(v)) {
      max_neighbor_degree_[v] = std::max(max_neighbor_degree_[v], degree(u));
    }
  }

  // Label index.
  label_frequency_.assign(num_labels, 0);
  for (uint32_t v = 0; v < n; ++v) ++label_frequency_[labels_[v]];
  label_offsets_.assign(num_labels + 1, 0);
  for (uint32_t l = 0; l < num_labels; ++l) {
    label_offsets_[l + 1] = label_offsets_[l] + label_frequency_[l];
  }
  vertices_by_label_.resize(n);
  {
    std::vector<uint64_t> cursor(label_offsets_.begin(),
                                 label_offsets_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      vertices_by_label_[cursor[labels_[v]]++] = v;
    }
  }
}

uint64_t Graph::CountRuns(VertexId v) const {
  uint64_t runs = 0;
  Label prev = 0;
  for (VertexId w : Neighbors(v)) {
    if (runs == 0 || labels_[w] != prev) {
      ++runs;
      prev = labels_[w];
    }
  }
  return runs;
}

void Graph::FillRuns(VertexId v) {
  LabelRun* run = label_runs_.data() + run_offsets_[v];
  std::span<const VertexId> neighbors = Neighbors(v);
  for (uint32_t i = 0; i < neighbors.size(); ++i) {
    const Label l = labels_[neighbors[i]];
    if (i > 0 && l != run->label) ++run;
    *run = {l, i + 1};
  }
}

Graph Graph::FromPatchedRows(const Graph& prev,
                             std::span<const Label> labels,
                             std::span<const uint32_t> degrees,
                             std::span<const uint8_t> dirty,
                             const RowWriter& write_row) {
  Graph g;
  const uint32_t n = static_cast<uint32_t>(labels.size());
  const uint32_t prev_n = prev.NumVertices();
  assert(n >= prev_n && degrees.size() == n && dirty.size() == n);
  auto clean = [&](VertexId v) { return v < prev_n && dirty[v] == 0; };
  auto unchanged = [&](VertexId v) {
    return v < prev_n && labels[v] == prev.original_label(prev.labels_[v]);
  };

  // Dense labels: the old label set minus the labels no vertex keeps, plus
  // the labels of vertices that are new or changed label (tombstones).
  std::vector<uint32_t> kept(prev.NumLabels(), 0);
  std::vector<Label>& all = g.original_labels_;
  for (VertexId v = 0; v < n; ++v) {
    if (unchanged(v)) {
      ++kept[prev.labels_[v]];
    } else {
      all.push_back(labels[v]);
    }
  }
  for (Label l = 0; l < prev.NumLabels(); ++l) {
    if (kept[l] > 0) all.push_back(prev.original_labels_[l]);
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  auto dense = [&all](Label original) {
    return static_cast<Label>(
        std::lower_bound(all.begin(), all.end(), original) - all.begin());
  };
  std::vector<Label> remap(prev.NumLabels(), static_cast<Label>(-1));
  for (Label l = 0; l < prev.NumLabels(); ++l) {
    if (kept[l] > 0) remap[l] = dense(prev.original_labels_[l]);
  }
  g.labels_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    g.labels_[v] = unchanged(v) ? remap[prev.labels_[v]] : dense(labels[v]);
  }

  // Visits each maximal range [begin, end) of clean vertices and each
  // dirty vertex, in id order.
  auto sweep = [&](auto&& copy_clean, auto&& build_dirty) {
    for (VertexId v = 0; v < n;) {
      if (!clean(v)) {
        build_dirty(v++);
        continue;
      }
      VertexId end = v + 1;
      while (end < n && clean(end)) ++end;
      copy_clean(v, end);
      v = end;
    }
  };

  g.offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    assert(!clean(v) || degrees[v] == prev.degree(v));
    g.offsets_[v + 1] = g.offsets_[v] + degrees[v];
  }
  g.adjacency_.resize(g.offsets_[n]);
  g.edge_labels_.resize(g.offsets_[n]);
  sweep(
      [&](VertexId begin, VertexId end) {
        const uint64_t from = prev.offsets_[begin];
        const uint64_t to = prev.offsets_[end];
        std::copy(prev.adjacency_.begin() + from, prev.adjacency_.begin() + to,
                  g.adjacency_.begin() + g.offsets_[begin]);
        std::copy(prev.edge_labels_.begin() + from,
                  prev.edge_labels_.begin() + to,
                  g.edge_labels_.begin() + g.offsets_[begin]);
      },
      [&](VertexId v) {
        write_row(v, g.adjacency_.data() + g.offsets_[v],
                  g.edge_labels_.data() + g.offsets_[v]);
      });

  g.BuildVertexIndexes();
  g.run_offsets_.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    g.run_offsets_[v + 1] =
        g.run_offsets_[v] +
        (clean(v) ? prev.run_offsets_[v + 1] - prev.run_offsets_[v]
                  : g.CountRuns(v));
  }
  g.label_runs_.resize(g.run_offsets_[n]);
  sweep(
      [&](VertexId begin, VertexId end) {
        auto first = prev.label_runs_.begin() + prev.run_offsets_[begin];
        auto last = prev.label_runs_.begin() + prev.run_offsets_[end];
        std::transform(first, last,
                       g.label_runs_.begin() + g.run_offsets_[begin],
                       [&remap](LabelRun run) {
                         return LabelRun{remap[run.label], run.end};
                       });
      },
      [&](VertexId v) { g.FillRuns(v); });
  return g;
}

Graph::CsrParts Graph::ToCsrParts() const {
  CsrParts parts;
  const uint32_t n = NumVertices();
  parts.labels.resize(n);
  for (uint32_t v = 0; v < n; ++v) {
    parts.labels[v] = original_labels_[labels_[v]];
  }
  parts.offsets = offsets_;
  parts.adjacency = adjacency_;
  if (nontrivial_edge_labels_) parts.edge_labels = edge_labels_;
  return parts;
}

std::optional<Graph> Graph::FromCsrParts(CsrParts parts, std::string* error) {
  auto fail = [&](const char* msg) -> std::optional<Graph> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  const size_t n = parts.labels.size();
  if (parts.offsets.size() != n + 1) return fail("offsets size != |V|+1");
  if (parts.offsets.front() != 0) return fail("offsets[0] != 0");
  for (size_t v = 0; v < n; ++v) {
    if (parts.offsets[v] > parts.offsets[v + 1]) {
      return fail("offsets not monotonically non-decreasing");
    }
  }
  if (parts.offsets.back() != parts.adjacency.size()) {
    return fail("offsets[|V|] != adjacency size");
  }
  if (parts.adjacency.size() % 2 != 0) return fail("adjacency size is odd");
  if (!parts.edge_labels.empty() &&
      parts.edge_labels.size() != parts.adjacency.size()) {
    return fail("edge_labels size != adjacency size");
  }

  Graph g;
  g.labels_.resize(n);
  {
    std::vector<Label> sorted_labels = parts.labels;
    std::sort(sorted_labels.begin(), sorted_labels.end());
    sorted_labels.erase(
        std::unique(sorted_labels.begin(), sorted_labels.end()),
        sorted_labels.end());
    g.original_labels_ = std::move(sorted_labels);
    for (size_t v = 0; v < n; ++v) {
      g.labels_[v] = static_cast<Label>(
          std::lower_bound(g.original_labels_.begin(),
                           g.original_labels_.end(), parts.labels[v]) -
          g.original_labels_.begin());
    }
  }
  g.offsets_ = std::move(parts.offsets);
  g.adjacency_ = std::move(parts.adjacency);
  if (parts.edge_labels.empty()) {
    g.edge_labels_.assign(g.adjacency_.size(), 0);
  } else {
    g.edge_labels_ = std::move(parts.edge_labels);
  }

  // Per-vertex invariants: ids in range, no self-loops, strictly
  // increasing (dense label, id) order (strictness rules out duplicates).
  for (size_t v = 0; v < n; ++v) {
    const uint64_t begin = g.offsets_[v];
    const uint64_t end = g.offsets_[v + 1];
    for (uint64_t i = begin; i < end; ++i) {
      const VertexId w = g.adjacency_[i];
      if (w >= n) return fail("adjacency references an out-of-range vertex");
      if (w == v) return fail("adjacency contains a self-loop");
      if (i > begin) {
        const VertexId p = g.adjacency_[i - 1];
        if (std::make_pair(g.labels_[p], p) >=
            std::make_pair(g.labels_[w], w)) {
          return fail("adjacency not strictly (label, id)-sorted");
        }
      }
    }
  }
  // Symmetry: every directed entry must have its mirror, with an equal
  // edge label. O(V + E) by sequence regeneration instead of a binary
  // search per edge: scanning sources in (dense label, id) order and
  // appending to each target's cursor reproduces exactly the (label,
  // id)-sorted slice the target must already hold — any deviation (id or
  // edge label) is an asymmetry. Binary-search probes cost E log(deg)
  // cache-hostile lookups, which dominated snapshot cold-start.
  {
    std::vector<uint32_t> order(n);  // vertex ids in (label, id) order
    {
      std::vector<uint64_t> cursor(g.original_labels_.size() + 1, 0);
      for (size_t v = 0; v < n; ++v) ++cursor[g.labels_[v] + 1u];
      for (size_t l = 1; l < cursor.size(); ++l) cursor[l] += cursor[l - 1];
      for (size_t v = 0; v < n; ++v) {
        order[cursor[g.labels_[v]]++] = static_cast<uint32_t>(v);
      }
    }
    std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const uint32_t v : order) {
      const uint64_t begin = g.offsets_[v];
      const uint64_t end = g.offsets_[v + 1];
      for (uint64_t i = begin; i < end; ++i) {
        const VertexId w = g.adjacency_[i];
        uint64_t& c = cursor[w];
        if (c >= g.offsets_[w + 1] || g.adjacency_[c] != v) {
          return fail("adjacency is not symmetric");
        }
        if (g.edge_labels_[c] != g.edge_labels_[i]) {
          return fail("edge labels are not symmetric");
        }
        ++c;
      }
    }
  }

  g.BuildDerivedIndexes();
  if (error != nullptr) error->clear();
  return g;
}

int64_t Graph::FindNeighborIndex(VertexId u, VertexId v) const {
  std::span<const VertexId> slice = NeighborsWithLabel(u, labels_[v]);
  auto it = std::lower_bound(slice.begin(), slice.end(), v);
  if (it == slice.end() || *it != v) return -1;
  return &*it - adjacency_.data();
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  std::span<const VertexId> candidates = NeighborsWithLabel(u, labels_[v]);
  return std::binary_search(candidates.begin(), candidates.end(), v);
}

bool Graph::HasEdgeWithLabel(VertexId u, VertexId v, Label edge_label) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  int64_t index = FindNeighborIndex(u, v);
  return index >= 0 && edge_labels_[static_cast<uint64_t>(index)] ==
                           edge_label;
}

Label Graph::EdgeLabelBetween(VertexId u, VertexId v) const {
  int64_t index = FindNeighborIndex(u, v);
  assert(index >= 0);
  return edge_labels_[static_cast<uint64_t>(index)];
}

std::vector<Edge> Graph::EdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (uint32_t v = 0; v < NumVertices(); ++v) {
    for (VertexId u : Neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return edges;
}

std::vector<std::pair<Edge, Label>> Graph::LabeledEdgeList() const {
  std::vector<std::pair<Edge, Label>> edges;
  edges.reserve(NumEdges());
  for (uint32_t v = 0; v < NumVertices(); ++v) {
    auto neighbors = Neighbors(v);
    auto labels = NeighborEdgeLabels(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (v < neighbors[i]) {
        edges.push_back({{v, neighbors[i]}, labels[i]});
      }
    }
  }
  return edges;
}

}  // namespace daf
