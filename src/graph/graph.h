#ifndef DAF_GRAPH_GRAPH_H_
#define DAF_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace daf {

/// Vertex identifier (dense, 0-based).
using VertexId = uint32_t;

/// Vertex label identifier (dense, 0-based).
using Label = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// An undirected edge as a vertex pair (unordered; both orders accepted).
using Edge = std::pair<VertexId, VertexId>;

/// Immutable undirected vertex-labeled graph in CSR form.
///
/// This is the single graph representation used for both query graphs and
/// data graphs throughout the library (Section 2 of the paper: undirected,
/// connected, vertex-labeled graphs).
///
/// Adjacency lists are sorted by (neighbor label, neighbor id), so the
/// neighbors of v sharing one label form a contiguous run. A per-vertex
/// index of those runs — `(label, end offset)` pairs, built once with the
/// graph — makes the two access patterns that dominate subgraph matching
/// cheap:
///   * `NeighborsWithLabel(v, l)` — the run of v's neighbors carrying
///     label l, found by scanning (or, past 16 runs, binary-searching) v's
///     short run list instead of its adjacency (used to materialize the CS
///     edges `N^u_{uc}(v)` and to refine candidates), with the run list
///     itself (`NeighborLabelRuns`) doubling as v's neighborhood label
///     frequency profile, and
///   * `HasEdge(u, v)` — binary search of v within u's run for v's label.
///
/// Vertices are additionally indexed by label (`VerticesWithLabel`) to
/// produce the initial candidate sets `C_ini(u)`.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph from an edge list.
  ///
  /// `labels[v]` is the label of vertex v; `num_vertices == labels.size()`.
  /// Self-loops and duplicate edges are dropped. Labels need not be dense;
  /// they are remapped to 0..NumLabels()-1 preserving relative order (the
  /// mapping is exposed via `original_label`). All edges get edge label 0.
  static Graph FromEdges(std::vector<Label> labels,
                         const std::vector<Edge>& edges);

  /// Like FromEdges, but with a label per edge (`edge_labels` aligned with
  /// `edges`) — the "multiple labels on an edge" extension the paper
  /// mentions in Section 2; bond types in chemical compound search are the
  /// canonical use. An embedding must then also preserve edge labels. If
  /// duplicate edges carry conflicting labels, the first occurrence wins.
  /// Edge labels are compared verbatim (no dense remapping).
  static Graph FromLabeledEdges(std::vector<Label> labels,
                                const std::vector<Edge>& edges,
                                const std::vector<Label>& edge_labels);

  /// The raw CSR arrays of a graph, in the *original* (caller) label space.
  /// This is the interchange form of the binary snapshot format
  /// (src/persist/snapshot.h): four flat arrays, no derived indexes.
  struct CsrParts {
    std::vector<Label> labels;        // per-vertex original labels
    std::vector<uint64_t> offsets;    // |V|+1 CSR offsets
    std::vector<VertexId> adjacency;  // 2|E|, per-vertex sorted by
                                      // (dense label, id)
    std::vector<Label> edge_labels;   // 2|E| aligned with adjacency, or
                                      // empty when every edge label is 0
  };

  /// Exports the CSR arrays. `ToCsrParts` followed by `FromCsrParts`
  /// reproduces the graph exactly (original labels round-trip; dense
  /// remapping is order-preserving, so the adjacency order is identical).
  CsrParts ToCsrParts() const;

  /// Rebuilds a graph from CSR arrays without re-sorting: the arrays must
  /// already satisfy every Graph invariant. All invariants are *validated*
  /// (std::nullopt + `*error` on violation, never UB), because the input
  /// typically comes from a file:
  ///   * offsets monotonic, offsets[0] == 0, offsets[|V|] == adjacency size;
  ///   * adjacency even-sized, ids in range, no self-loops;
  ///   * each vertex's neighbors strictly increasing by (dense label, id)
  ///     — strictness also rules out duplicate edges;
  ///   * symmetric: (u, v) present iff (v, u) present, with equal labels.
  /// Cost is O(V + E): much cheaper than FromLabeledEdges' sort and the
  /// reason binary cold-start beats text loading.
  static std::optional<Graph> FromCsrParts(CsrParts parts,
                                           std::string* error);

  /// Fills the row of a dirty vertex for FromPatchedRows: `v`'s new
  /// neighbors and their edge labels, degrees[v] entries each, sorted by
  /// (original neighbor label, id).
  using RowWriter =
      std::function<void(VertexId v, VertexId* neighbors, Label* edge_labels)>;

  /// Builds the next version of `prev` without re-sorting it. `labels` are
  /// the new per-vertex original labels (at least prev's |V| of them) and
  /// `degrees` the new degrees. A vertex v < prev.NumVertices() with
  /// `dirty[v] == 0` is clean: its row, edge labels and neighbor-label
  /// runs are copied from `prev` in bulk, so its label and its neighbors'
  /// labels must be unchanged. Every other vertex's row comes from
  /// `write_row`. Dense labels are an order-preserving remap of the
  /// original ones, so a copied row stays (label, id)-sorted when a label
  /// appears or disappears; only its runs' label ids are remapped (the
  /// identity when the label set is unchanged). The label index,
  /// MaxNeighborDegree and the edge-label flag are rebuilt over the whole
  /// graph in O(V + E).
  static Graph FromPatchedRows(const Graph& prev,
                               std::span<const Label> labels,
                               std::span<const uint32_t> degrees,
                               std::span<const uint8_t> dirty,
                               const RowWriter& write_row);

  /// Number of vertices.
  uint32_t NumVertices() const {
    return static_cast<uint32_t>(labels_.size());
  }

  /// Number of undirected edges.
  uint64_t NumEdges() const { return adjacency_.size() / 2; }

  /// Number of distinct labels.
  uint32_t NumLabels() const {
    return static_cast<uint32_t>(label_frequency_.size());
  }

  /// Average degree 2|E|/|V|.
  double AverageDegree() const {
    return NumVertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(NumEdges()) / NumVertices();
  }

  /// Label of vertex v (dense, remapped).
  Label label(VertexId v) const { return labels_[v]; }

  /// The label value that was supplied to FromEdges for dense label l.
  Label original_label(Label l) const { return original_labels_[l]; }

  /// Inverse of original_label: the dense id for a supplied label, or
  /// static_cast<Label>(-1) (query_extract's kNoSuchLabel) when no vertex
  /// carries it. O(log NumLabels()).
  Label DenseLabel(Label original) const;

  /// Degree of vertex v.
  uint32_t degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Largest degree among v's neighbors (0 for isolated vertices).
  uint32_t MaxNeighborDegree(VertexId v) const {
    return max_neighbor_degree_[v];
  }

  /// All neighbors of v, sorted by (label, id).
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// One run of equally labeled neighbors in v's adjacency: the run covers
  /// Neighbors(v)[previous run's end, end), or [0, end) for v's first run.
  struct LabelRun {
    Label label;
    uint32_t end;
  };

  /// v's neighbor-label runs, ascending by label (one per distinct label).
  /// The count of run i is `end - (i == 0 ? 0 : runs[i - 1].end)`.
  std::span<const LabelRun> NeighborLabelRuns(VertexId v) const {
    return {label_runs_.data() + run_offsets_[v],
            run_offsets_[v + 1] - run_offsets_[v]};
  }

  /// The neighbors of v that carry label l (contiguous sub-range). Empty
  /// when there is none; its position is then where such neighbors would
  /// sit in Neighbors(v).
  std::span<const VertexId> NeighborsWithLabel(VertexId v, Label l) const {
    const LabelRun* first = label_runs_.data() + run_offsets_[v];
    const LabelRun* last = label_runs_.data() + run_offsets_[v + 1];
    const LabelRun* it = first;
    if (last - first <= kLinearRunScan) {
      while (it != last && it->label < l) ++it;
    } else {
      it = std::lower_bound(
          first, last, l,
          [](const LabelRun& run, Label key) { return run.label < key; });
    }
    const uint32_t begin = it == first ? 0 : it[-1].end;
    const uint32_t end = it != last && it->label == l ? it->end : begin;
    return {adjacency_.data() + offsets_[v] + begin, end - begin};
  }

  /// Number of neighbors of v with label l (the NLF value).
  uint32_t NeighborLabelCount(VertexId v, Label l) const {
    return static_cast<uint32_t>(NeighborsWithLabel(v, l).size());
  }

  /// Number of distinct labels among v's neighbors.
  uint32_t NeighborLabelVariety(VertexId v) const {
    return static_cast<uint32_t>(run_offsets_[v + 1] - run_offsets_[v]);
  }

  /// True iff the undirected edge (u, v) exists.
  bool HasEdge(VertexId u, VertexId v) const;

  /// True iff the edge (u, v) exists and carries edge label `edge_label`.
  bool HasEdgeWithLabel(VertexId u, VertexId v, Label edge_label) const;

  /// The label of edge (u, v); the edge must exist.
  Label EdgeLabelBetween(VertexId u, VertexId v) const;

  /// Edge labels aligned with Neighbors(v): element i is the label of the
  /// edge (v, Neighbors(v)[i]).
  std::span<const Label> NeighborEdgeLabels(VertexId v) const {
    return {edge_labels_.data() + offsets_[v],
            offsets_[v + 1] - offsets_[v]};
  }

  /// True iff some edge carries a non-zero label. When false (every
  /// FromEdges graph), edge-label checks can be skipped entirely.
  bool HasNontrivialEdgeLabels() const { return nontrivial_edge_labels_; }

  /// Neighbors of v with vertex label l, together with the labels of the
  /// connecting edges (both spans aligned).
  struct NeighborSlice {
    std::span<const VertexId> vertices;
    std::span<const Label> edge_labels;
  };
  NeighborSlice NeighborsWithLabelAndEdges(VertexId v, Label l) const {
    std::span<const VertexId> vertices = NeighborsWithLabel(v, l);
    return {vertices,
            {edge_labels_.data() + (vertices.data() - adjacency_.data()),
             vertices.size()}};
  }

  /// All vertices carrying label l, ascending by id.
  std::span<const VertexId> VerticesWithLabel(Label l) const {
    return {vertices_by_label_.data() + label_offsets_[l],
            label_offsets_[l + 1] - label_offsets_[l]};
  }

  /// Number of vertices carrying label l.
  uint32_t LabelFrequency(Label l) const { return label_frequency_[l]; }

  /// All edges as (u, v) pairs with u < v, in unspecified order.
  std::vector<Edge> EdgeList() const;

  /// All edges with their labels: ((u, v), label) with u < v.
  std::vector<std::pair<Edge, Label>> LabeledEdgeList() const;

 private:
  /// Position of v in adjacency_ within u's neighbors, or -1 when the edge
  /// (u, v) is absent.
  int64_t FindNeighborIndex(VertexId u, VertexId v) const;

  /// Run lists at most this long are scanned linearly by
  /// NeighborsWithLabel; longer ones (hubs) are binary-searched.
  static constexpr std::ptrdiff_t kLinearRunScan = 16;

  /// Fills nontrivial_edge_labels_, max_neighbor_degree_, the label index
  /// and the neighbor-label runs from labels_/offsets_/adjacency_/
  /// edge_labels_.
  void BuildDerivedIndexes();

  /// The part of BuildDerivedIndexes that FromPatchedRows cannot copy:
  /// nontrivial_edge_labels_, max_neighbor_degree_ and the label index.
  void BuildVertexIndexes();

  /// Number of neighbor-label runs in v's row, and writing them at
  /// label_runs_[run_offsets_[v]].
  uint64_t CountRuns(VertexId v) const;
  void FillRuns(VertexId v);

  std::vector<Label> labels_;
  std::vector<Label> original_labels_;  // dense label -> supplied label
  std::vector<uint64_t> offsets_;       // |V|+1 CSR offsets
  std::vector<VertexId> adjacency_;     // 2|E| neighbor entries
  std::vector<Label> edge_labels_;      // aligned with adjacency_
  bool nontrivial_edge_labels_ = false;
  std::vector<uint32_t> max_neighbor_degree_;
  std::vector<uint64_t> label_offsets_;  // |Σ|+1
  std::vector<VertexId> vertices_by_label_;
  std::vector<uint32_t> label_frequency_;
  std::vector<uint64_t> run_offsets_;  // |V|+1 starts into label_runs_
  std::vector<LabelRun> label_runs_;   // per vertex, ascending by label
};

}  // namespace daf

#endif  // DAF_GRAPH_GRAPH_H_
