// Immutable compressed-sparse-row directed graph.
//
// This is the workhorse representation for every algorithm in the library:
// both adjacency directions are materialized (the top-down validator walks
// out-edges, UNBLOCK and the verifier walk in-edges), neighbor lists are
// sorted (binary-searchable HasEdge), and each edge has a stable canonical
// id equal to its position in the out-CSR — the DARC baseline and the line
// graph are built on those ids.
//
// Memory: 20 bytes per edge — out_targets_ + edge_src_ + in_sources_ at
// 4 bytes each plus in_edge_ids_ at 8 — and 2 * (n + 1) * 8 bytes of
// offsets. A billion-edge graph (n = 2^27, m = 2^30) costs ~22 GB,
// matching the paper's big-memory-server deployment model.
#ifndef TDB_GRAPH_CSR_GRAPH_H_
#define TDB_GRAPH_CSR_GRAPH_H_

#include <span>
#include <vector>

#include "graph/types.h"

namespace tdb {

/// Frozen directed graph with out- and in-adjacency in CSR form.
class CsrGraph {
 public:
  /// Empty graph.
  CsrGraph() = default;

  /// Builds from an edge list. `edges` need not be sorted; parallel edges
  /// are deduplicated and self-loops dropped unless `keep_self_loops`.
  /// Every referenced vertex id must be < n.
  static CsrGraph FromEdges(VertexId n, std::vector<Edge> edges,
                            bool keep_self_loops = false);

  VertexId num_vertices() const { return n_; }
  EdgeId num_edges() const { return out_targets_.size(); }

  /// Out-neighbors of `v`, sorted ascending, no duplicates.
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {out_targets_.data() + out_offsets_[v],
            out_targets_.data() + out_offsets_[v + 1]};
  }

  /// In-neighbors of `v`, sorted ascending, no duplicates.
  std::span<const VertexId> InNeighbors(VertexId v) const {
    return {in_sources_.data() + in_offsets_[v],
            in_sources_.data() + in_offsets_[v + 1]};
  }

  EdgeId out_degree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }
  EdgeId in_degree(VertexId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// True iff the edge u -> v exists. O(log out_degree(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// Canonical id of edge u -> v, or kInvalidEdge if absent.
  EdgeId FindEdge(VertexId u, VertexId v) const;

  /// Source / destination of a canonical edge id.
  VertexId EdgeSrc(EdgeId e) const { return edge_src_[e]; }
  VertexId EdgeDst(EdgeId e) const { return out_targets_[e]; }

  /// Canonical ids of v's out-edges: the contiguous range
  /// [OutEdgeBegin(v), OutEdgeEnd(v)).
  EdgeId OutEdgeBegin(VertexId v) const { return out_offsets_[v]; }
  EdgeId OutEdgeEnd(VertexId v) const { return out_offsets_[v + 1]; }

  /// Canonical ids of v's in-edges (parallel to InNeighbors(v)).
  std::span<const EdgeId> InEdgeIds(VertexId v) const {
    return {in_edge_ids_.data() + in_offsets_[v],
            in_edge_ids_.data() + in_offsets_[v + 1]};
  }

  /// Resident bytes of the fixed-width arrays, 20 * m + 16 * (n + 1)
  /// (see the file comment): GraphStats::total_bytes() without a
  /// statistics pass.
  uint64_t memory_bytes() const {
    return 20ull * num_edges() + 16ull * (static_cast<uint64_t>(n_) + 1);
  }

  /// Number of edges whose reverse edge also exists (counted per edge, so
  /// a bidirectional pair contributes 2).
  EdgeId CountReciprocalEdges() const;

 private:
  VertexId n_ = 0;
  std::vector<EdgeId> out_offsets_{0};
  std::vector<VertexId> out_targets_;
  std::vector<VertexId> edge_src_;
  std::vector<EdgeId> in_offsets_{0};
  std::vector<VertexId> in_sources_;
  std::vector<EdgeId> in_edge_ids_;
};

}  // namespace tdb

#endif  // TDB_GRAPH_CSR_GRAPH_H_
