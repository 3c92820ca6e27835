// Snapshot/delta graph: an immutable base plus a mutable overlay of
// recent insertions, with unified neighbor iteration.
//
// The online cycle-break service (src/service/) never mutates a CSR: the
// base snapshot stays frozen (readers traverse it lock-free forever) and
// every ingested edge lands in a small delta keyed only by the vertices it
// touches. Copying an OverlayGraph therefore costs O(delta), not O(m) —
// the property the service's per-batch snapshot publication relies on —
// and compaction periodically folds the delta back into a fresh base
// (ToCsr) so the delta never grows past a configured threshold.
//
// Edge ids extend the base's canonical ids: base edges keep their CSR ids
// [0, base_edges()), delta edges are numbered base_edges(), base_edges()+1,
// ... in insertion order. Ids are stable until compaction (which, like
// CsrGraph::FromEdges, re-canonicalizes).
#ifndef TDB_GRAPH_OVERLAY_GRAPH_H_
#define TDB_GRAPH_OVERLAY_GRAPH_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/dynamic_digraph.h"
#include "graph/types.h"

namespace tdb {

/// Immutable base snapshot + insert-only delta overlay. Copyable in
/// O(delta) (the base is shared, not cloned).
class OverlayGraph {
 public:
  /// Wraps `base` with an empty delta. The vertex universe is fixed at
  /// base->num_vertices(); edges outside it are rejected.
  explicit OverlayGraph(std::shared_ptr<const CsrGraph> base);

  VertexId num_vertices() const { return base_->num_vertices(); }
  /// Base + delta edges.
  EdgeId num_edges() const { return base_edges() + delta_.size(); }
  EdgeId base_edges() const { return base_->num_edges(); }
  EdgeId delta_edges() const { return delta_.size(); }

  const CsrGraph& base() const { return *base_; }
  /// Delta edges in insertion order; entry i has id base_edges() + i.
  std::span<const Edge> delta() const { return delta_; }

  /// Adds u -> v to the delta; returns its edge id, or kInvalidEdge for
  /// self-loops, out-of-universe endpoints, and edges already present in
  /// the base or the delta.
  EdgeId AddEdge(VertexId u, VertexId v);

  bool HasEdge(VertexId u, VertexId v) const;

  VertexId EdgeSrc(EdgeId e) const {
    if (e >= base_edges()) return delta_[e - base_edges()].src;
    return base_->EdgeSrc(e);
  }
  VertexId EdgeDst(EdgeId e) const {
    if (e >= base_edges()) return delta_[e - base_edges()].dst;
    return base_->EdgeDst(e);
  }

  /// Calls fn(neighbor, edge_id) for every out-edge of v — base edges
  /// first (ascending neighbor, canonical ids), then delta edges in
  /// insertion order. fn returns false to stop early; ForEachOut returns
  /// false iff it was stopped. The iteration order is deterministic,
  /// which the ingest path's replay-equivalence guarantees depend on.
  template <typename Fn>
  bool ForEachOut(VertexId v, Fn&& fn) const {
    const EdgeId end = base_->OutEdgeEnd(v);
    for (EdgeId e = base_->OutEdgeBegin(v); e < end; ++e) {
      if (!fn(base_->EdgeDst(e), e)) return false;
    }
    const auto it = delta_out_.find(v);
    if (it != delta_out_.end()) {
      for (const AdjEntry& a : it->second) {
        if (!fn(a.neighbor, a.edge)) return false;
      }
    }
    return true;
  }

  /// In-edge analogue of ForEachOut.
  template <typename Fn>
  bool ForEachIn(VertexId v, Fn&& fn) const {
    const auto sources = base_->InNeighbors(v);
    const auto ids = base_->InEdgeIds(v);
    for (size_t i = 0; i < sources.size(); ++i) {
      if (!fn(sources[i], ids[i])) return false;
    }
    const auto it = delta_in_.find(v);
    if (it != delta_in_.end()) {
      for (const AdjEntry& a : it->second) {
        if (!fn(a.neighbor, a.edge)) return false;
      }
    }
    return true;
  }

  /// Out-degree across base + delta.
  EdgeId OutDegree(VertexId v) const;

  /// Freezes base + delta into a standalone CSR (compaction input). Edge
  /// ids are re-canonicalized by the CSR build.
  CsrGraph ToCsr() const;

 private:
  static uint64_t Key(VertexId u, VertexId v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  std::shared_ptr<const CsrGraph> base_;
  std::vector<Edge> delta_;
  /// Per-vertex delta adjacency, present only for touched vertices so a
  /// copy costs O(delta) rather than O(n).
  std::unordered_map<VertexId, std::vector<AdjEntry>> delta_out_;
  std::unordered_map<VertexId, std::vector<AdjEntry>> delta_in_;
  std::unordered_set<uint64_t> delta_present_;
};

}  // namespace tdb

#endif  // TDB_GRAPH_OVERLAY_GRAPH_H_
