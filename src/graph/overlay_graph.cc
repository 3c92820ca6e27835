#include "graph/overlay_graph.h"

#include <utility>

#include "util/check.h"

namespace tdb {

OverlayGraph::OverlayGraph(std::shared_ptr<const CsrGraph> base)
    : base_(std::move(base)) {
  TDB_CHECK(base_ != nullptr);
}

EdgeId OverlayGraph::AddEdge(VertexId u, VertexId v) {
  const VertexId n = num_vertices();
  if (u == v || u >= n || v >= n) return kInvalidEdge;
  if (base_->HasEdge(u, v)) return kInvalidEdge;
  if (!delta_present_.insert(Key(u, v)).second) return kInvalidEdge;
  const EdgeId id = base_edges() + delta_.size();
  delta_.push_back(Edge{u, v});
  delta_out_[u].push_back(AdjEntry{v, id});
  delta_in_[v].push_back(AdjEntry{u, id});
  return id;
}

bool OverlayGraph::HasEdge(VertexId u, VertexId v) const {
  const VertexId n = num_vertices();
  if (u >= n || v >= n) return false;
  return base_->HasEdge(u, v) || delta_present_.count(Key(u, v)) > 0;
}

EdgeId OverlayGraph::OutDegree(VertexId v) const {
  EdgeId degree = base_->out_degree(v);
  const auto it = delta_out_.find(v);
  if (it != delta_out_.end()) degree += it->second.size();
  return degree;
}

CsrGraph OverlayGraph::ToCsr() const {
  std::vector<Edge> edges;
  edges.reserve(num_edges());
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId w : base_->OutNeighbors(v)) {
      edges.push_back(Edge{v, w});
    }
  }
  edges.insert(edges.end(), delta_.begin(), delta_.end());
  return CsrGraph::FromEdges(n, std::move(edges));
}

}  // namespace tdb
