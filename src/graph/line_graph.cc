#include "graph/line_graph.h"

#include <algorithm>

namespace tdb {

Status BuildLineGraph(const CsrGraph& base, std::span<const VertexId> members,
                      LineGraph* out, EdgeId max_arcs) {
  // Nodes in canonical edge order: members ascend and each out-range is
  // sorted, so the out-edges of members[i] that stay inside the set are
  // the consecutive nodes [node_begin[i], node_begin[i + 1]).
  const size_t c = members.size();
  std::vector<EdgeId> base_edge;
  std::vector<VertexId> head;  // member index of each node's dst
  std::vector<EdgeId> node_begin(c + 1);
  for (size_t i = 0; i < c; ++i) {
    node_begin[i] = base_edge.size();
    for (EdgeId e = base.OutEdgeBegin(members[i]);
         e < base.OutEdgeEnd(members[i]); ++e) {
      const auto it =
          std::lower_bound(members.begin(), members.end(), base.EdgeDst(e));
      if (it == members.end() || *it != base.EdgeDst(e)) continue;
      base_edge.push_back(e);
      head.push_back(static_cast<VertexId>(it - members.begin()));
    }
  }
  node_begin[c] = base_edge.size();

  // |arcs| = sum over nodes of the out-degree of their head.
  EdgeId arcs = 0;
  for (VertexId j : head) arcs += node_begin[j + 1] - node_begin[j];
  if (arcs > max_arcs) {
    return Status::ResourceExhausted(
        "line graph would have " + std::to_string(arcs) +
        " arcs (limit " + std::to_string(max_arcs) + ")");
  }
  if (base_edge.size() > kInvalidVertex) {
    return Status::ResourceExhausted(
        "line graph node count exceeds 32-bit vertex ids");
  }
  std::vector<Edge> l_edges;
  l_edges.reserve(arcs);
  for (size_t x = 0; x < head.size(); ++x) {
    for (EdgeId y = node_begin[head[x]]; y < node_begin[head[x] + 1]; ++y) {
      l_edges.push_back(
          Edge{static_cast<VertexId>(x), static_cast<VertexId>(y)});
    }
  }
  out->graph = CsrGraph::FromEdges(static_cast<VertexId>(base_edge.size()),
                                   std::move(l_edges));
  out->base_edge = std::move(base_edge);
  return Status::OK();
}

}  // namespace tdb
