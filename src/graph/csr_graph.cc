#include "graph/csr_graph.h"

#include <algorithm>

#include "util/check.h"

namespace tdb {

CsrGraph CsrGraph::FromEdges(VertexId n, std::vector<Edge> edges,
                             bool keep_self_loops) {
  if (!keep_self_loops) {
    std::erase_if(edges, [](const Edge& e) { return e.src == e.dst; });
  }
  // Snapshots, binary loads and induced subgraphs hand over edges that
  // are already in (src, dst) order; checking costs one pass, sorting
  // them again costs O(m log m).
  if (!std::is_sorted(edges.begin(), edges.end())) {
    std::sort(edges.begin(), edges.end());
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  CsrGraph g;
  g.n_ = n;
  const EdgeId m = edges.size();

  g.out_offsets_.assign(n + 1, 0);
  g.out_targets_.resize(m);
  g.edge_src_.resize(m);
  for (const Edge& e : edges) {
    TDB_CHECK_MSG(e.src < n && e.dst < n, "edge (%u,%u) out of range n=%u",
                  e.src, e.dst, n);
    ++g.out_offsets_[e.src + 1];
  }
  for (VertexId v = 0; v < n; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
  }
  // `edges` is sorted by (src, dst), so writing in order fills each
  // adjacency list sorted by target.
  for (EdgeId i = 0; i < m; ++i) {
    g.out_targets_[i] = edges[i].dst;
    g.edge_src_[i] = edges[i].src;
  }

  // In-CSR: counting sort by destination, preserving edge-id order within
  // each bucket so in-neighbor lists come out sorted by source.
  g.in_offsets_.assign(n + 1, 0);
  g.in_sources_.resize(m);
  g.in_edge_ids_.resize(m);
  for (EdgeId i = 0; i < m; ++i) ++g.in_offsets_[edges[i].dst + 1];
  for (VertexId v = 0; v < n; ++v) {
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (EdgeId i = 0; i < m; ++i) {
    EdgeId pos = cursor[edges[i].dst]++;
    g.in_sources_[pos] = edges[i].src;
    g.in_edge_ids_[pos] = i;
  }
  return g;
}

bool CsrGraph::HasEdge(VertexId u, VertexId v) const {
  return FindEdge(u, v) != kInvalidEdge;
}

EdgeId CsrGraph::FindEdge(VertexId u, VertexId v) const {
  auto nbrs = OutNeighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return kInvalidEdge;
  return out_offsets_[u] + static_cast<EdgeId>(it - nbrs.begin());
}

EdgeId CsrGraph::CountReciprocalEdges() const {
  EdgeId count = 0;
  for (EdgeId e = 0; e < num_edges(); ++e) {
    if (HasEdge(EdgeDst(e), EdgeSrc(e))) ++count;
  }
  return count;
}

}  // namespace tdb
