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
  for (EdgeId i = 0; i < m; ++i) g.out_targets_[i] = edges[i].dst;

  // In-CSR: counting sort by destination, preserving edge-id order within
  // each bucket so in-neighbor lists come out sorted by source.
  g.in_offsets_.assign(n + 1, 0);
  g.in_sources_.resize(m);
  g.in_edge_ranks_.resize(m);
  for (EdgeId i = 0; i < m; ++i) ++g.in_offsets_[edges[i].dst + 1];
  for (VertexId v = 0; v < n; ++v) {
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }
  std::vector<EdgeId> cursor(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (EdgeId i = 0; i < m; ++i) {
    EdgeId pos = cursor[edges[i].dst]++;
    g.in_sources_[pos] = edges[i].src;
    g.in_edge_ranks_[pos] =
        static_cast<uint32_t>(i - g.out_offsets_[edges[i].src]);
  }
  return g;
}

VertexId CsrGraph::EdgeSrc(EdgeId e) const {
  // The source is the last vertex whose out-range starts at or before e;
  // empty out-ranges share their start with the next vertex, and
  // upper_bound steps past all of them.
  const auto it = std::upper_bound(out_offsets_.begin(), out_offsets_.end(), e);
  return static_cast<VertexId>(it - out_offsets_.begin() - 1);
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
  for (VertexId u = 0; u < n_; ++u) {
    for (const VertexId v : OutNeighbors(u)) {
      if (HasEdge(v, u)) ++count;
    }
  }
  return count;
}

}  // namespace tdb
