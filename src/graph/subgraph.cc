#include "graph/subgraph.h"

#include <utility>

#include "util/check.h"

namespace tdb {

SubgraphExtractor::SubgraphExtractor(const CsrGraph& parent)
    : parent_(parent),
      global_to_local_(parent.num_vertices(), kInvalidVertex) {}

InducedSubgraph SubgraphExtractor::Extract(
    std::span<const VertexId> members) {
  InducedSubgraph sub;
  sub.to_global.assign(members.begin(), members.end());

  const VertexId k = static_cast<VertexId>(members.size());
  for (VertexId local = 0; local < k; ++local) {
    const VertexId g = members[local];
    TDB_CHECK(g < parent_.num_vertices());
    TDB_CHECK_MSG(local == 0 || members[local - 1] < g,
                  "members must be sorted ascending and unique");
    global_to_local_[g] = local;
  }

  // Members ascend and neighbor lists are sorted, so the edges come out
  // pre-sorted by (src, dst) — FromEdges skips its sort.
  edge_scratch_.clear();
  for (VertexId local = 0; local < k; ++local) {
    for (VertexId w : parent_.OutNeighbors(members[local])) {
      const VertexId wl = global_to_local_[w];
      if (wl != kInvalidVertex) edge_scratch_.push_back({local, wl});
    }
  }
  sub.graph = CsrGraph::FromEdges(k, edge_scratch_);

  for (VertexId g : members) global_to_local_[g] = kInvalidVertex;
  return sub;
}

}  // namespace tdb
