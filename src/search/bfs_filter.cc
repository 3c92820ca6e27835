#include "search/bfs_filter.h"

#include "util/check.h"

namespace tdb {

BfsFilter::BfsFilter(const CsrGraph& graph)
    : graph_(graph), owned_context_(std::make_unique<SearchContext>()) {
  ctx_ = owned_context_.get();
  ctx_->EnsureBfsSize(graph.num_vertices());
}

BfsFilter::BfsFilter(const CsrGraph& graph, SearchContext* context)
    : graph_(graph), ctx_(context) {
  TDB_CHECK(context != nullptr);
  ctx_->EnsureBfsSize(graph.num_vertices());
}

uint32_t BfsFilter::ShortestClosedWalk(VertexId start, uint32_t max_hops,
                                       const uint8_t* active,
                                       Deadline* deadline) {
  EpochArray<uint8_t>& visited = ctx_->visited;
  std::vector<VertexId>& frontier = ctx_->frontier;
  std::vector<VertexId>& next_frontier = ctx_->next_frontier;

  visited.NewEpoch();
  frontier.clear();
  frontier.push_back(start);
  visited.Set(start, 1);

  // Frontier vertices expanded by this call; published to the context's
  // stats once, on every exit.
  uint64_t dequeued = 0;
  const auto finish = [&](uint32_t walk) {
    ctx_->stats.filter_visits += dequeued;
    return walk;
  };

  // Invariant: frontier holds all vertices at distance `depth` from start.
  // A closed walk of length depth+1 exists iff some frontier vertex has an
  // edge back to start; BFS order makes the first hit the minimum.
  for (uint32_t depth = 0; depth < max_hops; ++depth) {
    next_frontier.clear();
    for (VertexId u : frontier) {
      if (deadline != nullptr && deadline->Expired()) {
        return finish(kTimedOutWalk);
      }
      ++dequeued;
      for (VertexId w : graph_.OutNeighbors(u)) {
        if (w == start) return finish(depth + 1);
        if (visited.Get(w)) continue;
        if (active != nullptr && !active[w]) continue;
        visited.Set(w, 1);
        // Vertices at distance max_hops - 1 can still close a walk of
        // length max_hops; deeper ones cannot.
        if (depth + 1 < max_hops) next_frontier.push_back(w);
      }
    }
    frontier.swap(next_frontier);
    if (frontier.empty()) break;
  }
  return finish(max_hops + 1);
}

}  // namespace tdb
