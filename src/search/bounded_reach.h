// Multi-source hop-bounded BFS over a filtered graph view.
//
// This is the traversal primitive behind batched admission:
// PathProber::FindPathsFrom runs it once per shared probe source to
// answer a whole group of s-t existence queries with a single sweep.
// Level-synchronous BFS computes exact shortest hop counts in the
// filtered subgraph, and a shortest walk is always a simple path, so the
// depths it reports are exact simple-path distances — the property every
// verdict derived from them relies on.
#ifndef TDB_SEARCH_BOUNDED_REACH_H_
#define TDB_SEARCH_BOUNDED_REACH_H_

#include <span>
#include <utility>

#include "graph/types.h"
#include "search/search_context.h"

namespace tdb {

/// Which adjacency BoundedReach follows. Reverse traversal computes
/// distances TO the sources (dist(x -> s) along out-edges).
enum class ReachDirection { kForward, kReverse };

/// Runs a level-synchronous BFS from `sources` (all at depth 0),
/// following out-edges (kForward) or in-edges (kReverse) for which
/// filter(edge_id) returns true, for at most `max_hops` levels.
/// visit(vertex, depth) fires exactly once per reached vertex at its
/// shortest filtered depth: the (deduplicated) sources at depth 0, then
/// each level in deterministic expansion order. Out-of-universe sources
/// are skipped. GraphT needs num_vertices() and ForEachOut/ForEachIn
/// calling fn(neighbor, edge_id). Scratch lives in `ctx` (visited marks
/// plus the frontier buffers), so warm reuse allocates nothing; one
/// context per concurrent caller.
template <typename GraphT, typename FilterFn, typename VisitFn>
void BoundedReach(const GraphT& graph, ReachDirection direction,
                  std::span<const VertexId> sources, uint32_t max_hops,
                  SearchContext* ctx, FilterFn&& filter, VisitFn&& visit) {
  const VertexId n = graph.num_vertices();
  ctx->EnsureBfsSize(n);
  ctx->visited.NewEpoch();
  ctx->frontier.clear();
  ctx->next_frontier.clear();
  for (const VertexId s : sources) {
    if (s >= n || ctx->visited.IsSet(s)) continue;
    ctx->visited.Set(s, 1);
    visit(s, uint32_t{0});
    ctx->frontier.push_back(s);
  }
  for (uint32_t depth = 1; depth <= max_hops && !ctx->frontier.empty();
       ++depth) {
    ctx->next_frontier.clear();
    for (const VertexId x : ctx->frontier) {
      const auto step = [&](VertexId w, EdgeId e) {
        if (!filter(e)) return true;
        if (ctx->visited.IsSet(w)) return true;
        ctx->visited.Set(w, 1);
        visit(w, depth);
        ctx->next_frontier.push_back(w);
        return true;
      };
      if (direction == ReachDirection::kForward) {
        graph.ForEachOut(x, step);
      } else {
        graph.ForEachIn(x, step);
      }
    }
    std::swap(ctx->frontier, ctx->next_frontier);
  }
  ctx->frontier.clear();
  ctx->next_frontier.clear();
}

}  // namespace tdb

#endif  // TDB_SEARCH_BOUNDED_REACH_H_
