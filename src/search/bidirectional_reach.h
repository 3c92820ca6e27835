// Meet-in-the-middle hop-bounded reachability between one source and one
// target over a filtered graph view.
//
// This is the existence check behind the ingest probe
// (PathProber::FindPath): is there an open path source ->* target of at
// most h hops? A forward-only sweep to depth h visits the whole h-ball of
// the source, which on hub-heavy graphs is most of the graph. Two balls of
// half the radius meet instead: a reverse ball of radius r = floor(h/2)
// around the target and a forward ball of radius h - r around the
// source. For a shortest open path of length d <= h, its vertex at
// position max(0, d - r) lies in both balls, so
//
//   d = min over x in both balls of df(x) + dr(x)
//
// is exact whenever d <= h, and no x joins when d > h (every joined value
// is the length of a real open walk). The same idea is the shared
// forward/backward balls of Yuan et al. (batch hop-constrained s-t
// paths) and PathEnum's light per-query index.
//
// "Open" is the caller's filter, split into a vertex and an edge test: an
// edge a -> b is traversable iff vertex_open(a) && edge_open(a, edge id).
// The forward ball never leaves a closed vertex and the reverse ball never
// follows an in-edge whose source is closed, so a closed vertex can only
// end a path (as the target). The ingest probe closes base-cover
// vertices and opens every edge outside S; it gets the edge's source so
// that S's source filter can settle most tests without a hash lookup.
//
// The reverse ball's distances stay behind in ctx->reach_dist as labels
// dr(x) + 1 (0 = unlabeled, i.e. dr(x) > r), so a later search toward the
// same target can prune with ReachLowerBound. Labels are one byte, so the
// reverse radius is capped at kMaxReverseRadius and the forward ball
// takes the rest of the budget; the join stays exact.
#ifndef TDB_SEARCH_BIDIRECTIONAL_REACH_H_
#define TDB_SEARCH_BIDIRECTIONAL_REACH_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "search/search_context.h"

namespace tdb {

/// Largest reverse radius whose labels (dr + 1) fit in one byte.
inline constexpr uint32_t kMaxReverseRadius = 254;

/// Distance value meaning "no open path of at most max_hops hops".
inline constexpr uint32_t kNoJoin = 0xFFFFFFFFu;

/// Reverse-ball radius for a hop budget: floor(max_hops / 2), capped so
/// labels fit in a byte. The forward ball gets max_hops minus this.
inline uint32_t ReverseRadius(uint32_t max_hops) {
  return std::min(max_hops / 2, kMaxReverseRadius);
}

/// Lower bound on the open distance v ->* target, read from the labels
/// the last BidirectionalDistance toward `target` left in `ctx`: exact
/// inside the reverse ball, reverse_radius + 1 outside it.
inline uint32_t ReachLowerBound(const SearchContext& ctx, VertexId v,
                                uint32_t reverse_radius) {
  const uint8_t label = ctx.reach_dist.Get(v);
  return label != 0 ? label - 1u : reverse_radius + 1;
}

/// Shortest open distance source ->* target when it is at most
/// `max_hops`, else kNoJoin. GraphT needs num_vertices() and
/// ForEachOut/ForEachIn calling fn(neighbor, edge_id) and honoring a false
/// return as "stop". edge_open(src, edge_id) is asked about each edge with
/// its source vertex. Leaves the reverse ball of radius
/// ReverseRadius(max_hops) labeled in ctx->reach_dist; uses ctx->visited
/// and the frontier buffers as forward-ball scratch. One context per
/// concurrent caller.
template <typename GraphT, typename VertexOpenFn, typename EdgeOpenFn>
uint32_t BidirectionalDistance(const GraphT& graph, VertexId source,
                               VertexId target, uint32_t max_hops,
                               SearchContext* ctx, VertexOpenFn&& vertex_open,
                               EdgeOpenFn&& edge_open) {
  ctx->EnsureProbeSize(graph.num_vertices());
  EpochArray<uint8_t>& label = ctx->reach_dist;
  std::vector<VertexId>& frontier = ctx->frontier;
  std::vector<VertexId>& next = ctx->next_frontier;
  const uint32_t reverse_radius = ReverseRadius(max_hops);
  const uint32_t forward_radius = max_hops - reverse_radius;

  // Reverse ball: every vertex within reverse_radius open hops of the
  // target, labeled with its exact distance + 1.
  label.NewEpoch();
  label.Set(target, 1);
  frontier.assign(1, target);
  for (uint32_t depth = 1; depth <= reverse_radius && !frontier.empty();
       ++depth) {
    next.clear();
    for (const VertexId x : frontier) {
      graph.ForEachIn(x, [&](VertexId y, EdgeId e) {
        if (label.Get(y) != 0 || !vertex_open(y) || !edge_open(y, e)) {
          return true;
        }
        label.Set(y, static_cast<uint8_t>(depth + 1));
        next.push_back(y);
        return true;
      });
    }
    std::swap(frontier, next);
  }

  // Forward ball with the join. A labeled vertex is never expanded: any
  // join reached through it is no shorter than its own, since dr drops by
  // at most one per hop. For the same reason a level at or past the best
  // join so far cannot improve it.
  uint32_t best = kNoJoin;
  if (const uint8_t source_label = label.Get(source); source_label != 0) {
    best = source_label - 1u;
  } else if (vertex_open(source)) {
    ctx->visited.NewEpoch();
    ctx->visited.Set(source, 1);
    frontier.assign(1, source);
    for (uint32_t depth = 1;
         depth <= forward_radius && depth < best && !frontier.empty();
         ++depth) {
      next.clear();
      for (const VertexId x : frontier) {
        const bool exhausted = graph.ForEachOut(x, [&](VertexId w, EdgeId e) {
          if (ctx->visited.IsSet(w) || !edge_open(x, e)) return true;
          ctx->visited.Set(w, 1);
          const uint8_t l = label.Get(w);
          if (l != 0) {
            best = std::min(best, depth + l - 1u);
            return best > depth;  // reached the target: nothing beats it
          }
          if (depth < forward_radius && vertex_open(w)) next.push_back(w);
          return true;
        });
        if (!exhausted) break;
      }
      std::swap(frontier, next);
    }
  }
  frontier.clear();
  next.clear();
  return best;
}

}  // namespace tdb

#endif  // TDB_SEARCH_BIDIRECTIONAL_REACH_H_
