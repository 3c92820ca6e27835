#include "core/batch_augment.h"

#include <algorithm>

#include "search/bidirectional_reach.h"
#include "util/trace.h"

namespace tdb {

std::shared_ptr<const BaseCover> BaseCover::FromVertexCover(
    VertexId n, std::vector<VertexId> cover, Status status) {
  auto base = std::make_shared<BaseCover>();
  std::sort(cover.begin(), cover.end());
  base->vertex_mask.assign(n, 0);
  for (VertexId v : cover) base->vertex_mask[v] = 1;
  base->vertices = std::move(cover);
  base->solve_status = std::move(status);
  return base;
}

PathProber::PathProber(const CoverOptions& options)
    : PathProber(options, nullptr) {}

PathProber::PathProber(const CoverOptions& options, SearchContext* ctx)
    : ctx_(ctx) {
  const uint32_t min_len = options.include_two_cycles ? 2 : 3;
  min_path_ = min_len - 1;
  max_path_ = options.k - 1;
  reverse_radius_ = ReverseRadius(max_path_);
  if (ctx_ == nullptr) {
    owned_context_ = std::make_unique<SearchContext>();
    ctx_ = owned_context_.get();
  }
}

bool PathProber::FindPath(const OverlayGraph& graph,
                          const TransversalState& state, VertexId src,
                          VertexId dst, std::vector<VertexId>* path) {
  ++queries_;
  if (path != nullptr) path->clear();
  const uint32_t dist = BidirectionalDistance(
      graph, src, dst, max_path_, ctx_,
      [&](VertexId v) { return !state.VertexCovered(v); },
      [&](VertexId from, EdgeId e) {
        return !state.covered.contains(from, e);
      });
  // No uncovered walk of <= k - 1 hops, hence no qualifying path.
  if (dist == kNoJoin) return false;
  // In the band, the shortest uncovered walk is itself a qualifying
  // simple path; only a caller that wants the DFS's path pays for it.
  if (path == nullptr && dist >= min_path_) return true;
  ++dfs_runs_;
  on_path_.clear();
  on_path_.push_back(src);
  const bool found = Dfs(graph, state, src, dst, 0, path);
  if (found && path != nullptr) {
    // Dfs appends the suffix (dst first, then intermediates as the
    // recursion unwinds); normalize to src..dst order.
    std::reverse(path->begin(), path->end());
    path->insert(path->begin(), src);
  }
  return found;
}

bool PathProber::Dfs(const OverlayGraph& graph, const TransversalState& state,
                     VertexId u, VertexId dst, uint32_t depth,
                     std::vector<VertexId>* path) {
  // Every out-edge of a base-cover vertex is covered; the search may
  // enter such a vertex (hubs are the cover's usual members) but never
  // leave it. Past this test only S can cover an out-edge of u.
  if (state.VertexCovered(u)) return false;
  bool found = false;
  graph.ForEachOut(u, [&](VertexId w, EdgeId e) {
    if (state.covered.contains(u, e)) return true;
    if (w == dst) {
      const uint32_t len = depth + 1;
      if (len < min_path_ || len > max_path_) return true;
      if (path != nullptr) path->push_back(dst);
      found = true;
      return false;
    }
    // Entering w costs depth + 1 hops and at least lb(w) more to reach
    // dst; lb is a true lower bound on any uncovered path w ->* dst, so a
    // pruned subtree holds no path (in particular not a longer one behind
    // a below-band bare edge).
    if (uint64_t{depth} + 1 + ReachLowerBound(*ctx_, w, reverse_radius_) >
        max_path_) {
      return true;
    }
    if (std::find(on_path_.begin(), on_path_.end(), w) != on_path_.end()) {
      return true;
    }
    on_path_.push_back(w);
    found = Dfs(graph, state, w, dst, depth + 1, path);
    on_path_.pop_back();
    if (found) {
      if (path != nullptr) path->push_back(w);
      return false;
    }
    return true;
  });
  return found;
}

namespace {

/// An edge id with its source vertex, the key an S insert needs.
struct SourcedEdge {
  VertexId src;
  EdgeId id;
};

/// The edges along `path` (a vertex sequence whose consecutive pairs are
/// edges of `graph`). OverlayGraph rejects duplicate (u, v) pairs, so the
/// first match per hop is the only one.
void PathEdges(const OverlayGraph& graph, const std::vector<VertexId>& path,
               std::vector<SourcedEdge>* edges) {
  edges->clear();
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    graph.ForEachOut(path[i], [&](VertexId w, EdgeId e) {
      if (w != path[i + 1]) return true;
      edges->push_back({path[i], e});
      return false;
    });
  }
}

/// Sequential AUGMENT for edge `e` against live state: cover every
/// uncovered cycle e closes, reusing a W edge when the found cycle holds
/// one (DARC's preference — W edges already proved removable once).
/// Every edge committed to S lands in `pending` for the PRUNE pass.
void AugmentEdge(OverlayGraph* graph, TransversalState* state,
                 PathProber* prober, EdgeId e,
                 std::vector<SourcedEdge>* pending,
                 BatchAugmentStats* stats) {
  const SourcedEdge closing{graph->EdgeSrc(e), e};
  std::vector<VertexId> path;
  std::vector<SourcedEdge> cycle_edges;
  while (!state->EdgeCovered(*graph, e)) {
    if (!prober->FindPath(*graph, *state, graph->EdgeDst(e), closing.src,
                          &path)) {
      break;
    }
    ++stats->cycles_covered;
    PathEdges(*graph, path, &cycle_edges);
    cycle_edges.push_back(closing);
    const auto w_edge = std::find_if(
        cycle_edges.begin(), cycle_edges.end(), [&](const SourcedEdge& ce) {
          return state->reusable.count(ce.id) > 0;
        });
    if (w_edge != cycle_edges.end()) {
      state->reusable.erase(w_edge->id);
      state->covered.insert(w_edge->src, w_edge->id);
      pending->push_back(*w_edge);
    } else {
      for (const SourcedEdge& ce : cycle_edges) {
        state->covered.insert(ce.src, ce.id);
        pending->push_back(ce);
      }
    }
  }
}

/// PRUNE over the edges this batch committed: drop an edge from S when no
/// otherwise-uncovered cycle needs it (to W, for later reuse) or when the
/// base layer already covers it (for good).
void PruneCommitted(OverlayGraph* graph, TransversalState* state,
                    PathProber* prober, std::vector<SourcedEdge>* pending,
                    BatchAugmentStats* stats) {
  while (!pending->empty()) {
    const SourcedEdge e = pending->back();
    pending->pop_back();
    // The erase leaves the source's filter bit set (CoveredEdgeSet).
    if (!state->covered.erase(e.id)) continue;
    if (state->VertexCovered(e.src)) {
      ++stats->prunes;  // redundant: the base layer covers it anyway
      continue;
    }
    if (prober->FindPath(*graph, *state, graph->EdgeDst(e.id), e.src,
                         nullptr)) {
      // Still carries an otherwise-uncovered cycle.
      state->covered.insert(e.src, e.id);
    } else {
      state->reusable.insert(e.id);
      ++stats->prunes;
    }
  }
}

}  // namespace

BatchAugmentStats BatchAugment(OverlayGraph* graph, TransversalState* state,
                               const CoverOptions& options,
                               std::span<const Edge> batch,
                               SearchContext* ctx) {
  TDB_TRACE_SPAN("ingest.batch_augment");
  BatchAugmentStats stats;
  stats.submitted = batch.size();
  std::vector<EdgeId> added;
  added.reserve(batch.size());
  for (const Edge& edge : batch) {
    const EdgeId e = graph->AddEdge(edge.src, edge.dst);
    if (e == kInvalidEdge) {
      ++stats.rejected;
      continue;
    }
    added.push_back(e);
  }
  stats.inserted = added.size();

  PathProber prober(options, ctx);
  std::vector<SourcedEdge> pending;
  for (const EdgeId e : added) {
    AugmentEdge(graph, state, &prober, e, &pending, &stats);
  }
  PruneCommitted(graph, state, &prober, &pending, &stats);
  stats.path_queries = prober.queries();
  stats.probe_dfs = prober.dfs_runs();
  return stats;
}

}  // namespace tdb
