#include "core/bottom_up.h"

#include <algorithm>
#include <numeric>

#include "core/minimal_prune.h"
#include "search/cycle_finder.h"

namespace tdb {

CoverResult SolveBottomUpWithContext(const CsrGraph& graph,
                                     const CoverOptions& options,
                                     bool minimal, SearchContext* context,
                                     Deadline* deadline) {
  std::vector<VertexId> all(graph.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  return SolveBottomUpInPlace(graph, all, options, minimal, context,
                              deadline);
}

CoverResult SolveBottomUpInPlace(const CsrGraph& graph,
                                 std::span<const VertexId> members,
                                 const CoverOptions& options, bool minimal,
                                 SearchContext* context, Deadline* deadline) {
  CoverResult result;
  const CycleConstraint constraint =
      options.Constraint(static_cast<VertexId>(members.size()));

  CycleFinder finder(graph, context);
  // H[v]: how many discovered cycles v participated in so far (paper's
  // hit-times array). Never reset across iterations.
  std::vector<uint32_t> hits(graph.num_vertices(), 0);
  // active[v] == 0 once v joined the cover (its edges are "removed").
  // Non-members start (and stay) inactive, so the mask doubles as the
  // component restriction.
  std::vector<uint8_t> active(graph.num_vertices(), 0);
  for (VertexId v : members) active[v] = 1;
  std::vector<VertexId> cover;
  std::vector<VertexId> cycle;

  for (VertexId v : members) {
    if (!active[v]) continue;  // already covered; its edges are gone
    for (;;) {
      ++result.stats.searches;
      SearchOutcome outcome = finder.FindCycleThrough(
          v, constraint, active.data(), &cycle, deadline);
      if (outcome == SearchOutcome::kTimedOut) {
        result.status = Status::TimedOut("bottom-up solve exceeded budget");
        return result;
      }
      if (outcome == SearchOutcome::kNotFound) break;
      ++result.stats.cycles_found;
      // Algorithm 6: commit the hottest vertex of the cycle.
      for (VertexId u : cycle) ++hits[u];
      VertexId cover_node = cycle.front();
      for (VertexId u : cycle) {
        if (hits[u] > hits[cover_node]) cover_node = u;
      }
      cover.push_back(cover_node);
      active[cover_node] = 0;
      if (cover_node == v) break;  // v itself left the graph
    }
  }

  if (minimal) {
    Status prune_status =
        MinimalPrune(graph, options, PruneEngine::kPlainDfs, &cover,
                     &result.stats.prune_removed, deadline, context, members);
    if (!prune_status.ok()) result.status = prune_status;
  }

  std::sort(cover.begin(), cover.end());
  result.cover = std::move(cover);
  return result;
}

CoverResult SolveBottomUp(const CsrGraph& graph, const CoverOptions& options,
                          bool minimal) {
  CoverResult result;
  result.status = options.Validate();
  if (!result.status.ok()) return result;

  Timer timer;
  Deadline deadline = options.time_limit_seconds > 0
                          ? Deadline::AfterSeconds(options.time_limit_seconds)
                          : Deadline();
  SearchContext context;
  result = SolveBottomUpWithContext(graph, options, minimal, &context,
                                    &deadline);
  result.stats.expansions = context.stats.expansions;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tdb
