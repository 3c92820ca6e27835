#include "core/bottom_up.h"

#include <algorithm>
#include <numeric>

#include "core/minimal_prune.h"
#include "search/cycle_finder.h"

namespace tdb {

namespace {

/// The cycle-breaking sweep of SolveBottomUpInPlace: appends the committed
/// vertices to `cover`, clearing their `active` bits. Returns TimedOut on
/// budget expiry.
Status SweepBottomUp(const CsrGraph& graph, const CycleConstraint& constraint,
                     std::span<const VertexId> members, uint8_t* active,
                     uint32_t* hits, std::vector<VertexId>* cover,
                     CoverStats* stats, SearchContext* context,
                     Deadline* deadline) {
  CycleFinder finder(graph, context);
  std::vector<VertexId> cycle;
  for (VertexId v : members) {
    if (!active[v]) continue;  // already covered; its edges are gone
    for (;;) {
      ++stats->searches;
      SearchOutcome outcome =
          finder.FindCycleThrough(v, constraint, active, &cycle, deadline);
      if (outcome == SearchOutcome::kTimedOut) {
        return Status::TimedOut("bottom-up solve exceeded budget");
      }
      if (outcome == SearchOutcome::kNotFound) break;
      ++stats->cycles_found;
      // Algorithm 6: commit the hottest vertex of the cycle.
      for (VertexId u : cycle) ++hits[u];
      VertexId cover_node = cycle.front();
      for (VertexId u : cycle) {
        if (hits[u] > hits[cover_node]) cover_node = u;
      }
      cover->push_back(cover_node);
      active[cover_node] = 0;
      if (cover_node == v) break;  // v itself left the graph
    }
  }
  return Status::OK();
}

}  // namespace

CoverResult SolveBottomUpInPlace(const CsrGraph& graph,
                                 std::span<const VertexId> members,
                                 const CoverOptions& options, bool minimal,
                                 SearchContext* context, Deadline* deadline) {
  CoverResult result;
  const CycleConstraint constraint =
      options.Constraint(static_cast<VertexId>(members.size()));
  // hits[v]: how many discovered cycles v participated in so far (paper's
  // hit-times array). active[v] == 0 once v joined the cover (its edges are
  // "removed"); non-members stay inactive, so the mask doubles as the
  // component restriction.
  context->EnsureActiveSize(graph.num_vertices());
  context->EnsureHitsSize(graph.num_vertices());
  uint8_t* active = context->active.data();
  uint32_t* hits = context->hits.data();
  for (VertexId v : members) active[v] = 1;

  std::vector<VertexId> cover;
  result.status = SweepBottomUp(graph, constraint, members, active, hits,
                                &cover, &result.stats, context, deadline);
  if (result.status.ok()) {
    // `active` is exactly members minus the cover: the prune's G - R.
    if (minimal) {
      result.status =
          MinimalPrune(graph, constraint, active, &cover,
                       &result.stats.prune_removed, deadline, context);
    }
    std::sort(cover.begin(), cover.end());
    result.cover = std::move(cover);
  }
  for (VertexId v : members) {
    active[v] = 0;
    hits[v] = 0;
  }
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
  std::vector<VertexId> all(graph.num_vertices());
  std::iota(all.begin(), all.end(), VertexId{0});
  result = SolveBottomUpInPlace(graph, all, options, minimal, &context,
                                &deadline);
  result.stats.expansions = context.stats.expansions;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace tdb
