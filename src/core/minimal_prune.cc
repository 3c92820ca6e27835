#include "core/minimal_prune.h"

#include <algorithm>

#include "search/cycle_finder.h"
#include "search/path_search.h"

namespace tdb {

Status MinimalPrune(const CsrGraph& graph, const CoverOptions& options,
                    PruneEngine engine, std::vector<VertexId>* cover,
                    uint64_t* removed, Deadline* deadline,
                    SearchContext* context,
                    std::span<const VertexId> domain) {
  // The constraint of the (sub)problem being pruned: the domain's size
  // when restricted to one component, mirroring a solve on the
  // materialized component.
  const CycleConstraint constraint = options.Constraint(
      domain.empty() ? graph.num_vertices()
                     : static_cast<VertexId>(domain.size()));
  // active == the induced subgraph G - R; the candidate v itself enters the
  // search as the (mask-exempt) start vertex, which is exactly the paper's
  // G - R + (v). With a domain, G is that component's induced subgraph.
  std::vector<uint8_t> active;
  if (domain.empty()) {
    active.assign(graph.num_vertices(), 1);
  } else {
    active.assign(graph.num_vertices(), 0);
    for (VertexId v : domain) active[v] = 1;
  }
  for (VertexId v : *cover) active[v] = 0;

  SearchContext own_context;
  SearchContext* ctx = context != nullptr ? context : &own_context;
  CycleFinder plain(graph, ctx);
  BlockSearch block(graph, ctx);

  std::vector<VertexId> kept;
  kept.reserve(cover->size());
  uint64_t drops = 0;
  Status status = Status::OK();
  for (size_t i = 0; i < cover->size(); ++i) {
    const VertexId v = (*cover)[i];
    const SearchOutcome outcome =
        engine == PruneEngine::kPlainDfs
            ? plain.FindCycleThrough(v, constraint, active.data(), nullptr,
                                     deadline)
            : block.FindCycleThrough(v, constraint, active.data(), nullptr,
                                     deadline);
    if (outcome == SearchOutcome::kTimedOut) {
      // Keep v and everything not yet examined: the cover stays feasible.
      kept.insert(kept.end(), cover->begin() + i, cover->end());
      status = Status::TimedOut("minimal pruning exceeded budget");
      break;
    }
    if (outcome == SearchOutcome::kNotFound) {
      // No witness cycle: v is redundant; return it to the graph.
      active[v] = 1;
      ++drops;
    } else {
      kept.push_back(v);
    }
  }
  *cover = std::move(kept);
  std::sort(cover->begin(), cover->end());
  if (removed != nullptr) *removed = drops;
  return status;
}

}  // namespace tdb
