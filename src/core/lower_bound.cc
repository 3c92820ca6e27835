#include "core/lower_bound.h"

#include "search/path_search.h"

namespace tdb {

CyclePacking PackDisjointCycles(const CsrGraph& graph,
                                const CoverOptions& options) {
  CyclePacking packing;
  if (!options.Validate().ok()) return packing;
  const CycleConstraint constraint =
      options.Constraint(graph.num_vertices());
  Deadline deadline = options.time_limit_seconds > 0
                          ? Deadline::AfterSeconds(options.time_limit_seconds)
                          : Deadline();

  BlockDfs search(graph);
  std::vector<uint8_t> active(graph.num_vertices(), 1);
  std::vector<VertexId> cycle;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (!active[v]) continue;
    if (graph.out_degree(v) == 0 || graph.in_degree(v) == 0) continue;
    // One search per vertex: a found cycle retires all of its vertices
    // (including v), keeping the packing disjoint.
    SearchOutcome outcome = search.FindCycleThrough(
        v, constraint, active.data(), &cycle, &deadline);
    if (outcome == SearchOutcome::kTimedOut) {
      packing.timed_out = true;
      break;
    }
    if (outcome == SearchOutcome::kFound) {
      for (VertexId u : cycle) active[u] = 0;
      packing.cycles.push_back(cycle);
    }
  }
  return packing;
}

}  // namespace tdb
