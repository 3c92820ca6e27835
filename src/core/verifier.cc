#include "core/verifier.h"

#include "search/path_search.h"

namespace tdb {

VerifyReport VerifyCover(const CsrGraph& graph,
                         const std::vector<VertexId>& cover,
                         const CoverOptions& options,
                         bool check_minimality) {
  VerifyReport report;
  const CycleConstraint constraint =
      options.Constraint(graph.num_vertices());

  std::vector<uint8_t> active(graph.num_vertices(), 1);
  for (VertexId v : cover) active[v] = 0;

  BlockDfs search(graph);

  // Feasibility: no constrained cycle may survive among active vertices.
  // Any surviving cycle is found from its own first vertex, so probing
  // every active vertex is exhaustive.
  report.feasible = true;
  for (VertexId v = 0; v < graph.num_vertices() && report.feasible; ++v) {
    if (!active[v]) continue;
    if (graph.out_degree(v) == 0 || graph.in_degree(v) == 0) continue;
    std::vector<VertexId> cycle;
    if (search.FindCycleThrough(v, constraint, active.data(), &cycle) ==
        SearchOutcome::kFound) {
      report.feasible = false;
      report.uncovered_cycle = std::move(cycle);
    }
  }

  if (!check_minimality) {
    report.minimal = false;
    return report;
  }

  // Minimality: every cover vertex needs a witness cycle that only it
  // covers, i.e. a constrained cycle in (V \ C) ∪ {v}.
  report.minimal = true;
  for (VertexId v : cover) {
    if (search.FindCycleThrough(v, constraint, active.data(), nullptr) !=
        SearchOutcome::kFound) {
      report.minimal = false;
      report.removable_vertex = v;
      break;
    }
  }
  return report;
}

std::string VerifyReport::ToString() const {
  std::string out = "feasible=";
  out += feasible ? "yes" : "no";
  out += " minimal=";
  out += minimal ? "yes" : "no";
  if (!feasible) {
    out += " uncovered_cycle=[";
    for (size_t i = 0; i < uncovered_cycle.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(uncovered_cycle[i]);
    }
    out += "]";
  }
  if (feasible && !minimal && removable_vertex != kInvalidVertex) {
    out += " removable_vertex=" + std::to_string(removable_vertex);
  }
  return out;
}

}  // namespace tdb
