#include "core/minimal_prune.h"

#include <algorithm>

#include "search/path_search.h"

namespace tdb {

Status MinimalPrune(const CsrGraph& graph, const CycleConstraint& constraint,
                    uint8_t* active, std::vector<VertexId>* cover,
                    uint64_t* removed, Deadline* deadline,
                    SearchContext* context) {
  // The candidate v itself enters the search as the (mask-exempt) start
  // vertex, which is exactly the paper's G - R + (v).
  PlainDfs plain(graph, context);
  std::vector<VertexId> kept;
  kept.reserve(cover->size());
  uint64_t drops = 0;
  Status status = Status::OK();
  for (size_t i = 0; i < cover->size(); ++i) {
    const VertexId v = (*cover)[i];
    const SearchOutcome outcome =
        plain.FindCycleThrough(v, constraint, active, nullptr, deadline);
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
