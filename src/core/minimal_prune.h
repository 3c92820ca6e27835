// Minimal-pruning pass (the paper's Algorithm 7, FINDMINIMALCOVER).
//
// Given any feasible cover R, drop every vertex v such that the subgraph
// induced by (V \ R) ∪ {v} has no constrained cycle through v. The result
// is feasible and minimal (paper Theorem 4). BUR+ runs it on BUR's cover.
#ifndef TDB_CORE_MINIMAL_PRUNE_H_
#define TDB_CORE_MINIMAL_PRUNE_H_

#include <vector>

#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "search/search_types.h"
#include "util/status.h"
#include "util/timer.h"

namespace tdb {

/// Shrinks `cover` in place to a minimal feasible cover, sorted, and sets
/// `*removed` (may be null) to the number of vertices dropped. `active`
/// is the induced subgraph G - R as a vertex mask (G may be one component
/// of `graph`: its members minus the cover); each dropped vertex is
/// returned to it. Witness searches are plain DFS (paper-faithful BUR+)
/// under `constraint`, on `context`'s scratch. A TimedOut return leaves
/// `cover` still feasible: pruning only ever removes provably redundant
/// vertices, so stopping early preserves feasibility, just not minimality.
Status MinimalPrune(const CsrGraph& graph, const CycleConstraint& constraint,
                    uint8_t* active, std::vector<VertexId>* cover,
                    uint64_t* removed, Deadline* deadline,
                    SearchContext* context);

}  // namespace tdb

#endif  // TDB_CORE_MINIMAL_PRUNE_H_
