// Minimal-pruning pass (the paper's Algorithm 7, FINDMINIMALCOVER).
//
// Given any feasible cover R, drop every vertex v such that the subgraph
// induced by (V \ R) ∪ {v} has no constrained cycle through v. The result
// is feasible and minimal (paper Theorem 4). Reusable on covers produced
// by any algorithm, not just BUR.
#ifndef TDB_CORE_MINIMAL_PRUNE_H_
#define TDB_CORE_MINIMAL_PRUNE_H_

#include <span>
#include <vector>

#include "core/cover_options.h"
#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "util/timer.h"

namespace tdb {

/// Validation engine for the witness-cycle searches.
enum class PruneEngine {
  kPlainDfs,     ///< Paper-faithful BUR+ (Algorithm 5 searches).
  kBlockSearch,  ///< O(k*m)-per-vertex variant using Algorithm 9.
};

/// Shrinks `cover` in place to a minimal feasible cover. Returns the number
/// of vertices removed, or a TimedOut error leaving `cover` still feasible
/// (pruning only ever removes provably redundant vertices, so stopping
/// early preserves feasibility, just not minimality). `context` (may be
/// null = private scratch) lets the engine reuse per-worker search state
/// for the witness searches.
///
/// `domain` (empty = the whole graph) restricts the active universe to one
/// component's members: used by the in-place component solvers so witness
/// searches cannot wander into other components.
Status MinimalPrune(const CsrGraph& graph, const CoverOptions& options,
                    PruneEngine engine, std::vector<VertexId>* cover,
                    uint64_t* removed, Deadline* deadline = nullptr,
                    SearchContext* context = nullptr,
                    std::span<const VertexId> domain = {});

}  // namespace tdb

#endif  // TDB_CORE_MINIMAL_PRUNE_H_
