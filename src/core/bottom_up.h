// Bottom-up hop-constrained cycle cover (the paper's Algorithm 4, "BUR").
//
// Repeatedly finds an uncovered constrained cycle with a plain DFS, bumps
// per-vertex hit counters over its vertices, and commits the hottest vertex
// of the cycle to the cover (Algorithm 6), deleting its edges. BUR+ chains
// the minimal-pruning pass of minimal_prune.h afterwards.
#ifndef TDB_CORE_BOTTOM_UP_H_
#define TDB_CORE_BOTTOM_UP_H_

#include <span>

#include "core/cover_options.h"
#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "util/timer.h"

namespace tdb {

/// Runs BUR (`minimal=false`) or BUR+ (`minimal=true`).
CoverResult SolveBottomUp(const CsrGraph& graph, const CoverOptions& options,
                          bool minimal);

/// Engine entry point: same algorithm with borrowed per-worker scratch and
/// an externally managed deadline (options.time_limit_seconds is ignored).
/// Assumes options were validated. stats.expansions and
/// stats.elapsed_seconds are left zero — expansion counters accumulate in
/// `*context` and timing is the caller's concern.
CoverResult SolveBottomUpWithContext(const CsrGraph& graph,
                                     const CoverOptions& options,
                                     bool minimal, SearchContext* context,
                                     Deadline* deadline);

/// Engine entry point for one component solved *in place* on the parent
/// graph — no materialized subgraph. `members` is the component's sorted
/// vertex list; candidates are processed in that ascending global order
/// (matching the materialized solve's ascending local-id sweep) and the
/// returned cover is in global ids. SolveBottomUpWithContext is this with
/// every vertex a member.
CoverResult SolveBottomUpInPlace(const CsrGraph& graph,
                                 std::span<const VertexId> members,
                                 const CoverOptions& options, bool minimal,
                                 SearchContext* context, Deadline* deadline);

}  // namespace tdb

#endif  // TDB_CORE_BOTTOM_UP_H_
