// Top-down hop-constrained cycle cover (the paper's Algorithm 8 and the
// TDB / TDB+ / TDB++ family).
//
// Starts from the full vertex set as the cover and an empty kept subgraph
// G0. Each candidate v is probed for a constrained cycle inside
// G0 ∪ {v}: if none exists, v is discharged from the cover and its edges
// join G0 permanently; otherwise v stays in the cover and its edges never
// enter G0. The output is feasible and minimal by construction (paper
// Theorem 7). G0 is represented as a bit per vertex over the original CSR —
// "inserting all edges of v" is O(1) — so a component needs no copy of its
// own: the engine solves every component in place on the parent graph,
// and the whole-graph solve is the same code with every vertex a member.
//
// Variants:
//   TDB    — plain DFS validation (Algorithm 5), worst case O(n^k) each.
//   TDB+   — block-based validation (Algorithm 9), O(k*m) each,
//            O(k*m*n) total (paper Theorem 6).
//   TDB++  — TDB+ preceded by the closed-walk BFS filter (Algorithm 11).
#ifndef TDB_CORE_TOP_DOWN_H_
#define TDB_CORE_TOP_DOWN_H_

#include <span>
#include <vector>

#include "core/cover_options.h"
#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "util/timer.h"

namespace tdb {

/// Validation pipeline of the top-down solver.
enum class TopDownVariant {
  kPlain,        ///< TDB
  kBlocks,       ///< TDB+
  kBlocksFilter, ///< TDB++
};

/// Runs the top-down solver over the whole graph: the in-place solve with
/// every vertex a member, in MakeCandidateOrder. All variants produce the
/// same cover for the same options (the speed-up techniques are exact),
/// which the property tests assert.
CoverResult SolveTopDown(const CsrGraph& graph, const CoverOptions& options,
                         TopDownVariant variant);

/// Candidate processing order for `graph` under `options.order`. Exposed
/// for the partitioned engine, which computes one whole-graph order and
/// projects it onto each component so that per-component solves make the
/// same keep/discharge decisions as a whole-graph sweep.
std::vector<VertexId> MakeCandidateOrder(const CsrGraph& graph,
                                         const CoverOptions& options);

/// Engine entry point for one component solved *in place* on the parent
/// graph — no materialized subgraph. `members` is the component's sorted
/// vertex list; `order` holds its candidates in global ids (the
/// whole-graph candidate order projected onto the members), and the
/// returned cover is likewise in global ids. Searches run on `graph`
/// restricted by the context's kept mask, which only ever contains
/// members; the mask is all-zero again on return, whatever the status.
/// Uses borrowed per-worker scratch and an externally managed deadline
/// (options.time_limit_seconds is ignored). Assumes options were
/// validated. stats.expansions, stats.block_prunes, stats.filter_visits
/// and stats.elapsed_seconds are left zero — search counters accumulate
/// in `*context` and timing is the caller's concern.
CoverResult SolveTopDownInPlace(const CsrGraph& graph,
                                std::span<const VertexId> members,
                                const CoverOptions& options,
                                TopDownVariant variant,
                                const std::vector<VertexId>& order,
                                SearchContext* context, Deadline* deadline);

}  // namespace tdb

#endif  // TDB_CORE_TOP_DOWN_H_
