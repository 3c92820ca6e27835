// DARC baseline (Kuhnle, Crawford, Thai: "Scalable approximations to
// k-cycle transversal problems on dynamic networks", KAIS 2019) — the
// paper's state-of-the-art comparator.
//
// DARC computes a minimal *edge* set intersecting every hop-constrained
// cycle by streaming edges through an AUGMENT phase (commit the edges of
// uncovered cycles, reusing previously pruned W-edges when possible) and a
// PRUNE phase (drop edges whose removal keeps the set feasible).
//
// DARC-DV, the vertex version benchmarked in the paper, runs DARC on the
// directed line graph L(G) and maps every selected L(G)-arc to its pivot
// vertex. The engine builds one L(G[C]) per component C straight from the
// parent CSR restricted to C's members, so no component subgraph is
// materialized. L(G) construction is budgeted; on billion-scale hub-heavy
// inputs it exhausts the budget and the solver reports ResourceExhausted,
// which is how the paper's "-" entries arise.
//
// Implementation note: the original DARC enumerates Δk(e) explicitly; the
// cycle and feasibility queries here use the block instantiation of this
// library's bounded DFS, which strictly *helps* the baseline (same
// answers, fewer expansions), so the benchmarked comparison is
// conservative.
#ifndef TDB_CORE_DARC_H_
#define TDB_CORE_DARC_H_

#include <span>
#include <vector>

#include "core/cover_options.h"
#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "util/timer.h"

namespace tdb {

/// Outcome of the edge-version solver.
struct DarcEdgeResult {
  Status status;
  /// Minimal feasible edge cover: canonical edge ids, sorted.
  std::vector<EdgeId> edge_cover;
  /// Cycles materialized during AUGMENT.
  uint64_t augment_cycles = 0;
  /// Edges demoted to W by PRUNE.
  uint64_t prune_removed = 0;
  /// Bounded path-existence queries issued.
  uint64_t path_queries = 0;
  double elapsed_seconds = 0.0;
};

/// DARC proper: minimal edge set intersecting all constrained cycles of
/// `graph` (the related k-cycle transversal problem from the paper's §II).
/// `context` (may be null = private scratch) and `deadline` (may be null =
/// derive from options.time_limit_seconds) let the parallel engine reuse
/// per-worker search state and share one wall-clock budget across
/// components.
DarcEdgeResult SolveDarcEdgeCover(const CsrGraph& graph,
                                  const CoverOptions& options,
                                  SearchContext* context = nullptr,
                                  Deadline* deadline = nullptr);

/// DARC-DV: the vertex-cover adaptation via the line graph.
CoverResult SolveDarcDv(const CsrGraph& graph, const CoverOptions& options);

/// Engine entry point for one component: DARC-DV on the line graph of
/// the subgraph `members` (sorted ascending) induce, built straight from
/// `graph` — no materialized component. The cover comes back in `graph`'s
/// ids. Uses borrowed per-worker scratch and an externally managed
/// deadline (options.time_limit_seconds is ignored). Assumes options were
/// validated; stats.elapsed_seconds is left zero. Note the context's
/// per-vertex arrays grow to the *line graph's* vertex count (= the
/// component's edge count).
CoverResult SolveDarcDvInPlace(const CsrGraph& graph,
                               std::span<const VertexId> members,
                               const CoverOptions& options,
                               SearchContext* context, Deadline* deadline);

}  // namespace tdb

#endif  // TDB_CORE_DARC_H_
