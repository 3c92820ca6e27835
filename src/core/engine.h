// SCC-partitioned parallel execution engine with a streaming
// condense-to-solve pipeline.
//
// Every hop-constrained cycle lives inside one strongly connected
// component (a cycle's vertices are pairwise reachable), so the cycle
// cover of a graph is exactly the union of the covers of its SCCs — and
// the components can be solved independently, in parallel, with zero
// coordination. This engine is the single execution path behind
// SolveCycleCover for every CoverAlgorithm:
//
//   1. condense with sequential iterative Tarjan (graph/scc.h). With
//      num_threads > 1 (and no work-budget split) condensation runs as a
//      *pipeline*: a condenser thread streams each finalized component
//      through a ComponentSink while still decomposing the rest, so the
//      giant SCC starts solving before condensation finishes —
//      condensation is no longer a barrier in front of the parallel
//      engine;
//   2. discharge components too small to host a qualifying cycle
//      (size < 3, or < 2 when 2-cycles count) — counted as scc_filtered;
//   3. route each remaining component by size:
//      * >= options.min_intra_parallel_size — solve IN PLACE on the
//        parent graph through a SubgraphView (graph/subgraph.h): no edge
//        copy, searches restricted by the kept/active masks, and — with
//        num_threads > 1 — intra-component speculative parallel candidate
//        probing (core/probe_executor.h). This is the giant-SCC path: one
//        huge component no longer pins a single worker. Under the
//        pipeline these solves run on the calling thread as components
//        arrive;
//      * smaller — materialize a compact induced subgraph over dense
//        local ids and schedule it onto a work-stealing pool
//        (util/thread_pool.h). Under the barrier path, components below
//        min_component_parallel_size run inline on the submitting thread
//        while the pool chews the big ones; under the pipeline every
//        tail component goes to the solver pool as it finalizes;
//   4. run the chosen solver per component with one SearchContext per
//      worker (reentrant search layer, no locks on the hot path);
//   5. merge covers (vertex ids remapped back to the parent graph),
//      statuses and per-worker stats, in canonical component order
//      (ascending minimum member) regardless of scheduling.
//
// Exactness: per-component solves are bit-identical to a whole-graph
// sequential solve, for every algorithm, SCC strategy and thread count.
// Cycles never cross components, so a solver's keep/discharge decision
// for v depends only on the state of v's own component; the engine
// preserves each component's internal processing order by ranking every
// vertex in the whole-graph candidate order once and sorting each
// component's members by rank (local ids ascend with global ids, so id-
// and edge-ordered sweeps project automatically). Intra-component
// probing preserves exactness too:
// speculative validations commit sequentially in the canonical candidate
// order, and any verdict the interleaved commits could have invalidated
// is re-validated against the committed state (see probe_executor.h for
// the monotonicity argument). The engine determinism tests assert covers
// are identical across num_threads = 1, 2 and 8 for all six algorithms,
// on multi-SCC graphs and on single-giant-SCC graphs.
//
// Deadlines: one wall-clock budget (options.time_limit_seconds) is shared
// by every component; each worker polls a private copy of the master
// deadline, and components whose turn comes after expiry are not started.
// Any timed-out component makes the merged result TimedOut.
#ifndef TDB_CORE_ENGINE_H_
#define TDB_CORE_ENGINE_H_

#include "core/cover_options.h"
#include "graph/csr_graph.h"

namespace tdb {

class CompressedCsr;

/// Runs `algorithm` per SCC of `graph` on options.num_threads workers and
/// merges the per-component results. SolveCycleCover routes here; call
/// directly only to bypass the front door's documentation.
CoverResult SolveCycleCoverPartitioned(const CsrGraph& graph,
                                       CoverAlgorithm algorithm,
                                       const CoverOptions& options);

/// Compressed-base overload: condensation, candidate ranking and the SCC
/// discharge all run directly on the delta/varint blocks (never a raw
/// copy of the whole graph); every solvable component is then
/// materialized to a compact raw CsrGraph, so peak resident memory is the
/// compressed base plus the largest in-flight component. The in-place
/// SubgraphView route is raw-only — its per-edge random access would pay
/// a group decode per probe — which the in-place-equals-materialized
/// invariant (asserted by the engine determinism tests) makes invisible:
/// covers are bit-identical to the raw backend at every thread count.
CoverResult SolveCycleCoverPartitioned(const CompressedCsr& graph,
                                       CoverAlgorithm algorithm,
                                       const CoverOptions& options);

}  // namespace tdb

#endif  // TDB_CORE_ENGINE_H_
