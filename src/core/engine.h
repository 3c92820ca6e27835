// SCC-partitioned parallel execution engine.
//
// Every hop-constrained cycle lives inside one strongly connected
// component (a cycle's vertices are pairwise reachable), so the cycle
// cover of a graph is exactly the union of the covers of its SCCs — and
// the components can be solved independently, in parallel, with zero
// coordination. This engine is the single execution path behind
// SolveCycleCover for every CoverAlgorithm:
//
//   1. condense with sequential iterative Tarjan (graph/scc.h). Solving
//      starts once condensation has finished;
//   2. discharge components too small to host a qualifying cycle
//      (size < 3, or < 2 when 2-cycles count) — counted as scc_filtered;
//   3. make every remaining component one task. With num_threads > 1 the
//      tasks of at least 32 vertices go to a work-stealing pool
//      (util/thread_pool.h), biggest first, while the tail of smaller
//      components runs inline on the calling thread; with one thread
//      every task runs inline. The pool is the engine's only parallelism:
//      a component is never split across threads;
//   4. every component solves IN PLACE on the parent graph, whatever its
//      algorithm and size: BUR, BUR+, TDB, TDB+ and TDB++ restrict their
//      searches with the solver's kept/active masks, and DARC-DV builds
//      its line graph straight from the parent CSR restricted to the
//      members — no edge copy of the component. Each pool thread owns one
//      SearchContext (reentrant search layer plus the solvers' masks, no
//      locks on the hot path), so concurrent components share no mask;
//   5. merge covers (already in parent ids), statuses and per-worker
//      stats, in canonical component order (ascending minimum member)
//      regardless of scheduling.
//
// `num_threads` is the only parallelism knob.
//
// Exactness: per-component solves are bit-identical to a whole-graph
// sequential solve, for every algorithm and thread count. Cycles
// never cross components, so a solver's keep/discharge decision for v
// depends only on the state of v's own component; the engine preserves
// each component's internal processing order by ranking every vertex in
// the whole-graph candidate order once and sorting each component's
// members by rank (member lists ascend, so BUR's id-ordered sweep
// projects automatically, and so does DARC-DV's edge-ordered one, since
// its line-graph nodes are the component's edges in canonical id order).
// The engine determinism tests assert covers are identical across
// num_threads = 1, 2 and 8 for all six algorithms, on graphs with one
// giant SCC and with many small ones.
//
// Deadlines: one wall-clock budget (options.time_limit_seconds) is shared
// by every component; each task polls a private copy of the master
// deadline, and components whose turn comes after expiry are not started.
// Any timed-out component makes the merged result TimedOut. With
// options.split_budget_by_work, each component instead gets a private
// share of the budget and falls back to its full vertex set on expiry.
#ifndef TDB_CORE_ENGINE_H_
#define TDB_CORE_ENGINE_H_

#include "core/cover_options.h"
#include "graph/csr_graph.h"

namespace tdb {

/// Runs `algorithm` per SCC of `graph` on options.num_threads workers and
/// merges the per-component results. SolveCycleCover routes here; call
/// directly only to bypass the front door's documentation.
CoverResult SolveCycleCoverPartitioned(const CsrGraph& graph,
                                       CoverAlgorithm algorithm,
                                       const CoverOptions& options);

}  // namespace tdb

#endif  // TDB_CORE_ENGINE_H_
