// Unified front door of the library.
//
// Quickstart:
//   CsrGraph g = ...;
//   CoverOptions opts;
//   opts.k = 5;
//   CoverResult r = SolveCycleCover(g, CoverAlgorithm::kTdbPlusPlus, opts);
//   if (r.status.ok()) { /* r.cover breaks every cycle of <= 5 hops */ }
#ifndef TDB_CORE_SOLVER_H_
#define TDB_CORE_SOLVER_H_

#include "core/cover_options.h"
#include "graph/csr_graph.h"

namespace tdb {

/// Computes a hop-constrained cycle cover of `graph` with the chosen
/// algorithm. Every solve runs on the SCC-partitioned engine (core/
/// engine.h): components are solved independently — in parallel when
/// options.num_threads allows — and the merged cover is identical for
/// every thread count. On success (status.ok()):
///   - the cover is feasible for every algorithm;
///   - it is additionally minimal for BUR+, TDB, TDB+ and TDB++;
///   - TDB, TDB+ and TDB++ return the identical vertex set (the block and
///     BFS-filter techniques are exact accelerations).
CoverResult SolveCycleCover(const CsrGraph& graph, CoverAlgorithm algorithm,
                            const CoverOptions& options);

}  // namespace tdb

#endif  // TDB_CORE_SOLVER_H_
