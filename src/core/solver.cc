#include "core/solver.h"

#include "core/engine.h"

namespace tdb {

CoverResult SolveCycleCover(const CsrGraph& graph, CoverAlgorithm algorithm,
                            const CoverOptions& options) {
  // Every solve goes through the SCC-partitioned engine; with the default
  // num_threads = 1 it degenerates to a sequential per-component sweep
  // whose cover is bit-identical to the classic whole-graph solvers.
  return SolveCycleCoverPartitioned(graph, algorithm, options);
}

}  // namespace tdb
