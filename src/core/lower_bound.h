// Quality certification: a lower bound on the optimal cover size.
//
// Vertex-disjoint constrained cycles each require a distinct cover vertex,
// so the size of any packing of vertex-disjoint cycles lower-bounds the
// optimum. A greedy packing (find a cycle, retire its vertices, repeat)
// is cheap with the block-based search and gives every solver run a
// certified approximation ratio: |cover| / |packing| — without ever
// touching the (NP-hard) optimum. The quality bench reports this per
// dataset; the exact brute-force solver cross-validates the bound in the
// tests.
#ifndef TDB_CORE_LOWER_BOUND_H_
#define TDB_CORE_LOWER_BOUND_H_

#include <vector>

#include "core/cover_options.h"
#include "graph/csr_graph.h"
#include "util/timer.h"

namespace tdb {

/// A packing of vertex-disjoint constrained cycles.
struct CyclePacking {
  /// Vertex sequences of the packed cycles (pairwise vertex-disjoint).
  std::vector<std::vector<VertexId>> cycles;
  /// True when the deadline stopped the packing before every vertex was
  /// tried: the cycles are still disjoint and valid, so the bound holds,
  /// but it is weaker and depends on where the budget cut it.
  bool timed_out = false;

  /// Lower bound on the optimal hop-constrained cycle cover size.
  size_t LowerBound() const { return cycles.size(); }
};

/// Greedily packs vertex-disjoint constrained cycles under the semantics
/// of `options` (hop window, 2-cycle inclusion, unconstrained). A
/// deadline (via options.time_limit_seconds) truncates the packing early
/// and sets `timed_out`, which keeps the bound valid (just weaker).
CyclePacking PackDisjointCycles(const CsrGraph& graph,
                                const CoverOptions& options);

}  // namespace tdb

#endif  // TDB_CORE_LOWER_BOUND_H_
