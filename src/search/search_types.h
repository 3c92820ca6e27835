// Shared vocabulary of the search substrate.
#ifndef TDB_SEARCH_SEARCH_TYPES_H_
#define TDB_SEARCH_SEARCH_TYPES_H_

#include <cstdint>

#include "graph/types.h"

namespace tdb {

/// Result of a bounded existence search.
enum class SearchOutcome {
  kFound,     ///< A qualifying cycle/path exists (and was materialized).
  kNotFound,  ///< Exhaustively proven absent under the given constraints.
  kTimedOut,  ///< Deadline expired before the search completed.
};

/// The search counters, one row each: X(field, help). SearchStats holds
/// them, and CoverStats carries the same rows (the help text is what
/// tdb_cover exports).
#define TDB_SEARCH_COUNTERS(X)                                       \
  X(expansions, "Adjacency entries scanned")                         \
  /* Block engines only. */                                          \
  X(block_prunes, "Extensions suppressed by block bounds")           \
  /* BfsFilter only; `expansions` does not include this work. */     \
  X(filter_visits, "Vertices dequeued by the BFS filter")

/// Instrumentation counters accumulated by a search engine. Counters are
/// cumulative across calls; callers snapshot and subtract for per-call data.
struct SearchStats {
#define TDB_SEARCH_FIELD(field, help) uint64_t field = 0;
  TDB_SEARCH_COUNTERS(TDB_SEARCH_FIELD)
#undef TDB_SEARCH_FIELD

  void Reset() { *this = SearchStats{}; }
};

/// One explicit DFS frame: a vertex and the cursor into its out-CSR
/// edge-id range. Shared by every iterative search engine; the neighbor
/// behind cursor `next` is the graph's EdgeDst(next).
struct SearchFrame {
  VertexId v;
  EdgeId next;  ///< Canonical id of the next out-edge to scan.
  EdgeId end;   ///< One past v's last out-edge id.
};

/// Search-side view of the problem's cycle semantics.
///
/// A qualifying cycle has hop count in [min_len, max_hops]. The paper's
/// default excludes self-loops (length 1, dropped at graph build) and
/// 2-cycles, so min_len is 3; the Table IV variant sets it to 2. The
/// unconstrained variant (paper §VI.C) sets max_hops to the vertex count
/// and enables permanent blocking.
struct CycleConstraint {
  uint32_t max_hops = 5;
  uint32_t min_len = 3;
  /// Failed vertices never re-enter the search (sound only because every
  /// search terminates at the first qualifying cycle; see §VI.C).
  bool permanent_block = false;
};

}  // namespace tdb

#endif  // TDB_SEARCH_SEARCH_TYPES_H_
