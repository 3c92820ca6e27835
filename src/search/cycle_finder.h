// Plain bounded DFS (the paper's Algorithm 5, FINDCYCLE).
//
// Finds one simple cycle through a start vertex (or one simple s-t path)
// with hop count inside a [min_len, max_hops] window, restricted to an
// induced subgraph given by an active-vertex mask and an optional blocked-
// edge mask. No memoization: worst case O(n^max_hops), which is exactly the
// bottom-up algorithm's cost profile in the paper. The block-based engine
// in path_search.h is the O(k*m) replacement; this class doubles as its
// correctness oracle in the property tests.
#ifndef TDB_SEARCH_CYCLE_FINDER_H_
#define TDB_SEARCH_CYCLE_FINDER_H_

#include <memory>
#include <vector>

#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "search/search_types.h"
#include "util/timer.h"

namespace tdb {

/// Reusable plain-DFS searcher. Reentrant across instances: all mutable
/// state lives in the SearchContext, so concurrent searches need only
/// distinct contexts — the engine runs one instance per pool worker, each
/// over its own component. A single (instance, context) pair is not
/// thread-safe.
class CycleFinder {
 public:
  /// Self-contained form: owns a private context.
  explicit CycleFinder(const CsrGraph& graph);

  /// Reentrant form: scratch and stats live in `*context` (borrowed, must
  /// outlive the finder), grown to the graph's size on construction.
  CycleFinder(const CsrGraph& graph, SearchContext* context);

  /// Searches for a simple cycle through `start` with hop count in
  /// [constraint.min_len, constraint.max_hops].
  ///
  /// `active` (may be null = all active) masks the subgraph: vertices with
  /// active[v] == 0 are absent. `start` itself is exempt from the mask (the
  /// top-down solver probes candidates that are not yet part of the kept
  /// subgraph). On kFound, `cycle` (if non-null) receives the vertex
  /// sequence starting at `start`, closing edge implied.
  SearchOutcome FindCycleThrough(VertexId start,
                                 const CycleConstraint& constraint,
                                 const uint8_t* active,
                                 std::vector<VertexId>* cycle,
                                 Deadline* deadline = nullptr);

  /// Searches for a simple path `s -> t` (s != t) with hop count in
  /// [min_hops, max_hops]. `blocked_edges` (may be null) removes edges by
  /// canonical id. `s` and `t` are exempt from the active mask.
  /// On kFound, `path` (if non-null) receives s..t inclusive.
  SearchOutcome FindPath(VertexId s, VertexId t, uint32_t min_hops,
                         uint32_t max_hops, const uint8_t* active,
                         const uint8_t* blocked_edges,
                         std::vector<VertexId>* path,
                         Deadline* deadline = nullptr);

  /// Counters of the underlying context (shared if the context is).
  const SearchStats& stats() const { return ctx_->stats; }
  void ResetStats() { ctx_->stats.Reset(); }

 private:
  /// Unified engine; cycle mode is t == s.
  SearchOutcome Search(VertexId s, VertexId t, uint32_t min_hops,
                       uint32_t max_hops, const uint8_t* active,
                       const uint8_t* blocked_edges,
                       std::vector<VertexId>* out, Deadline* deadline);

  const CsrGraph& graph_;
  std::unique_ptr<SearchContext> owned_context_;
  SearchContext* ctx_;
};

}  // namespace tdb

#endif  // TDB_SEARCH_CYCLE_FINDER_H_
