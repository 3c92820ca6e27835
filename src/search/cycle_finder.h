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

#include <functional>
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
///
/// Templated over the storage backend (CsrGraph or CompressedCsr); each
/// DFS frame holds its vertex's decoded neighbor list (see SearchFrame).
template <typename GraphT>
class CycleFinderT {
 public:
  /// Self-contained form: owns a private context.
  explicit CycleFinderT(const GraphT& graph);

  /// Reentrant form: scratch and stats live in `*context` (borrowed, must
  /// outlive the finder), grown to the graph's size on construction.
  CycleFinderT(const GraphT& graph, SearchContext* context);

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

  /// Enumerates every simple path s -> t (s != t) with hops in
  /// [min_hops, max_hops] by exhaustive DFS — the oracle the barrier-based
  /// BlockSearch::EnumeratePaths is differential-tested against.
  /// `sink` returns false to stop early. Returns paths emitted.
  size_t EnumeratePathsPlain(
      VertexId s, VertexId t, uint32_t min_hops, uint32_t max_hops,
      const uint8_t* active, const uint8_t* blocked_edges,
      const std::function<bool(const std::vector<VertexId>&)>& sink);

  /// Counters of the underlying context (shared if the context is).
  const SearchStats& stats() const { return ctx_->stats; }
  void ResetStats() { ctx_->stats.Reset(); }

 private:
  bool EnumerateFromPlain(
      VertexId u, VertexId t, uint32_t min_hops, uint32_t max_hops,
      const uint8_t* active, const uint8_t* blocked_edges,
      std::vector<VertexId>* prefix, size_t* count,
      const std::function<bool(const std::vector<VertexId>&)>& sink);
  /// Unified engine; cycle mode is t == s.
  SearchOutcome Search(VertexId s, VertexId t, uint32_t min_hops,
                       uint32_t max_hops, const uint8_t* active,
                       const uint8_t* blocked_edges,
                       std::vector<VertexId>* out, Deadline* deadline);

  /// Decodes u's out-neighbors into the context's depth-d buffer (a
  /// zero-copy span on the raw backend).
  std::span<const VertexId> DecodeAt(VertexId u, size_t depth) {
    return graph_.DecodeNeighbors(u, ctx_->DecodeBuffer(depth));
  }

  const GraphT& graph_;
  std::unique_ptr<SearchContext> owned_context_;
  SearchContext* ctx_;
};

class CompressedCsr;
extern template class CycleFinderT<CsrGraph>;
extern template class CycleFinderT<CompressedCsr>;

/// The raw-backend finder, under its historical name.
using CycleFinder = CycleFinderT<CsrGraph>;

}  // namespace tdb

#endif  // TDB_SEARCH_CYCLE_FINDER_H_
