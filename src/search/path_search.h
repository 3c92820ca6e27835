// The bounded DFS behind every solver search (the paper's Algorithm 5,
// FINDCYCLE, and its block-based form, Algorithms 9 and 10).
//
// Finds one simple cycle through a start vertex (or one simple s-t path)
// with hop count inside a [min_len, max_hops] window, restricted to an
// induced subgraph given by an active-vertex mask and an optional blocked-
// edge mask. One iterative frame loop serves both instantiations; the
// block bounds are a compile-time policy:
//
//   PlainDfs (kBlocks = false) — no memoization: worst case O(n^max_hops),
//     the bottom-up algorithm's and TDB's cost profile in the paper.
//   BlockDfs (kBlocks = true) — records, for each vertex that failed to
//     reach the target, a *block* value: a certified lower bound on the
//     remaining distance to the target avoiding the current stack. A
//     vertex u that failed when entered at depth d can only be re-entered
//     at depth d' with d' + u.block <= max_hops, i.e. strictly shallower,
//     so each vertex is pushed at most k times and each edge scanned at
//     most k+1 times: O(k*m) per search (paper Theorem 6).
//
// Both scan the same edges in the same order up to the block prune, so
// they find the same first cycle whenever the plain search does.
//
// Correctness subtlety of the block bound (see docs/ARCHITECTURE.md, "The
// 2-cycle exclusion"): when 2-cycles are excluded, a vertex u entered at
// depth 1 that owns an edge u -> s cannot use it (the closure would be a
// 2-cycle) although at any depth >= 2 the same edge closes a valid cycle.
// The generic failure bound k - depth + 1 would wrongly forbid those
// deeper re-entries; the truthful bound in that one case is 1, which is
// what this implementation records.
#ifndef TDB_SEARCH_PATH_SEARCH_H_
#define TDB_SEARCH_PATH_SEARCH_H_

#include <memory>
#include <vector>

#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "search/search_types.h"
#include "util/timer.h"

namespace tdb {

/// Reusable bounded-DFS searcher. Block state is epoch-versioned so
/// consecutive searches pay O(1) reset. Reentrant across instances: all
/// mutable state lives in the SearchContext, so concurrent searches need
/// only distinct contexts — the engine runs one instance per pool worker,
/// each over its own component. A single (instance, context) pair is not
/// thread-safe.
template <bool kBlocks>
class BoundedDfs {
 public:
  /// Self-contained form: owns a private context.
  explicit BoundedDfs(const CsrGraph& graph);

  /// Reentrant form: scratch and stats live in `*context` (borrowed, must
  /// outlive the searcher), grown to the graph's size on construction.
  BoundedDfs(const CsrGraph& graph, SearchContext* context);

  /// Is there a simple cycle through `start` with hop count in
  /// [constraint.min_len, constraint.max_hops]?
  ///
  /// `active` (may be null = all active) masks the subgraph: vertices with
  /// active[v] == 0 are absent. `start` itself is exempt from the mask (the
  /// top-down solver probes candidates that are not yet part of the kept
  /// subgraph). On kFound, `cycle` (if non-null) receives the vertex
  /// sequence starting at `start`, closing edge implied. With
  /// constraint.permanent_block (the §VI.C unconstrained variant), the
  /// block search never re-enters a failed vertex, making it O(m); the
  /// plain search ignores the flag.
  SearchOutcome FindCycleThrough(VertexId start,
                                 const CycleConstraint& constraint,
                                 const uint8_t* active,
                                 std::vector<VertexId>* cycle,
                                 Deadline* deadline = nullptr);

  /// Simple-path existence s -> t (s != t) with hops in [min_hops,
  /// max_hops], edges with blocked_edges[id] != 0 removed (may be null).
  /// `s` and `t` are exempt from the active mask. On kFound, `path` (if
  /// non-null) receives s..t inclusive. Used by the DARC baseline's
  /// cycle-through-edge and feasibility queries.
  SearchOutcome FindPath(VertexId s, VertexId t, uint32_t min_hops,
                         uint32_t max_hops, const uint8_t* active,
                         const uint8_t* blocked_edges,
                         std::vector<VertexId>* path,
                         Deadline* deadline = nullptr);

  /// Counters of the underlying context (shared if the context is).
  const SearchStats& stats() const { return ctx_->stats; }
  void ResetStats() { ctx_->stats.Reset(); }

 private:
  /// The one frame loop; cycle mode is t == s.
  SearchOutcome Search(VertexId s, VertexId t, uint32_t min_hops,
                       uint32_t max_hops, bool permanent_block,
                       const uint8_t* active, const uint8_t* blocked_edges,
                       std::vector<VertexId>* out, Deadline* deadline);

  /// Paper Algorithm 10 from level 1: cascading block relaxation along
  /// in-edges. Search calls it when a depth-1 vertex fails only because
  /// its closing edge would form an excluded 2-cycle (path_search_test's
  /// depth-one skip cases cover it). Block instantiation only.
  void Unblock(VertexId u, const uint8_t* active);

  const CsrGraph& graph_;
  std::unique_ptr<SearchContext> owned_context_;
  /// Holds the DFS state and, for the block search, the per-vertex
  /// `block` (certified lower bound on remaining hops to the target;
  /// 0 == unknown) and `edge_to_target` (marks in-neighbors of the target
  /// for the depth-1 closure case).
  SearchContext* ctx_;
};

/// Plain DFS: TDB, BUR, BUR+ and the minimal prune.
using PlainDfs = BoundedDfs<false>;
/// Block-based DFS: TDB+, TDB++, DARC-DV, the verifier and the packing.
using BlockDfs = BoundedDfs<true>;

extern template class BoundedDfs<false>;
extern template class BoundedDfs<true>;

/// Block value meaning "never re-enter" (only set in permanent mode).
inline constexpr uint32_t kInfiniteBlock = 0xFFFFFFFFu;

}  // namespace tdb

#endif  // TDB_SEARCH_PATH_SEARCH_H_
