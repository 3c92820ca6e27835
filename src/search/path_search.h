// Block-based bounded existence search (the paper's Algorithms 9 and 10).
//
// This is the engine behind TDB+ / TDB++: a DFS that records, for each
// vertex that failed to reach the target, a *block* value — a certified
// lower bound on the remaining distance to the target avoiding the current
// stack. A vertex u that failed when entered at depth d can only be
// re-entered at depth d' with d' + u.block <= max_hops, i.e. strictly
// shallower, so each vertex is pushed at most k times and each edge scanned
// at most k+1 times: O(k*m) per search (paper Theorem 6) instead of the
// plain DFS's O(n^k).
//
// Correctness subtlety (see docs/ARCHITECTURE.md, "The 2-cycle
// exclusion"): when 2-cycles are excluded, a
// vertex u entered at depth 1 that owns an edge u -> s cannot use it (the
// closure would be a 2-cycle) although at any depth >= 2 the same edge
// closes a valid cycle. The generic failure bound k - depth + 1 would
// wrongly forbid those deeper re-entries; the truthful bound in that one
// case is 1, which is what this implementation records.
#ifndef TDB_SEARCH_PATH_SEARCH_H_
#define TDB_SEARCH_PATH_SEARCH_H_

#include <memory>
#include <vector>

#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "search/search_types.h"
#include "util/epoch_array.h"
#include "util/timer.h"

namespace tdb {

/// Reusable block-based searcher. Per-vertex block state is epoch-versioned
/// so consecutive searches pay O(1) reset. Reentrant across instances: all
/// mutable state lives in the SearchContext, so concurrent searches need
/// only distinct contexts — the engine runs one instance per pool worker,
/// each over its own component. A single (instance, context) pair is not
/// thread-safe.
class BlockSearch {
 public:
  /// Self-contained form: owns a private context.
  explicit BlockSearch(const CsrGraph& graph);

  /// Reentrant form: scratch and stats live in `*context` (borrowed, must
  /// outlive the searcher), grown to the graph's size on construction.
  BlockSearch(const CsrGraph& graph, SearchContext* context);

  /// Node-necessity validation (paper Algorithm 9): is there a simple cycle
  /// through `start` with hop count in [min_len, max_hops] inside the
  /// subgraph induced by `active` plus `start` itself?
  ///
  /// With constraint.permanent_block (the §VI.C unconstrained variant),
  /// failed vertices never re-enter, making the search O(m).
  SearchOutcome FindCycleThrough(VertexId start,
                                 const CycleConstraint& constraint,
                                 const uint8_t* active,
                                 std::vector<VertexId>* cycle,
                                 Deadline* deadline = nullptr);

  /// Simple-path existence s -> t (s != t) with hops in [min_hops,
  /// max_hops], edges with blocked_edges[id] != 0 removed. Used by the
  /// DARC baseline's cycle-through-edge and feasibility queries.
  SearchOutcome FindPath(VertexId s, VertexId t, uint32_t min_hops,
                         uint32_t max_hops, const uint8_t* active,
                         const uint8_t* blocked_edges,
                         std::vector<VertexId>* path,
                         Deadline* deadline = nullptr);

  /// Counters of the underlying context (shared if the context is).
  const SearchStats& stats() const { return ctx_->stats; }
  void ResetStats() { ctx_->stats.Reset(); }

 private:
  SearchOutcome Search(VertexId s, VertexId t, uint32_t min_hops,
                       uint32_t max_hops, bool permanent_block,
                       const uint8_t* active, const uint8_t* blocked_edges,
                       std::vector<VertexId>* out, Deadline* deadline);

  /// Paper Algorithm 10: cascading block relaxation along in-edges. Search
  /// calls it when a depth-1 vertex fails only because its closing edge
  /// would form an excluded 2-cycle (path_search_test's depth-one skip
  /// cases cover it), and on the success path for fidelity
  /// with the paper, where under first-cycle termination it has no
  /// observable effect (state is epoch-discarded).
  void Unblock(VertexId u, uint32_t level, const uint8_t* active);

  const CsrGraph& graph_;
  std::unique_ptr<SearchContext> owned_context_;
  /// Holds the per-vertex state: `block` (certified lower bound on
  /// remaining hops to the target; 0 == unknown) and `edge_to_target`
  /// (marks in-neighbors of the target for the depth-1 closure case).
  SearchContext* ctx_;
};

/// Block value meaning "never re-enter" (only set in permanent mode).
inline constexpr uint32_t kInfiniteBlock = 0xFFFFFFFFu;

}  // namespace tdb

#endif  // TDB_SEARCH_PATH_SEARCH_H_
