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
// Correctness subtlety (see DESIGN.md §3): when 2-cycles are excluded, a
// vertex u entered at depth 1 that owns an edge u -> s cannot use it (the
// closure would be a 2-cycle) although at any depth >= 2 the same edge
// closes a valid cycle. The generic failure bound k - depth + 1 would
// wrongly forbid those deeper re-entries; the truthful bound in that one
// case is 1, which is what this implementation records.
#ifndef TDB_SEARCH_PATH_SEARCH_H_
#define TDB_SEARCH_PATH_SEARCH_H_

#include <functional>
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
///
/// Templated over the storage backend (CsrGraph or CompressedCsr): the
/// DFS decodes each pushed vertex's neighbor list once into the frame
/// (per-depth context buffers), so compressed adjacency costs one decode
/// per push instead of one per edge re-scan, and on the raw backend the
/// seam collapses to the original span walk.
template <typename GraphT>
class BlockSearchT {
 public:
  /// Self-contained form: owns a private context.
  explicit BlockSearchT(const GraphT& graph);

  /// Reentrant form: scratch and stats live in `*context` (borrowed, must
  /// outlive the searcher), grown to the graph's size on construction.
  BlockSearchT(const GraphT& graph, SearchContext* context);

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

  /// Enumerates EVERY simple path s -> t (s != t) with hops in
  /// [min_hops, max_hops]. This is the barrier-based BC-DFS of the
  /// paper's [52] (hop-constrained s-t path enumeration): subtrees that
  /// produced no path are blocked exactly like FindPath's failures, and a
  /// success pops with an Algorithm-10 unblock cascade so previously
  /// blocked vertices whose routes reopen are re-offered — keeping the
  /// enumeration complete while skipping provably dead branches.
  ///
  /// `sink` receives each path (s..t inclusive); returning false stops
  /// the enumeration early. Returns the number of paths emitted. Paths
  /// are emitted exactly once each (DFS over simple paths).
  size_t EnumeratePaths(
      VertexId s, VertexId t, uint32_t min_hops, uint32_t max_hops,
      const uint8_t* active, const uint8_t* blocked_edges,
      const std::function<bool(const std::vector<VertexId>&)>& sink);

  /// Counters of the underlying context (shared if the context is).
  const SearchStats& stats() const { return ctx_->stats; }
  void ResetStats() { ctx_->stats.Reset(); }

 private:
  SearchOutcome Search(VertexId s, VertexId t, uint32_t min_hops,
                       uint32_t max_hops, bool permanent_block,
                       const uint8_t* active, const uint8_t* blocked_edges,
                       std::vector<VertexId>* out, Deadline* deadline);

  /// Recursive body of EnumeratePaths. Returns true while the sink wants
  /// more results; sets *emitted_any when the subtree produced a path.
  bool EnumerateFrom(
      VertexId u, VertexId t, uint32_t min_hops, uint32_t max_hops,
      const uint8_t* active, const uint8_t* blocked_edges,
      std::vector<VertexId>* prefix, size_t* count, bool* emitted_any,
      const std::function<bool(const std::vector<VertexId>&)>& sink);

  /// Paper Algorithm 10: cascading block relaxation along in-edges. Called
  /// on the success path for fidelity with the paper; under first-cycle
  /// termination it has no observable effect (state is epoch-discarded),
  /// but it is exercised and unit-tested for the enumeration use case.
  void Unblock(VertexId u, uint32_t level, const uint8_t* active);

  /// Decodes u's out-neighbors into the context's depth-d buffer (a
  /// zero-copy span on the raw backend).
  std::span<const VertexId> DecodeAt(VertexId u, size_t depth) {
    return graph_.DecodeNeighbors(u, ctx_->DecodeBuffer(depth));
  }

  const GraphT& graph_;
  std::unique_ptr<SearchContext> owned_context_;
  /// Holds the per-vertex state: `block` (certified lower bound on
  /// remaining hops to the target; 0 == unknown) and `edge_to_target`
  /// (marks in-neighbors of the target for the depth-1 closure case).
  SearchContext* ctx_;
};

class CompressedCsr;
extern template class BlockSearchT<CsrGraph>;
extern template class BlockSearchT<CompressedCsr>;

/// The raw-backend searcher, under its historical name.
using BlockSearch = BlockSearchT<CsrGraph>;

/// Block value meaning "never re-enter" (only set in permanent mode).
inline constexpr uint32_t kInfiniteBlock = 0xFFFFFFFFu;

}  // namespace tdb

#endif  // TDB_SEARCH_PATH_SEARCH_H_
