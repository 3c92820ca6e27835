// Closed-walk BFS filter (the paper's Algorithm 11, the "++" in TDB++).
//
// A simple cycle of length L through v is in particular a closed walk of
// length L, so the shortest closed walk through v — computable exactly by
// one BFS, ignoring simplicity — lower-bounds the shortest simple cycle.
// If that bound exceeds k the vertex can be discharged without running the
// (more expensive) block-based validation. The paper's Example 2 shows why
// BFS alone cannot *confirm* a simple cycle (it cannot tell Figure 4(a)
// from 4(b)); it is used strictly as a one-sided filter.
#ifndef TDB_SEARCH_BFS_FILTER_H_
#define TDB_SEARCH_BFS_FILTER_H_

#include <memory>
#include <vector>

#include "graph/csr_graph.h"
#include "search/search_context.h"
#include "search/search_types.h"
#include "util/epoch_array.h"
#include "util/timer.h"

namespace tdb {

/// Reusable BFS scratch. Reentrant across instances: the visited marks and
/// frontier buffers live in the SearchContext, so concurrent filters need
/// only distinct contexts. A single (instance, context) pair is not
/// thread-safe.
class BfsFilter {
 public:
  /// Self-contained form: owns a private context.
  explicit BfsFilter(const CsrGraph& graph);

  /// Reentrant form: scratch and stats live in `*context` (borrowed, must
  /// outlive the filter), grown to the graph's size on construction.
  BfsFilter(const CsrGraph& graph, SearchContext* context);

  /// Length of the shortest closed walk through `start` inside the
  /// subgraph induced by `active` (start exempt), or any value > max_hops
  /// if no closed walk of length <= max_hops exists. The exact return in
  /// the "none" case is max_hops + 1. If `deadline` (may be null) expires
  /// mid-scan the filter returns 0 — never a valid walk length — and the
  /// caller maps that to a timeout.
  ///
  /// Note: a 2-walk over a bidirectional edge counts — it must, because a
  /// depth-1 neighbor can also close a *long* simple cycle, so skipping
  /// those closures would make the filter unsound (see bfs_filter_test).
  uint32_t ShortestClosedWalk(VertexId start, uint32_t max_hops,
                              const uint8_t* active,
                              Deadline* deadline = nullptr);

  /// ShortestClosedWalk's timeout sentinel.
  static constexpr uint32_t kTimedOutWalk = 0;

  /// Counters of the underlying context (shared if the context is);
  /// each call adds the vertices it dequeued to filter_visits.
  const SearchStats& stats() const { return ctx_->stats; }

 private:
  const CsrGraph& graph_;
  std::unique_ptr<SearchContext> owned_context_;
  SearchContext* ctx_;
};

}  // namespace tdb

#endif  // TDB_SEARCH_BFS_FILTER_H_
