// Per-worker mutable scratch for the search engines and the solvers that
// drive them.
//
// CycleFinder, BlockSearch and BfsFilter historically each owned their own
// n-sized scratch, which made a searcher cheap to reuse sequentially but
// impossible to run concurrently: two threads probing different vertices
// would race on the same block/visited arrays. The scratch now lives in an
// explicit SearchContext — one per worker thread — and the searcher classes
// are thin reentrant views over (graph, context). A context is reused
// across any number of solves (the parallel engine solves every SCC of a
// graph in place on the parent CSR, one context per worker); the Ensure*
// helpers grow it lazily and never shrink, so reuse is allocation-free
// once warm. Concurrent searches against one shared kept/active mask are
// safe exactly while the mask is frozen.
//
// The component solvers' vertex masks (`kept`, `active`, `hits`) live here
// too, so that a component of c vertices costs O(c) in mask upkeep rather
// than an n-sized allocation per component.
//
// Invariants between searches: `on_path` is all-zero and `stack` is empty
// (every search restores them on exit, including timeout paths); the epoch
// arrays carry stale values that the next NewEpoch invalidates in O(1).
// Invariant between solves: `kept`, `active` and `hits` are all-zero (every
// solve resets the entries of its component's members on exit, including
// timeout paths).
#ifndef TDB_SEARCH_SEARCH_CONTEXT_H_
#define TDB_SEARCH_SEARCH_CONTEXT_H_

#include <vector>

#include "graph/types.h"
#include "search/search_types.h"
#include "util/epoch_array.h"

namespace tdb {

/// Scratch + instrumentation shared by every search engine. Not
/// thread-safe: one context per concurrent worker.
struct SearchContext {
  // DFS state (CycleFinder, BlockSearch).
  std::vector<uint8_t> on_path;
  std::vector<SearchFrame> stack;

  // Block-based validation state (BlockSearch).
  EpochArray<uint32_t> block;
  EpochArray<uint8_t> edge_to_target;

  // Closed-walk BFS state (BfsFilter), also the forward ball of
  // BidirectionalDistance.
  EpochArray<uint8_t> visited;
  std::vector<VertexId> frontier;
  std::vector<VertexId> next_frontier;

  // Probe state (PathProber): one-byte hop labels of the reverse ball of
  // BidirectionalDistance (dr + 1, 0 = unlabeled).
  EpochArray<uint8_t> reach_dist;

  // Component-solver masks over the parent graph's vertex ids.
  // kept[v] == 1 once the top-down sweep discharged v into G0.
  std::vector<uint8_t> kept;
  // active[v] == 1 while v is a member of the bottom-up solve's component
  // and not in its cover.
  std::vector<uint8_t> active;
  // hits[v]: how many cycles the bottom-up solve found through v.
  std::vector<uint32_t> hits;

  /// Counters across all searches run on this context; the engine merges
  /// per-worker stats at join.
  SearchStats stats;

  // Each engine grows only the arrays it uses, so a context serving one
  // engine family does not pay for the others' scratch (~24 bytes/vertex
  // all-in, vs 1 for a plain DFS).

  /// DFS state (CycleFinder, BlockSearch): `on_path`.
  void EnsureDfsSize(VertexId n) {
    if (on_path.size() < n) on_path.resize(n, 0);
  }

  /// Block-validation state (BlockSearch): `block`, `edge_to_target`.
  void EnsureBlockSize(VertexId n) {
    block.Resize(n);
    edge_to_target.Resize(n);
  }

  /// BFS state (BfsFilter): `visited`.
  void EnsureBfsSize(VertexId n) { visited.Resize(n); }

  /// Probe state (PathProber, BidirectionalDistance): `visited` and
  /// `reach_dist`, 10 bytes/vertex.
  void EnsureProbeSize(VertexId n) {
    visited.Resize(n);
    reach_dist.Resize(n);
  }

  /// Top-down solve state: `kept`.
  void EnsureKeptSize(VertexId n) {
    if (kept.size() < n) kept.resize(n, 0);
  }

  /// Bottom-up solve state: `active`.
  void EnsureActiveSize(VertexId n) {
    if (active.size() < n) active.resize(n, 0);
  }

  /// Bottom-up solve state: `hits`.
  void EnsureHitsSize(VertexId n) {
    if (hits.size() < n) hits.resize(n, 0);
  }
};

}  // namespace tdb

#endif  // TDB_SEARCH_SEARCH_CONTEXT_H_
