// Incremental transversal maintenance over a snapshot/delta graph: the
// streaming AUGMENT/PRUNE of DARC (Kuhnle et al., "... on dynamic
// networks"), run per batch for the online cycle-break service.
//
// A batch of edges is inserted into an OverlayGraph at once. Each new
// edge then runs one AUGMENT in arrival order: while it closes an
// uncovered constrained cycle, cover that cycle, reusing a previously
// pruned W edge when the cycle holds one. One PRUNE pass over the edges
// committed this batch restores minimality. Everything runs on the
// calling thread. A stream fed one edge per batch over an empty base is
// plain per-edge dynamic DARC; `bench_dynamic_stream` measures exactly
// that.
//
// Both steps ask one question per edge u -> v: is there an uncovered
// path v ->* u of at most k - 1 hops (PathProber::FindPath)? Most of the
// time there is none, so the probe settles existence first from two
// half-radius balls around v and u (search/bidirectional_reach.h), and
// runs its first-path DFS, pruned by the reverse ball's distances, only
// when a path exists.
//
// Coverage has two layers:
//   * BaseCover — the vertex cover produced by the last full
//     SolveCycleCover over the compacted snapshot. An edge whose source
//     vertex is in the base cover is covered (every constrained cycle
//     through a covered vertex uses exactly one of its out-edges), and
//     this layer is immutable between compactions, so published states
//     share it by pointer.
//   * covered (S) / reusable (W) edge sets — the incremental layer the
//     batch augment maintains, DARC's S and W keyed by overlay edge ids
//     and starting from a covered base instead of an empty graph.
#ifndef TDB_CORE_BATCH_AUGMENT_H_
#define TDB_CORE_BATCH_AUGMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/cover_options.h"
#include "graph/overlay_graph.h"
#include "search/search_context.h"

namespace tdb {

/// Immutable product of one compaction: the base snapshot's vertex cover.
struct BaseCover {
  /// vertex_mask[v] == 1 iff v is in the cover; sized to the universe.
  std::vector<uint8_t> vertex_mask;
  /// The same cover as a sorted vertex list.
  std::vector<VertexId> vertices;
  /// Status of the solve that produced it (ok, or the failure that forced
  /// the all-vertices fallback).
  Status solve_status;

  /// Builds from a solver cover (sorted or not) over `n` vertices.
  static std::shared_ptr<const BaseCover> FromVertexCover(
      VertexId n, std::vector<VertexId> cover, Status status);
};

/// The maintained transversal: shared base layer + incremental edge sets.
/// Copying costs O(|S| + |W|); the base is shared.
struct TransversalState {
  std::shared_ptr<const BaseCover> base;
  /// S: overlay edge ids covered by incremental augmentation.
  std::unordered_set<EdgeId> covered;
  /// W: previously pruned edges, preferred for re-covering (DARC's W).
  std::unordered_set<EdgeId> reusable;

  bool VertexCovered(VertexId v) const {
    return base != nullptr && base->vertex_mask[v] != 0;
  }
  /// True iff edge `e` of `graph` intersects the transversal.
  bool EdgeCovered(const OverlayGraph& graph, EdgeId e) const {
    return VertexCovered(graph.EdgeSrc(e)) || covered.count(e) > 0;
  }
};

/// Bounded uncovered-simple-path search over an OverlayGraph, the probe
/// behind every AUGMENT and PRUNE. Each FindPath first decides existence
/// by meet-in-the-middle (search/bidirectional_reach.h): a reverse ball of
/// radius floor((k-1)/2) around dst and a forward ball of the remaining
/// radius around src, joined exactly. Most probes end there, with no
/// path. Otherwise a plain first-path DFS runs (the stack stays at most
/// k-1 deep), pruned with the reverse ball's distances: it skips w when
/// depth(w) + lb(w) > k - 1, where lb(w) is w's exact distance to dst
/// inside the ball and the ball radius + 1 outside it. The prune removes
/// only subtrees that hold no path, so the DFS returns the same first
/// path in the same adjacency order as an unpruned one. A probe without a
/// path out-parameter also ends at the join when the distance lies in the
/// band: a shortest uncovered walk is a simple path.
///
/// Scratch lives in a SearchContext (5 bytes/vertex over the BFS arrays);
/// one prober and context per thread.
class PathProber {
 public:
  /// Self-contained form: owns a private context. Only options.k and
  /// options.include_two_cycles are consulted.
  explicit PathProber(const CoverOptions& options);

  /// Reentrant form: scratch lives in `*ctx` (borrowed, must outlive the
  /// prober), so a warm context makes the prober allocation-free.
  PathProber(const CoverOptions& options, SearchContext* ctx);

  /// True iff an uncovered simple path src -> dst with hop count in
  /// [min_len - 1, k - 1] exists ("would the edge dst -> src close a
  /// qualifying cycle?"). When `path` is non-null and a path exists it
  /// receives the vertex sequence src..dst: the first one a DFS over
  /// adjacency order meets.
  bool FindPath(const OverlayGraph& graph, const TransversalState& state,
                VertexId src, VertexId dst, std::vector<VertexId>* path);

  /// Shared-source batch form of FindPath: writes into found[j] whether
  /// an uncovered simple path src -> targets[j] with hop count in
  /// [min_len - 1, k - 1] exists. One hop-bounded BFS over the uncovered
  /// subgraph (search/bounded_reach.h) decides every target at once —
  /// the exact shortest uncovered distance forces the verdict whenever
  /// it lands inside or beyond the qualifying band — and only the
  /// below-band residue (a bare src -> target edge while 2-cycles are
  /// excluded) re-runs FindPath. Verdicts are bit-identical to
  /// per-target FindPath calls. Returns the number of FindPath fallbacks
  /// taken.
  size_t FindPathsFrom(const OverlayGraph& graph,
                       const TransversalState& state, VertexId src,
                       std::span<const VertexId> targets, uint8_t* found);

  /// FindPath calls.
  uint64_t queries() const { return queries_; }
  /// FindPath calls the ball join could not settle, which ran the DFS.
  uint64_t dfs_runs() const { return dfs_runs_; }

 private:
  bool Dfs(const OverlayGraph& graph, const TransversalState& state,
           VertexId u, VertexId dst, uint32_t depth,
           std::vector<VertexId>* path);

  uint32_t min_path_;
  uint32_t max_path_;
  /// Reverse-ball radius for k - 1 hops; the DFS bounds an unlabeled
  /// vertex's distance to dst by one more.
  uint32_t reverse_radius_;
  std::unique_ptr<SearchContext> owned_context_;
  SearchContext* ctx_;
  std::vector<VertexId> on_path_;
  uint64_t queries_ = 0;
  uint64_t dfs_runs_ = 0;
};

/// Instrumentation from one BatchAugment call.
struct BatchAugmentStats {
  uint64_t submitted = 0;
  uint64_t inserted = 0;
  /// Self-loops, duplicates, out-of-universe endpoints.
  uint64_t rejected = 0;
  uint64_t cycles_covered = 0;
  uint64_t path_queries = 0;
  /// The share of path_queries the ball join could not settle, which ran
  /// the DFS.
  uint64_t probe_dfs = 0;
  /// Edges demoted S -> W (or dropped as redundant) by the PRUNE pass.
  uint64_t prunes = 0;
};

/// Inserts `batch` into `graph` and restores the invariant that the
/// transversal (base cover + S) intersects every constrained cycle of the
/// grown graph. Only options.k and options.include_two_cycles are
/// consulted (they must match the state's history, and the caller
/// validates them). `ctx` holds the probe scratch; callers that ingest
/// repeatedly keep one warm context (the service owns one for its
/// writer).
BatchAugmentStats BatchAugment(OverlayGraph* graph, TransversalState* state,
                               const CoverOptions& options,
                               std::span<const Edge> batch,
                               SearchContext* ctx);

}  // namespace tdb

#endif  // TDB_CORE_BATCH_AUGMENT_H_
