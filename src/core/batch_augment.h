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
#include "util/epoch_array.h"

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

/// Bounded uncovered-simple-path existence search over an OverlayGraph.
/// Plain DFS with an on-path stack (paths have at most k-1 hops, so the
/// stack stays tiny); one prober per thread — the scratch is not shared.
class PathProber {
 public:
  /// Only options.k and options.include_two_cycles are consulted.
  explicit PathProber(const CoverOptions& options);

  /// True iff an uncovered simple path src -> dst with hop count in
  /// [min_len - 1, k - 1] exists ("would the edge dst -> src close a
  /// qualifying cycle?"). When `path` is non-null and a path exists it
  /// receives the vertex sequence src..dst.
  bool FindPath(const OverlayGraph& graph, const TransversalState& state,
                VertexId src, VertexId dst, std::vector<VertexId>* path);

  /// Shared-source batch form of FindPath: writes into found[j] whether
  /// an uncovered simple path src -> targets[j] with hop count in
  /// [min_len - 1, k - 1] exists. One hop-bounded BFS over the uncovered
  /// subgraph (search/bounded_reach.h) decides every target at once —
  /// the exact shortest uncovered distance forces the verdict whenever
  /// it lands inside or beyond the qualifying band — and only the
  /// below-band residue (a bare src -> target edge while 2-cycles are
  /// excluded) re-runs the exact DFS. Verdicts are bit-identical to
  /// per-target FindPath calls. `ctx` carries the BFS scratch; like the
  /// prober itself, one per concurrent thread. Returns the number of
  /// DFS fallbacks taken.
  size_t FindPathsFrom(const OverlayGraph& graph,
                       const TransversalState& state, VertexId src,
                       std::span<const VertexId> targets,
                       SearchContext* ctx, uint8_t* found);

  uint64_t queries() const { return queries_; }

 private:
  bool Dfs(const OverlayGraph& graph, const TransversalState& state,
           VertexId u, VertexId dst, uint32_t depth,
           std::vector<VertexId>* path);

  uint32_t min_path_;
  uint32_t max_path_;
  std::vector<VertexId> on_path_;
  /// FindPathsFrom scratch: per-target shortest distances of one sweep.
  EpochArray<uint32_t> target_dist_;
  uint64_t queries_ = 0;
};

/// Instrumentation from one BatchAugment call.
struct BatchAugmentStats {
  uint64_t submitted = 0;
  uint64_t inserted = 0;
  /// Self-loops, duplicates, out-of-universe endpoints.
  uint64_t rejected = 0;
  uint64_t cycles_covered = 0;
  uint64_t path_queries = 0;
  /// Edges demoted S -> W (or dropped as redundant) by the PRUNE pass.
  uint64_t prunes = 0;
};

/// Inserts `batch` into `graph` and restores the invariant that the
/// transversal (base cover + S) intersects every constrained cycle of the
/// grown graph. Only options.k and options.include_two_cycles are
/// consulted (they must match the state's history, and the caller
/// validates them).
BatchAugmentStats BatchAugment(OverlayGraph* graph, TransversalState* state,
                               const CoverOptions& options,
                               std::span<const Edge> batch);

}  // namespace tdb

#endif  // TDB_CORE_BATCH_AUGMENT_H_
