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

#include <array>
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

/// S, the covered edge set, behind a one-sided filter over the source
/// vertices of its edges. Every probe tests each edge it scans against S,
/// which is small next to the edges a probe scans (9 to 21 edges in the
/// e2e serving states), so a clear filter bit settles almost every test
/// without hashing the edge id; a set bit falls through to the exact set. insert() sets the source's bit. erase() leaves it set:
/// a stale bit costs one exact lookup, never a wrong answer. Only a fresh
/// set starts with clear bits. The filter is a fixed 512 bytes whatever
/// the graph size, so a copy (one per publish) stays O(|S|) plus a
/// constant.
class CoveredEdgeSet {
 public:
  static constexpr uint32_t kFilterLog2 = 12;
  static constexpr uint32_t kFilterBits = uint32_t{1} << kFilterLog2;

  /// The filter slot of source vertex `src` (Fibonacci hashing).
  static uint32_t FilterSlot(VertexId src) {
    return (src * 0x9E3779B1u) >> (32 - kFilterLog2);
  }

  /// False only if no edge out of `src` was ever inserted.
  bool MayHaveSource(VertexId src) const {
    const uint32_t slot = FilterSlot(src);
    return (filter_[slot / 64] >> (slot % 64) & 1) != 0;
  }

  /// True iff edge `e`, whose source vertex is `src`, is in S.
  bool contains(VertexId src, EdgeId e) const {
    return MayHaveSource(src) && edges_.count(e) > 0;
  }

  /// Adds edge `e` with source vertex `src`.
  void insert(VertexId src, EdgeId e) {
    const uint32_t slot = FilterSlot(src);
    filter_[slot / 64] |= uint64_t{1} << (slot % 64);
    edges_.insert(e);
  }

  /// Removes `e`, leaving its source's filter bit set; true iff it was in
  /// S.
  bool erase(EdgeId e) { return edges_.erase(e) > 0; }

  size_t size() const { return edges_.size(); }
  bool empty() const { return edges_.empty(); }
  auto begin() const { return edges_.begin(); }
  auto end() const { return edges_.end(); }

 private:
  std::array<uint64_t, kFilterBits / 64> filter_{};
  std::unordered_set<EdgeId> edges_;
};

/// The maintained transversal: shared base layer + incremental edge sets.
/// Copying costs O(|S| + |W|) plus S's fixed-size filter; the base is
/// shared.
struct TransversalState {
  std::shared_ptr<const BaseCover> base;
  /// S: overlay edge ids covered by incremental augmentation.
  CoveredEdgeSet covered;
  /// W: previously pruned edges, preferred for re-covering (DARC's W).
  std::unordered_set<EdgeId> reusable;

  bool VertexCovered(VertexId v) const {
    return base != nullptr && base->vertex_mask[v] != 0;
  }
  /// True iff edge `e` of `graph` intersects the transversal.
  bool EdgeCovered(const OverlayGraph& graph, EdgeId e) const {
    const VertexId src = graph.EdgeSrc(e);
    return VertexCovered(src) || covered.contains(src, e);
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
/// Scratch lives in a SearchContext (10 bytes/vertex, see
/// EnsureProbeSize); one prober and context per thread. Ingest and
/// admission both probe through this class.
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
