// Per-snapshot landmark distance index for the admission fast path.
//
// An admission query "would u -> v close an uncovered constrained
// cycle?" reduces to "does the uncovered subgraph U contain a simple
// path v ->* u with hop count in [min_len - 1, k - 1]?" (U is the
// published graph minus every covered edge: out-edges of base-covered
// vertices and the incremental S set). The index stores, for a small
// set of deterministically chosen high-degree landmark hubs, the exact
// hop distances in U from every vertex to the hub and from the hub to
// every vertex (capped forward/backward BFS level arrays). A query is
// then answered by arithmetic alone whenever the stored distances FORCE
// the verdict:
//
//   * v has no uncovered out-edge, or u no uncovered in-edge -> no path;
//   * some hub h separates the pair: dist(v->h) - dist(u->h) > k - 1 or
//     dist(h->u) - dist(h->v) > k - 1 (directed triangle inequality
//     lower bounds on dist(v->u)) -> no path;
//   * some hub h relays the pair: dist(v->h) + dist(h->u) <= k - 1 with
//     both legs exact proves a walk inside the hop budget, whose
//     shortest witness is a simple path; when the lower bound also
//     clears min_len - 1 the path sits in the qualifying band -> cycle;
//   * v or u IS a hub -> its row holds the exact dist(v->u); any value
//     in [min_len - 1, k - 1] proves the cycle, anything larger
//     disproves it, and only a below-band distance (a bare v -> u edge
//     while 2-cycles are excluded) stays open.
//
// Distances are stored saturated at cap_ ("cap_ means >= cap_"), which
// makes every bound a saturating byte operation: the query's hot loop is
// branch-free max/min over four contiguous L-byte rows and compiles to
// SIMD (psubusb/paddusb/pmaxub/pminub) at any L.
//
// Every rule is exact, so indexed verdicts are bit-identical to the
// unindexed PathProber path by construction; the residue the index
// cannot force falls back to a real probe. Distances are valid only for
// the exact (graph, cover) they were built from, so every publish gets
// its own index, mirroring the per-epoch AdmissionCache lifecycle.
//
// Two ways to get that index, byte-identical by construction:
//
//   * A full build costs one classification sweep over the overlay plus
//     2 * ceil(L / 64) array-only BFS passes. The sweep writes U into a
//     transient out-CSR (the in-CSR follows by one counting sort), so no
//     BFS step touches the overlay's delta hash or the covered-edge set.
//     Each pass then advances up to 64 landmarks level by level at once,
//     one bit per landmark in a 64-bit seen/frontier/next mask per
//     vertex. All of that scratch is freed before Build returns.
//   * A patch of the previous publish's index, when both share the CSR
//     base and the BaseCover and the landmark set survives. U then
//     differs only by the new delta edges and the edges that entered or
//     left S. The patch copies the 2 * L * n row bytes, then repairs
//     them: a removed edge can only raise levels, so each vertex that
//     may have lost its last parent recomputes its row from its
//     remaining parents (Even-Shiloach, bounded by cap_ levels); an
//     added edge can only lower levels, so a relaxation from its head
//     visits exactly the vertices whose row drops. Both read the overlay
//     directly. Cost: O(delta + |S| + n) bookkeeping plus the repaired
//     region, instead of O(m) per publish.
//
// Landmark slots are stored in ascending vertex id, so a shift in the
// degree RANKING of an unchanged landmark set needs no rebuild.
#ifndef TDB_SERVICE_ADMISSION_INDEX_H_
#define TDB_SERVICE_ADMISSION_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/batch_augment.h"
#include "core/cover_options.h"
#include "graph/overlay_graph.h"
#include "util/thread_pool.h"

namespace tdb {

/// Immutable once built; safe to query from any number of threads with
/// no synchronization (Build is the only mutation and happens-before
/// publication via the snapshot's EpochPtr Store). Deterministic:
/// landmark selection, BFS level arrays and every query rule are pure
/// functions of the (graph, cover, k, landmark-count) tuple — the same
/// build inputs yield byte-identical rows and therefore identical
/// Probe verdicts at any build thread count, patched or not.
class AdmissionIndex {
 public:
  /// Tri-state answer of one distance-arithmetic probe.
  enum class Probe : uint8_t {
    /// No uncovered path v ->* u with <= k - 1 hops exists (forced).
    kNoPath,
    /// An uncovered path with hop count in [min_len - 1, k - 1] exists
    /// (forced by an exact landmark row or a two-leg hub relay).
    kWouldClose,
    /// The stored distances do not force a verdict; run a real probe.
    kUnknown,
  };

  /// A previously published state and its index, offered to Build as a
  /// starting point. All three must stay alive for the Build call.
  struct Prior {
    const AdmissionIndex* index = nullptr;
    const OverlayGraph* graph = nullptr;
    const TransversalState* cover = nullptr;
  };

  /// Builds the index for exactly this (graph, cover, options) triple —
  /// the published snapshot state. Landmarks are the `num_landmarks`
  /// vertices of highest uncovered degree (ties to the lower id), stored
  /// in ascending id order. Returns null when k's hop budget cannot be
  /// represented in the byte-packed level arrays (k >= 254);
  /// ServiceOptions::Validate refuses that combination up front.
  ///
  /// When `prior` is given and `graph` extends prior->graph by appended
  /// delta edges only (same CSR base, same BaseCover, same k), the
  /// result is patched from prior->index (see the file comment) and
  /// patched() is true; a changed landmark set, a changed base or no
  /// prior falls back to the full build. Either way the result is
  /// byte-identical to a full build of (graph, cover). Each repair
  /// direction, or each (direction, chunk of 64 landmarks) BFS of a full
  /// build, is one task on `pool` (inline when null).
  static std::shared_ptr<const AdmissionIndex> Build(
      const OverlayGraph& graph, const TransversalState& cover,
      const CoverOptions& options, int num_landmarks, ThreadPool* pool,
      const Prior* prior = nullptr);

  /// Distance-arithmetic probe for "uncovered qualifying path v ->* u?"
  /// (note the argument order: probe source first, i.e. the queried
  /// edge's DST). Both endpoints must be < the build universe.
  Probe Query(VertexId v, VertexId u) const;

  size_t num_landmarks() const { return landmarks_.size(); }
  std::span<const VertexId> landmarks() const { return landmarks_; }
  /// Wall-clock cost of producing this index, patched or built.
  double build_seconds() const { return build_seconds_; }
  /// True iff Build patched a prior index instead of building afresh.
  bool patched() const { return patched_; }
  /// Heap footprint of the level arrays (~2 bytes/vertex/landmark).
  size_t bytes() const { return to_hub_.size() + from_hub_.size(); }

  /// True iff both indexes hold the same contents: hop parameters,
  /// uncovered degrees, has_out_/has_in_, landmarks, slot_ and both
  /// level arrays. Ignores provenance (build_seconds, patched) — the
  /// check that a patched index equals a fresh build.
  bool SameContents(const AdmissionIndex& other) const;

 private:
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  AdmissionIndex() = default;

  /// Build's full path: fills every field from scratch.
  void BuildFull(const OverlayGraph& graph, const TransversalState& cover,
                 int num_landmarks, ThreadPool* pool);
  /// Build's patch path: fills this (fresh) index from `prior` and
  /// returns true, or returns false when it cannot (then Build runs
  /// BuildFull, which overwrites whatever was filled).
  bool PatchFrom(const Prior& prior, const OverlayGraph& graph,
                 const TransversalState& cover, int num_landmarks,
                 ThreadPool* pool);
  /// has_out_/has_in_ from the current degree arrays.
  void SetEndpointFlags();
  /// Landmarks for the current degree arrays: the top `num_landmarks`
  /// by uncovered degree with degree > 0, in ascending id order.
  std::vector<VertexId> SelectLandmarks(int num_landmarks) const;

  /// Hop budget k - 1: paths longer than this close nothing.
  uint32_t max_path_ = 0;
  /// min_len - 1: paths shorter than this are below the qualifying band.
  uint32_t min_path_ = 0;
  /// Distance saturation point: BFS depth is cap_ - 1 and every vertex
  /// not reached by then stores cap_ itself, i.e. "dist >= cap_" (so a
  /// stored value is exact iff < cap_). Deeper than max_path_ + 1 on
  /// purpose — the slack makes the triangle-inequality differences
  /// strictly sharper.
  uint32_t cap_ = 0;
  /// Uncovered out-/in-degree per vertex: the landmark ranking, and the
  /// state a patch updates edge by edge.
  std::vector<uint32_t> out_deg_;
  std::vector<uint32_t> in_deg_;
  /// has_out_[x] == 1 iff x has an uncovered out-edge (in-edge for
  /// has_in_): O(1) "the path cannot even start/end" rules.
  std::vector<uint8_t> has_out_;
  std::vector<uint8_t> has_in_;
  /// Landmarks in ascending id order; landmark i owns slot i.
  std::vector<VertexId> landmarks_;
  /// Vertex -> its landmark slot, kNoSlot for non-landmarks.
  std::vector<uint32_t> slot_;
  /// Level arrays, vertex-major so one query touches four contiguous
  /// L-byte runs: to_hub_[x * L + i] = dist_U(x -> landmark i),
  /// from_hub_[x * L + i] = dist_U(landmark i -> x).
  std::vector<uint8_t> to_hub_;
  std::vector<uint8_t> from_hub_;
  double build_seconds_ = 0.0;
  bool patched_ = false;
};

}  // namespace tdb

#endif  // TDB_SERVICE_ADMISSION_INDEX_H_
