// Immutable published state of the cycle-break service.
//
// One ServiceSnapshot is the unit of the service's epoch/publish
// protocol: an OverlayGraph view (shared CSR base + the shared delta log
// up to its length at the publish) together with the transversal that
// covers every constrained cycle of exactly that graph. Readers pin a
// snapshot via the service's EpochPtr (a reader lock held for the
// refcount bump) and then run admission checks against it lock-free for
// as long as they like — newer publishes and even
// compactions cannot change what a pinned state sees: the log only grows
// past its length, and nothing else in it is ever mutated.
#ifndef TDB_SERVICE_SNAPSHOT_H_
#define TDB_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/batch_augment.h"
#include "core/cover_options.h"
#include "graph/csr_graph.h"
#include "graph/overlay_graph.h"
#include "util/status.h"

namespace tdb {

/// One published (graph, cover) pair. Immutable after publication.
struct ServiceSnapshot {
  /// Publication epoch (1 for the state published by the constructor,
  /// +1 per subsequent publish).
  uint64_t epoch = 0;
  /// The graph as of this epoch: shared base CSR + the first
  /// graph.delta_edges() entries of the generation's shared delta log.
  OverlayGraph graph;
  /// The transversal covering every constrained cycle of `graph`.
  TransversalState cover;
  /// The cycle semantics the cover was maintained under (k, 2-cycles).
  CoverOptions options;

  ServiceSnapshot(OverlayGraph g, TransversalState c, CoverOptions o)
      : graph(std::move(g)), cover(std::move(c)), options(std::move(o)) {}
};

/// Verdict of one admission query. Verdict bits first (what the caller
/// acts on), provenance after (where the verdict came from).
struct AdmissionVerdict {
  /// True iff admitting the edge cannot close an uncovered constrained
  /// cycle (it may still close covered ones — those are already broken).
  bool admissible = true;
  /// True iff the edge would close at least one uncovered constrained
  /// cycle (= !admissible; split out for readability at call sites).
  bool would_close = false;
  /// Epoch of the snapshot the verdict was computed against.
  uint64_t epoch = 0;
  /// True iff the prechecks could not decide and the path probe
  /// (PathProber::FindPath) ran; false for a precheck verdict.
  bool probed = false;
};

/// Canonical image of a published transversal state, for state dumps,
/// content digests and equality checks. Every ordered field is sorted by
/// (src, dst), so hash-set layout never leaks into it. EdgeEntry::id is
/// the edge's overlay id: its canonical CSR id for a base edge,
/// base_edges + insertion index for a delta edge.
struct TransversalImage {
  struct EdgeEntry {
    EdgeId id = 0;
    VertexId src = 0;
    VertexId dst = 0;
    bool operator==(const EdgeEntry&) const = default;
  };

  uint64_t epoch = 0;
  VertexId universe = 0;
  /// Edges folded into the immutable base, and a CRC32 over their
  /// (src, dst) pairs sorted by (src, dst).
  uint64_t base_edges = 0;
  uint32_t base_crc = 0;
  /// Delta edges, sorted by (src, dst).
  std::vector<Edge> delta;
  /// Base cover vertices, sorted.
  std::vector<VertexId> cover_vertices;
  /// Incremental S / W sets, sorted by (src, dst).
  std::vector<EdgeEntry> covered;
  std::vector<EdgeEntry> reusable;

  bool operator==(const TransversalImage&) const = default;
};

/// The canonical image of one snapshot. Pure: the same snapshot gives
/// the same image however many epochs were published after it.
TransversalImage MakeTransversalImage(const ServiceSnapshot& snapshot);

/// Read-only admission check against a pinned snapshot: would inserting
/// u -> v close a constrained cycle that no covered edge breaks? Safe to
/// call from any number of threads concurrently (the snapshot is
/// immutable; `prober` carries the per-thread scratch and must have been
/// built with the snapshot's options). Self-loops, duplicates of existing
/// edges, and out-of-universe endpoints are admissible by definition
/// (inserting them is a no-op); so is an edge with a base-covered
/// endpoint. Every other query asks the prober for an uncovered path
/// v ->* u of [min_len - 1, k - 1] hops.
AdmissionVerdict CheckAdmissionOn(const ServiceSnapshot& snapshot,
                                  VertexId u, VertexId v,
                                  PathProber* prober);

/// Batched CheckAdmissionOn: evaluates every query of `queries` (entry
/// i asks about inserting queries[i].src -> queries[i].dst) against the
/// one snapshot, writing verdicts[i]. Each query runs the same prechecks
/// and probe as CheckAdmissionOn, so verdicts are bit-identical to it at
/// any batch size and query order; prober->queries() and
/// prober->dfs_runs() count the probes. Thread-safe across callers with
/// distinct probers.
void CheckAdmissionBatchOn(const ServiceSnapshot& snapshot,
                           std::span<const Edge> queries, PathProber* prober,
                           std::vector<AdmissionVerdict>* verdicts);

// ------------------------------------------------------------------------
// Durable snapshot format.
//
// One on-disk snapshot captures the service state at a compaction cut:
// the solved base CSR, its BaseCover vertex mask, the incremental S/W
// edge sets (empty at a cut — the format carries them so a future
// mid-epoch checkpoint needs no version bump) and the bookkeeping a
// recovery needs to splice the journal back on (epoch, last folded batch
// sequence, cumulative ingested events for stream resumption).
//
// File layout (little-endian), version 1:
//   "TDBS" | version u32
//   epoch u64 | last_seq u64 | events u64 | n u64 | m u64
//   s_count u64 | w_count u64 | solve_ok u8
//   edge list m x (u32 src, u32 dst)
//   cover mask n x u8
//   S s_count x u64 | W w_count x u64
//   crc32c u32 over everything after the version field
//
// Version 2 carried the base as compressed adjacency blocks. That
// backend is gone; a v2 file is refused with InvalidArgument, so a store
// written by it fails Open instead of being misread.
//
// The single trailing CRC makes validity binary: a snapshot either reads
// back whole or is rejected, which is all the manifest protocol needs —
// snapshots are written to a temp name, fsync'd, renamed, and only then
// named by the manifest, so a reader never sees a partial file through
// the manifest anyway; the CRC guards against bit rot and out-of-band
// tampering/truncation.

/// Plain-value image of one durable snapshot.
struct SnapshotState {
  /// Epoch at which this state is (re)published on recovery.
  uint64_t epoch = 0;
  /// Journal batches with seq <= last_seq are folded into `base`.
  uint64_t last_seq = 0;
  /// Cumulative submitted edges over batches 1..last_seq (stream-resume
  /// offset for replay drivers).
  uint64_t events_ingested = 0;
  /// The base CSR, shared with the service's graph rather than copied.
  std::shared_ptr<const CsrGraph> base;
  /// BaseCover::vertex_mask, sized to the universe.
  std::vector<uint8_t> cover_mask;
  /// BaseCover::solve_status.ok() — a false here means the cover is the
  /// all-vertices fallback of a failed solve.
  bool solve_ok = true;
  /// Incremental S/W sets, as sorted canonical base edge ids.
  std::vector<EdgeId> covered;
  std::vector<EdgeId> reusable;
};

/// Atomically writes `state` to `path` (tmp + fsync + rename).
Status WriteSnapshotFile(const SnapshotState& state,
                         const std::string& path);

/// Reads and validates a v1 snapshot: magic/version, CRC over the whole
/// payload, mask sized to the universe, S/W ids within the base edge
/// range. Any violation fails the read — recovery then refuses to start
/// rather than serving from a corrupt base.
Status ReadSnapshotFile(const std::string& path, SnapshotState* state);

}  // namespace tdb

#endif  // TDB_SERVICE_SNAPSHOT_H_
