// Online cycle-break service: concurrent batched ingest + admission
// queries over a snapshot/delta graph store.
//
// This is the serving layer for the paper's motivating deployment
// (online fraud prevention): a long-lived process owns the transaction
// graph and answers, for every incoming edge, "would admitting this edge
// close a hop-constrained cycle that nothing covers yet?" — while
// ingesting the edges that were admitted.
//
// Architecture (one writer, many readers, background compaction):
//
//   * The graph lives as an immutable CSR snapshot plus a mutable delta
//     overlay (graph/overlay_graph.h). The transversal has a matching
//     two-layer shape: the snapshot's vertex cover from the last full
//     solve plus incremental covered-edge sets (core/batch_augment.h).
//   * SubmitEdges (the single writer, internally serialized) ingests a
//     batch on the calling thread: insertions, one AUGMENT per new edge,
//     one PRUNE pass — then publishes a frozen copy-on-write
//     ServiceSnapshot through an EpochPtr (util/epoch_ptr.h).
//     Publication copies the overlay and the transversal in
//     O(delta + |S|); a snapshot holds nothing else.
//   * CheckAdmission (any number of concurrent readers) pins the latest
//     snapshot, runs the O(1) prechecks, and answers the rest with the
//     same read-only meet-in-the-middle path probe ingest uses
//     (PathProber::FindPath). A pinned snapshot stays valid forever;
//     readers never block the writer beyond the pointer swap itself.
//   * When the delta exceeds compact_delta_threshold, the service
//     compacts: freeze base+delta into a fresh CSR, re-run the full
//     SCC-partitioned parallel engine (SolveCycleCover) on it — in the
//     background by default, under a work-budget-split deadline so even
//     a timed-out solve yields a fair partial cover — then atomically
//     install the new base, replay the edges that arrived during the
//     solve, and publish. Readers are never blocked; the writer is
//     blocked only for the install itself.
#ifndef TDB_SERVICE_CYCLE_BREAK_SERVICE_H_
#define TDB_SERVICE_CYCLE_BREAK_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_augment.h"
#include "core/cover_options.h"
#include "graph/csr_graph.h"
#include "graph/overlay_graph.h"
#include "search/search_context.h"
#include "service/journal.h"
#include "service/snapshot.h"
#include "service/stats.h"
#include "util/epoch_ptr.h"

namespace tdb {

/// Configuration of a CycleBreakService.
struct ServiceOptions {
  /// Cycle semantics (k, include_two_cycles) for ingest and admission,
  /// plus the engine knobs (thresholds, order) used by compaction solves.
  /// num_threads sizes the engine pool of every compaction solve (0 =
  /// one per hardware thread). Ingest itself always runs on the writer
  /// thread, and admission on the calling reader threads.
  /// `unconstrained` is rejected — the service is a hop-constrained
  /// system. time_limit_seconds here is ignored; use
  /// compact_time_limit_seconds.
  CoverOptions cover;
  /// Algorithm for the initial solve and every compaction.
  CoverAlgorithm compact_algorithm = CoverAlgorithm::kTdbPlusPlus;
  /// Delta size (edges) that triggers a compaction after a SubmitEdges;
  /// 0 disables compaction entirely.
  EdgeId compact_delta_threshold = 4096;
  /// Run compactions inline inside the triggering SubmitEdges instead of
  /// on a background thread. Deterministic epoch sequence — intended for
  /// tests and benchmarks; production wants the default.
  bool synchronous_compaction = false;
  /// Wall-clock budget per compaction solve (and the constructor's
  /// initial solve); <= 0 = unlimited. When set, the engine runs with
  /// split_budget_by_work so a timed-out solve still yields a feasible
  /// partial cover instead of failing the compaction.
  double compact_time_limit_seconds = 0.0;
  /// No effect. The admission verdict cache and the landmark distance
  /// index are gone: every admission query that passes the prechecks
  /// runs the path probe. Both fields stay only because existing
  /// callers (bench/e2e/bench_e2e.cc) still set them.
  int admission_cache_log2 = 0;
  int admission_index_landmarks = 0;
  /// Store directory for the durability layer (snapshot + write-ahead
  /// journal + manifest). Empty = in-memory service, no persistence.
  /// Construct a durable service through Create (fresh store) or Open
  /// (recover an existing one), never the plain constructor.
  std::string data_dir;
  /// When journal appends reach stable storage (effective only with a
  /// data_dir; see journal.h for the policy semantics).
  DurabilityPolicy durability = DurabilityPolicy::kBatch;

  Status Validate() const;
};

/// Outcome of one SubmitEdges call. Status-first: check `status` before
/// trusting anything else.
struct SubmitResult {
  /// Non-ok when the write-ahead journal append failed: the batch was
  /// NOT applied (durability-before-apply is the WAL contract) and the
  /// published state is unchanged.
  Status status;
  /// Epoch of the state this call published (0 when nothing was — see
  /// `status`).
  uint64_t epoch = 0;
  BatchAugmentStats stats;
};

/// Long-lived serving object. Thread-safety contract: SubmitEdges may be
/// called from any thread (calls are serialized internally);
/// CheckAdmission / PinSnapshot / Stats / epoch may be called from any
/// number of threads concurrently with everything else.
class CycleBreakService {
 public:
  /// What a recovery replayed (all zero for fresh/in-memory services).
  struct RecoveryInfo {
    /// Epoch the loaded snapshot was cut at (recovery publishes once,
    /// at this plus replayed_batches).
    uint64_t snapshot_epoch = 0;
    /// Journal records replayed on top of the snapshot.
    uint64_t replayed_batches = 0;
    /// Submitted edges across the replayed records.
    uint64_t replayed_events = 0;
    /// Torn/corrupt tail bytes the journal open truncated.
    uint64_t journal_truncated_bytes = 0;
  };

  /// Takes ownership of the base snapshot and synchronously computes its
  /// initial cover with compact_algorithm (epoch 1). If that solve fails
  /// (e.g. DARC-DV line-graph budget), the service falls back to the
  /// all-vertices cover — always feasible — and records the failure in
  /// Stats() and in the published BaseCover::solve_status. In-memory
  /// only: options.data_dir must be empty (use Create/Open for durable
  /// services — persistence setup can fail, which a constructor cannot
  /// report).
  CycleBreakService(CsrGraph base, const ServiceOptions& options);
  ~CycleBreakService();

  /// Builds a service over `base` like the constructor and, when
  /// options.data_dir is set, initializes a fresh store there: the
  /// initial snapshot, an empty journal and the manifest naming them.
  /// Fails if the directory already holds a store (recover it with Open
  /// instead — silently restarting from scratch would discard state).
  static Status Create(CsrGraph base, const ServiceOptions& options,
                       std::unique_ptr<CycleBreakService>* out);

  /// Recovers a service from the store at options.data_dir: loads the
  /// manifest's snapshot, opens the journal (validating checksums and
  /// truncating any torn tail), and replays the journaled batches through
  /// the normal ingest path — compactions re-trigger at the same batch
  /// boundaries (synchronously), so the recovered transversal, graph and
  /// epoch are bit-identical to a never-crashed sequential replay of the
  /// same batches. recovery_info() reports what was replayed.
  static Status Open(const ServiceOptions& options,
                     std::unique_ptr<CycleBreakService>* out);

  CycleBreakService(const CycleBreakService&) = delete;
  CycleBreakService& operator=(const CycleBreakService&) = delete;

  /// Ingests a batch of edges (duplicates / self-loops / out-of-universe
  /// endpoints are counted and skipped), restores the cover invariant,
  /// publishes the new state, and possibly triggers a compaction.
  SubmitResult SubmitEdges(std::span<const Edge> batch);

  /// Would admitting u -> v close an uncovered constrained cycle?
  /// Lock-free against the latest published snapshot. A documented thin
  /// wrapper over CheckAdmissionBatch with a batch of one: single and
  /// batched queries share one evaluation path (prechecks, probe,
  /// stats), so the two call shapes cannot drift.
  AdmissionVerdict CheckAdmission(VertexId u, VertexId v) const;

  /// Batched CheckAdmission: pins ONE snapshot for the whole span and
  /// answers queries[i] (= "admit queries[i].src -> queries[i].dst?")
  /// against it, so all verdicts share a coherent epoch — per-query
  /// calls may straddle a publish. Verdicts are bit-identical to
  /// per-query CheckAdmission on that snapshot (CheckAdmissionBatchOn).
  /// Lock-free; callable from any number of threads concurrently.
  std::vector<AdmissionVerdict> CheckAdmissionBatch(
      std::span<const Edge> queries) const;

  /// Pins the latest published snapshot (never null after construction).
  std::shared_ptr<const ServiceSnapshot> PinSnapshot() const;

  /// Latest published epoch.
  uint64_t epoch() const { return published_.epoch(); }

  /// Vertex universe of the served graph.
  VertexId universe() const;

  /// Delta edges in the latest published snapshot's overlay.
  uint64_t delta_edges() const;

  ServiceStatsSnapshot Stats() const { return stats_.Snapshot(); }

  /// The live counters, for metric-registry export (see
  /// service/service_metrics.h). Read-only; the atomics stay valid for
  /// the service's lifetime.
  const ServiceStats& raw_stats() const { return stats_; }

  /// Canonical image of the latest published state (graph + transversal),
  /// for state dumps, digests and equality checks.
  TransversalImage Image() const;

  /// What Open replayed (zeros for fresh services).
  const RecoveryInfo& recovery_info() const { return recovery_; }

  /// Cumulative submitted edges over the service's whole lifetime —
  /// across restarts when durable (the snapshot carries the count, the
  /// journal tail adds the rest). Stream-replay drivers resume their
  /// input at this offset after a recovery.
  uint64_t events_ingested() const {
    return total_events_.load(std::memory_order_relaxed);
  }

  /// Blocks until no background compaction is in flight. (Shutdown and
  /// test barrier; the destructor calls it.)
  void WaitForCompaction();

 private:
  /// Core init without state (factories fill state in afterwards).
  explicit CycleBreakService(const ServiceOptions& options);
  /// The public constructor's body: initial solve + publish (epoch 1).
  void BootstrapFresh(CsrGraph base);
  /// Creates the initial snapshot + journal + manifest in data_dir.
  Status InitStoreFresh();
  /// Loads `snap`, opens the journal, replays its tail and publishes
  /// the result once, at the epoch the pre-close process had reached.
  Status RecoverFromStore(const StoreManifest& manifest,
                          SnapshotState snap);
  /// The whole SubmitEdges path; `append_to_journal` is false only for
  /// recovery replay (those records are already durable).
  /// Requires writer_mu_.
  SubmitResult SubmitLocked(std::span<const Edge> batch,
                            bool append_to_journal);
  /// The durability=always SubmitEdges path, structured for group
  /// commit: phase 1 under writer_mu_ reserves the sequence, appends
  /// unsynced and queues the pending batch; phase 2 drops the lock and
  /// rides Journal::CommitDurable (one leader fsyncs the whole appended
  /// tail while the next submitter is already appending); phase 3
  /// retakes writer_mu_ and applies strictly in sequence order, so the
  /// committed state equals the serialized path's bit for bit.
  SubmitResult SubmitGroupCommit(std::span<const Edge> batch,
                                 std::unique_lock<std::mutex> lock);
  /// Apply half shared by every submit path: augment, stats, compaction
  /// trigger, publish (skipped while replaying: recovery publishes once,
  /// after the tail); advances applied_seq_. Requires writer_mu_.
  SubmitResult ApplyLocked(uint64_t seq, std::span<const Edge> batch);
  /// Writes the cut snapshot, rotates the journal (re-appending the
  /// post-cut pending batches) and commits both through the manifest.
  /// Any failure leaves the previous (snapshot, journal) pair live and
  /// counts persist_failures. Requires writer_mu_; call after the new
  /// base/state are installed but before the pending tail is replayed.
  void PersistCutLocked(uint64_t cut_seq);
  /// Copies the working state into a fresh snapshot and publishes it.
  /// Requires writer_mu_.
  uint64_t PublishLocked();
  /// Requires writer_mu_.
  bool ShouldCompactLocked() const;
  /// Captures the compaction input and either solves inline
  /// (synchronous_compaction) or launches the background solve.
  /// Requires writer_mu_.
  void CompactLocked();
  /// Swaps in the solved base (already wrapped in a fresh overlay),
  /// resets the incremental layer, persists the cut (durable services),
  /// and replays the pending batches that arrived after the cut — batch
  /// by batch, at the original submission boundaries, so the installed
  /// state matches a sequential replay of the journal onto the new
  /// snapshot. Requires writer_mu_.
  void InstallCompactionLocked(OverlayGraph base, uint64_t cut_seq,
                               CoverResult solved);
  /// The full-engine solve used at construction and for compactions.
  CoverResult SolveBase(const CsrGraph& graph) const;
  /// Re-stamps the base_bytes footprint gauge from the current working_
  /// base. Requires writer_mu_.
  void StampBaseBytesLocked() const;

  const ServiceOptions options_;

  /// One not-yet-snapshotted batch, exactly as submitted. The queue
  /// backs both compaction-install replay (per-batch, at the original
  /// boundaries) and journal rotation (the new journal re-appends the
  /// post-cut tail); entries are dropped once a cut folds them into a
  /// base. Tracked only when a compaction or a journal can consume it.
  struct PendingBatch {
    uint64_t seq = 0;
    /// Cumulative submitted edges through this batch (snapshot
    /// bookkeeping for stream resumption).
    uint64_t events_after = 0;
    std::vector<Edge> edges;
  };

  /// Serializes SubmitEdges, publication, and compaction install.
  std::mutex writer_mu_;
  OverlayGraph working_;    // guarded by writer_mu_
  TransversalState state_;  // guarded by writer_mu_
  /// Probe scratch of every BatchAugment (submit, compaction tail replay,
  /// recovery replay), warm across batches. Guarded by writer_mu_.
  SearchContext ingest_ctx_;
  std::deque<PendingBatch> pending_;  // guarded by writer_mu_
  uint64_t last_seq_ = 0;             // guarded by writer_mu_
  /// Highest sequence whose batch is applied to working_/state_. Equals
  /// last_seq_ except between a group-commit append (phase 1) and its
  /// in-order apply (phase 3). Guarded by writer_mu_; apply_cv_ wakes
  /// phase-3 waiters as the sequence advances.
  uint64_t applied_seq_ = 0;
  std::condition_variable apply_cv_;
  uint64_t events_at_cut_ = 0;        // guarded by writer_mu_
  /// True while Open replays the journal: suppresses re-journaling,
  /// forces synchronous compaction (deterministic replay) and skips
  /// persistence side effects (the records being replayed are the
  /// durable source of truth already).
  bool replaying_ = false;  // guarded by writer_mu_
  /// shared_ptr so a group-commit phase 2 (fsync outside writer_mu_)
  /// keeps its journal alive across a concurrent rotation; the pointer
  /// itself is guarded by writer_mu_.
  std::shared_ptr<Journal> journal_;
  std::string snapshot_file_;         // guarded by writer_mu_
  std::atomic<uint64_t> total_events_{0};
  RecoveryInfo recovery_;

  EpochPtr<ServiceSnapshot> published_;

  /// Guards the compaction thread handle. Lock order: writer_mu_ before
  /// compact_mu_; the compaction thread itself only ever takes
  /// writer_mu_, and the handle is only joined once the thread is past
  /// its last use of it (compact_running_ false) or from
  /// WaitForCompaction, which holds neither lock the thread needs.
  std::mutex compact_mu_;
  std::thread compact_thread_;
  std::atomic<bool> compact_running_{false};

  mutable ServiceStats stats_;
};

}  // namespace tdb

#endif  // TDB_SERVICE_CYCLE_BREAK_SERVICE_H_
