// Instrumentation for the online cycle-break service.
//
// ServiceStats is written from concurrent ingest/admission/compaction
// paths, so every counter is a relaxed atomic — the numbers are
// monitoring data, not synchronization. Every stat is one row of
// TDB_SERVICE_STATS, from which the atomics, the snapshot, Snapshot() and
// the registry binding (service/service_metrics.h) are all generated.
#ifndef TDB_SERVICE_STATS_H_
#define TDB_SERVICE_STATS_H_

#include <atomic>
#include <cstdint>

namespace tdb {

/// The service stats, one row each: COUNTER(field, help) rows are bumped
/// with fetch_add and export as <prefix><field>_total; GAUGE(field, help)
/// rows are written with store() and export as <prefix><field>.
#define TDB_SERVICE_STATS(COUNTER, GAUGE)                                     \
  COUNTER(batches, "Ingest batches applied")                                  \
  COUNTER(edges_submitted, "Edges submitted across all batches")              \
  COUNTER(edges_inserted, "Edges inserted into the overlay")                  \
  COUNTER(edges_rejected,                                                     \
          "Edges skipped (duplicate, self-loop, out of universe)")            \
  COUNTER(cycles_covered, "Cycles covered by incremental AUGMENT commits")    \
  COUNTER(path_queries, "Bounded path searches run by ingest")                \
  /* The share of path_queries that ran the first-path DFS. */               \
  COUNTER(probe_dfs,                                                          \
          "Ingest path searches the ball join could not settle (ran the DFS)") \
  COUNTER(prunes, "Transversal PRUNE passes")                                 \
  COUNTER(admission_queries, "CheckAdmission queries answered")               \
  COUNTER(admission_would_close,                                              \
          "Admission verdicts that would close an uncovered cycle")           \
  /* Single-query CheckAdmission is a batch of one, so it counts here. */    \
  COUNTER(admission_batches, "CheckAdmissionBatch calls")                     \
  /* Decision provenance: the rest of admission_queries were decided by */   \
  /* a precheck, the rest of admission_probes by the ball join. */            \
  COUNTER(admission_probes,                                                   \
          "Admission queries the prechecks could not decide (ran the probe)") \
  COUNTER(admission_probe_dfs,                                                \
          "Admission probes the ball join could not settle (ran the DFS)")    \
  COUNTER(epochs_published, "Snapshots published")                            \
  /* Writer time split of SubmitEdges. BatchAugment covers submitted */      \
  /* batches, compaction tail replays and recovery replay; publication */    \
  /* covers snapshot construction, the pointer swap and releasing the */      \
  /* replaced snapshot. */                                                    \
  COUNTER(augment_nanoseconds, "Writer nanoseconds in BatchAugment")          \
  COUNTER(publish_nanoseconds, "Writer nanoseconds publishing snapshots")     \
  COUNTER(compactions, "Compaction installs")                                 \
  COUNTER(compactions_failed, "Compaction solves that failed")                \
  COUNTER(compaction_components_timed_out,                                    \
          "Components that exhausted their compaction budget share")          \
  /* Persistence layer (all zero for in-memory services). */                 \
  COUNTER(journal_records, "Write-ahead journal records appended")            \
  COUNTER(journal_rotations, "Journal rotations at compaction cuts")          \
  COUNTER(snapshots_written, "Durable snapshots written")                     \
  COUNTER(persist_failures, "Persistence-layer failures")                     \
  /* CsrGraph::memory_bytes, re-stamped whenever a base is installed. */     \
  GAUGE(base_bytes, "Resident bytes of the immutable base")

/// Plain-value snapshot of ServiceStats (each counter is exact at read
/// time; cross-counter invariants are not guaranteed mid-flight).
struct ServiceStatsSnapshot {
#define TDB_SERVICE_FIELD(field, help) uint64_t field = 0;
  TDB_SERVICE_STATS(TDB_SERVICE_FIELD, TDB_SERVICE_FIELD)
#undef TDB_SERVICE_FIELD
  /// Always 0. Ingest no longer probes edges speculatively on a pool;
  /// the field stays because existing readers of the snapshot
  /// (bench/e2e/bench_e2e.cc) still report it.
  uint64_t speculative_probes = 0;
  /// Always 0. The admission verdict cache and the landmark distance
  /// index are gone (every admission query that passes the prechecks
  /// runs the probe); these fields stay because existing readers of the
  /// snapshot (bench/e2e/bench_e2e.cc) still report them.
  uint64_t admission_cache_hits = 0;
  uint64_t admission_cache_misses = 0;
  uint64_t index_hits = 0;
  uint64_t index_fallbacks = 0;
  uint64_t index_builds = 0;
  double index_build_seconds = 0.0;
};

/// Monotonic service counters; all members are thread-safe to bump with
/// fetch_add(std::memory_order_relaxed).
struct ServiceStats {
#define TDB_SERVICE_FIELD(field, help) std::atomic<uint64_t> field{0};
  TDB_SERVICE_STATS(TDB_SERVICE_FIELD, TDB_SERVICE_FIELD)
#undef TDB_SERVICE_FIELD

  ServiceStatsSnapshot Snapshot() const {
    ServiceStatsSnapshot out;
#define TDB_SERVICE_LOAD(field, help) \
  out.field = field.load(std::memory_order_relaxed);
    TDB_SERVICE_STATS(TDB_SERVICE_LOAD, TDB_SERVICE_LOAD)
#undef TDB_SERVICE_LOAD
    return out;
  }
};

}  // namespace tdb

#endif  // TDB_SERVICE_STATS_H_
