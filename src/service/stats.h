// Instrumentation for the online cycle-break service.
//
// ServiceStats is written from concurrent ingest/admission/compaction
// paths, so every counter is a relaxed atomic — the numbers are
// monitoring data, not synchronization. LatencyHistogram (the matching
// lock-free log2 latency instrument) now lives in util/metrics.h with
// the rest of the metric toolkit; it is re-exported here so existing
// service-layer users keep compiling unchanged. To export ServiceStats
// through the process-wide registry, see service/service_metrics.h.
#ifndef TDB_SERVICE_STATS_H_
#define TDB_SERVICE_STATS_H_

#include <atomic>
#include <cstdint>

#include "util/metrics.h"

namespace tdb {

/// Plain-value snapshot of ServiceStats (each counter is exact at read
/// time; cross-counter invariants are not guaranteed mid-flight).
struct ServiceStatsSnapshot {
  uint64_t batches = 0;
  uint64_t edges_submitted = 0;
  uint64_t edges_inserted = 0;
  uint64_t edges_rejected = 0;
  uint64_t cycles_covered = 0;
  uint64_t path_queries = 0;
  /// The share of path_queries the probe's ball join could not settle,
  /// which ran the first-path DFS.
  uint64_t probe_dfs = 0;
  /// Always 0. Ingest no longer probes edges speculatively on a pool;
  /// the field stays because existing readers of the snapshot
  /// (bench/e2e/bench_e2e.cc) still report it.
  uint64_t speculative_probes = 0;
  uint64_t prunes = 0;
  uint64_t admission_queries = 0;
  uint64_t admission_would_close = 0;
  /// CheckAdmissionBatch calls. Single-query CheckAdmission is a batch
  /// of one, so it counts here too (one batch, one query).
  uint64_t admission_batches = 0;
  /// Decision provenance: the admission queries the prechecks could not
  /// decide, which ran the path probe (the rest were decided by a
  /// precheck), and the share of those the probe's ball join could not
  /// settle, which ran its first-path DFS.
  uint64_t admission_probes = 0;
  uint64_t admission_probe_dfs = 0;
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
  uint64_t epochs_published = 0;
  /// Writer time split of SubmitEdges: nanoseconds in BatchAugment
  /// (submitted batches, compaction tail replays and recovery replay)
  /// and in publication (snapshot construction, the pointer swap and
  /// releasing the replaced snapshot).
  uint64_t augment_nanoseconds = 0;
  uint64_t publish_nanoseconds = 0;
  uint64_t compactions = 0;
  uint64_t compactions_failed = 0;
  uint64_t compaction_components_timed_out = 0;
  /// Persistence layer (all zero for in-memory services).
  uint64_t journal_records = 0;
  uint64_t journal_rotations = 0;
  uint64_t snapshots_written = 0;
  uint64_t persist_failures = 0;
  /// Resident bytes of the immutable base CSR (CsrGraph::memory_bytes).
  /// A gauge, re-stamped whenever a base is installed.
  uint64_t base_bytes = 0;
};

/// Monotonic service counters; all members are thread-safe to bump with
/// fetch_add(std::memory_order_relaxed).
struct ServiceStats {
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> edges_submitted{0};
  std::atomic<uint64_t> edges_inserted{0};
  std::atomic<uint64_t> edges_rejected{0};
  std::atomic<uint64_t> cycles_covered{0};
  std::atomic<uint64_t> path_queries{0};
  std::atomic<uint64_t> probe_dfs{0};
  std::atomic<uint64_t> prunes{0};
  std::atomic<uint64_t> admission_queries{0};
  std::atomic<uint64_t> admission_would_close{0};
  std::atomic<uint64_t> admission_batches{0};
  std::atomic<uint64_t> admission_probes{0};
  std::atomic<uint64_t> admission_probe_dfs{0};
  std::atomic<uint64_t> epochs_published{0};
  std::atomic<uint64_t> augment_nanoseconds{0};
  std::atomic<uint64_t> publish_nanoseconds{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compactions_failed{0};
  std::atomic<uint64_t> compaction_components_timed_out{0};
  std::atomic<uint64_t> journal_records{0};
  std::atomic<uint64_t> journal_rotations{0};
  std::atomic<uint64_t> snapshots_written{0};
  std::atomic<uint64_t> persist_failures{0};
  /// Gauges: written with store(), not fetch_add.
  std::atomic<uint64_t> base_bytes{0};

  ServiceStatsSnapshot Snapshot() const {
    ServiceStatsSnapshot out;
    const auto get = [](const std::atomic<uint64_t>& c) {
      return c.load(std::memory_order_relaxed);
    };
    out.batches = get(batches);
    out.edges_submitted = get(edges_submitted);
    out.edges_inserted = get(edges_inserted);
    out.edges_rejected = get(edges_rejected);
    out.cycles_covered = get(cycles_covered);
    out.path_queries = get(path_queries);
    out.probe_dfs = get(probe_dfs);
    out.prunes = get(prunes);
    out.admission_queries = get(admission_queries);
    out.admission_would_close = get(admission_would_close);
    out.admission_batches = get(admission_batches);
    out.admission_probes = get(admission_probes);
    out.admission_probe_dfs = get(admission_probe_dfs);
    out.epochs_published = get(epochs_published);
    out.augment_nanoseconds = get(augment_nanoseconds);
    out.publish_nanoseconds = get(publish_nanoseconds);
    out.compactions = get(compactions);
    out.compactions_failed = get(compactions_failed);
    out.compaction_components_timed_out =
        get(compaction_components_timed_out);
    out.journal_records = get(journal_records);
    out.journal_rotations = get(journal_rotations);
    out.snapshots_written = get(snapshots_written);
    out.persist_failures = get(persist_failures);
    out.base_bytes = get(base_bytes);
    return out;
  }
};

}  // namespace tdb

#endif  // TDB_SERVICE_STATS_H_
