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
  uint64_t admission_cache_hits = 0;
  uint64_t admission_cache_misses = 0;
  /// CheckAdmissionBatch calls. Single-query CheckAdmission is a batch
  /// of one, so it counts here too (one batch, one query).
  uint64_t admission_batches = 0;
  /// Verdicts forced by the distance index's arithmetic alone.
  uint64_t index_hits = 0;
  /// Queries that needed a path search although an index was present.
  uint64_t index_fallbacks = 0;
  /// Per-publish indexes (patched or built from scratch), and their
  /// cumulative wall-clock cost.
  uint64_t index_builds = 0;
  /// The share of index_builds patched from the previous publish's
  /// index; the rest (index_builds - index_patches) were full builds.
  uint64_t index_patches = 0;
  double index_build_seconds = 0.0;
  uint64_t epochs_published = 0;
  uint64_t compactions = 0;
  uint64_t compactions_failed = 0;
  uint64_t compaction_components_timed_out = 0;
  /// Persistence layer (all zero for in-memory services).
  uint64_t journal_records = 0;
  uint64_t journal_rotations = 0;
  uint64_t snapshots_written = 0;
  uint64_t persist_failures = 0;
  /// Group commit under durability=always: fsync batches led by one
  /// appender, and the cumulative appends those batches made durable
  /// (mean group size = journal_group_size / journal_group_commits).
  uint64_t journal_group_commits = 0;
  uint64_t journal_group_size = 0;
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
  std::atomic<uint64_t> admission_cache_hits{0};
  std::atomic<uint64_t> admission_cache_misses{0};
  std::atomic<uint64_t> admission_batches{0};
  std::atomic<uint64_t> index_hits{0};
  std::atomic<uint64_t> index_fallbacks{0};
  std::atomic<uint64_t> index_builds{0};
  std::atomic<uint64_t> index_patches{0};
  /// Nanoseconds, so the hot publish path stays on integer fetch_add.
  std::atomic<uint64_t> index_build_ns{0};
  std::atomic<uint64_t> epochs_published{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> compactions_failed{0};
  std::atomic<uint64_t> compaction_components_timed_out{0};
  std::atomic<uint64_t> journal_records{0};
  std::atomic<uint64_t> journal_rotations{0};
  std::atomic<uint64_t> snapshots_written{0};
  std::atomic<uint64_t> persist_failures{0};
  std::atomic<uint64_t> journal_group_commits{0};
  std::atomic<uint64_t> journal_group_size{0};
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
    out.admission_cache_hits = get(admission_cache_hits);
    out.admission_cache_misses = get(admission_cache_misses);
    out.admission_batches = get(admission_batches);
    out.index_hits = get(index_hits);
    out.index_fallbacks = get(index_fallbacks);
    out.index_builds = get(index_builds);
    out.index_patches = get(index_patches);
    out.index_build_seconds =
        static_cast<double>(get(index_build_ns)) * 1e-9;
    out.epochs_published = get(epochs_published);
    out.compactions = get(compactions);
    out.compactions_failed = get(compactions_failed);
    out.compaction_components_timed_out =
        get(compaction_components_timed_out);
    out.journal_records = get(journal_records);
    out.journal_rotations = get(journal_rotations);
    out.snapshots_written = get(snapshots_written);
    out.persist_failures = get(persist_failures);
    out.journal_group_commits = get(journal_group_commits);
    out.journal_group_size = get(journal_group_size);
    out.base_bytes = get(base_bytes);
    return out;
  }
};

}  // namespace tdb

#endif  // TDB_SERVICE_STATS_H_
