#include "service/service_metrics.h"

namespace tdb {

std::vector<MetricRegistry::Registration> BindServiceStats(
    MetricRegistry* registry, const ServiceStats& stats,
    const std::string& prefix) {
  std::vector<MetricRegistry::Registration> regs;
  const auto bind = [&](const char* field, const char* help,
                        const std::atomic<uint64_t>& value) {
    regs.push_back(registry->AddCounterView(prefix + field + "_total",
                                            help, &value));
  };
  bind("batches", "Ingest batches applied", stats.batches);
  bind("edges_submitted", "Edges submitted across all batches",
       stats.edges_submitted);
  bind("edges_inserted", "Edges inserted into the overlay",
       stats.edges_inserted);
  bind("edges_rejected",
       "Edges skipped (duplicate, self-loop, out of universe)",
       stats.edges_rejected);
  bind("cycles_covered", "Cycles covered by incremental AUGMENT commits",
       stats.cycles_covered);
  bind("path_queries", "Bounded path searches run by ingest",
       stats.path_queries);
  bind("prunes", "Transversal PRUNE passes", stats.prunes);
  bind("admission_queries", "CheckAdmission queries answered",
       stats.admission_queries);
  bind("admission_would_close",
       "Admission verdicts that would close an uncovered cycle",
       stats.admission_would_close);
  bind("admission_cache_hits", "Admission verdict cache hits",
       stats.admission_cache_hits);
  bind("admission_cache_misses", "Admission verdict cache misses",
       stats.admission_cache_misses);
  bind("admission_batches", "CheckAdmissionBatch calls",
       stats.admission_batches);
  bind("index_hits",
       "Admission verdicts forced by distance-index arithmetic",
       stats.index_hits);
  bind("index_fallbacks",
       "Indexed admission queries that needed a path search",
       stats.index_fallbacks);
  bind("index_builds",
       "Per-publish admission indexes, patched or built from scratch",
       stats.index_builds);
  bind("index_patches",
       "Admission indexes patched from the previous publish's index",
       stats.index_patches);
  bind("index_build_nanoseconds",
       "Cumulative admission index build wall-clock (ns)",
       stats.index_build_ns);
  bind("epochs_published", "Snapshots published", stats.epochs_published);
  bind("compactions", "Compaction installs", stats.compactions);
  bind("compactions_failed", "Compaction solves that failed",
       stats.compactions_failed);
  bind("compaction_components_timed_out",
       "Components that exhausted their compaction budget share",
       stats.compaction_components_timed_out);
  bind("journal_records", "Write-ahead journal records appended",
       stats.journal_records);
  bind("journal_rotations", "Journal rotations at compaction cuts",
       stats.journal_rotations);
  bind("snapshots_written", "Durable snapshots written",
       stats.snapshots_written);
  bind("persist_failures", "Persistence-layer failures",
       stats.persist_failures);
  bind("journal_group_commits",
       "Leader fsyncs under durability=always group commit",
       stats.journal_group_commits);
  bind("journal_group_size",
       "Journal appends made durable by led group commits",
       stats.journal_group_size);
  // The byte footprint is a gauge (it can go down at a compaction
  // install), so it skips the counter view and its _total naming
  // convention.
  regs.push_back(registry->AddGaugeFn(
      prefix + "base_bytes", "Resident bytes of the immutable base",
      [&stats] {
        return static_cast<double>(
            stats.base_bytes.load(std::memory_order_relaxed));
      }));
  return regs;
}

}  // namespace tdb
