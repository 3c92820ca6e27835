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
  bind("probe_dfs",
       "Ingest path searches the ball join could not settle (ran the DFS)",
       stats.probe_dfs);
  bind("prunes", "Transversal PRUNE passes", stats.prunes);
  bind("admission_queries", "CheckAdmission queries answered",
       stats.admission_queries);
  bind("admission_would_close",
       "Admission verdicts that would close an uncovered cycle",
       stats.admission_would_close);
  bind("admission_batches", "CheckAdmissionBatch calls",
       stats.admission_batches);
  bind("admission_probes",
       "Admission queries the prechecks could not decide (ran the probe)",
       stats.admission_probes);
  bind("admission_probe_dfs",
       "Admission probes the ball join could not settle (ran the DFS)",
       stats.admission_probe_dfs);
  bind("epochs_published", "Snapshots published", stats.epochs_published);
  bind("augment_nanoseconds", "Writer nanoseconds in BatchAugment",
       stats.augment_nanoseconds);
  bind("publish_nanoseconds", "Writer nanoseconds publishing snapshots",
       stats.publish_nanoseconds);
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
