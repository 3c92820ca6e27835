// Exports ServiceStats through a MetricRegistry.
//
// Binding registers zero-cost *views* of the atomics inside ServiceStats,
// one per TDB_SERVICE_STATS row, under Prometheus-conventional names
// (`<prefix><field>_total` for counters, `<prefix><field>` for gauges), so
// exporting adds no synchronization and no extra work to ingest or
// admission. Dropping the returned registrations unbinds cleanly when
// the service dies before the process (tests, service restarts).
#ifndef TDB_SERVICE_SERVICE_METRICS_H_
#define TDB_SERVICE_SERVICE_METRICS_H_

#include <string>
#include <vector>

#include "service/stats.h"
#include "util/metrics.h"

namespace tdb {

/// Registers a view per ServiceStats row onto `registry`.
/// `stats` must outlive the returned registrations; `prefix` must make
/// the names unique within the registry (e.g. "tdb_service_").
std::vector<MetricRegistry::Registration> BindServiceStats(
    MetricRegistry* registry, const ServiceStats& stats,
    const std::string& prefix);

}  // namespace tdb

#endif  // TDB_SERVICE_SERVICE_METRICS_H_
