#include "service/service_metrics.h"

namespace tdb {

std::vector<MetricRegistry::Registration> BindServiceStats(
    MetricRegistry* registry, const ServiceStats& stats,
    const std::string& prefix) {
  std::vector<MetricRegistry::Registration> regs;
#define TDB_BIND_COUNTER(field, help)                                    \
  regs.push_back(                                                        \
      registry->AddCounterView(prefix + #field "_total", help, &stats.field));
  // A gauge (base_bytes can go down at a compaction install) skips the
  // counter view and its _total naming convention.
#define TDB_BIND_GAUGE(field, help)                                      \
  regs.push_back(registry->AddGaugeFn(prefix + #field, help, [&stats] { \
    return static_cast<double>(                                          \
        stats.field.load(std::memory_order_relaxed));                    \
  }));
  TDB_SERVICE_STATS(TDB_BIND_COUNTER, TDB_BIND_GAUGE)
#undef TDB_BIND_COUNTER
#undef TDB_BIND_GAUGE
  return regs;
}

}  // namespace tdb
